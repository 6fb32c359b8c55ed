"""Structure constants as the JSON document `StructureConstants.from_json` reads (tests only).

The tests write `--config` structures with it and round-trip it through
`from_json`; the package itself only reads this format.
"""

import json


def structure_json(sc) -> str:
    """{"name", "dim", "entries": [{"mu", "nu", "rho", "re", "im"}]} of sc."""
    entries = []
    for mu in range(sc.dim):
        for nu in range(sc.dim):
            for rho in range(sc.dim):
                c = sc.C[mu, nu, rho]
                if c != 0:
                    entries.append({"mu": mu, "nu": nu, "rho": rho, "re": c.real, "im": c.imag})
    return json.dumps({"name": sc.name, "dim": sc.dim, "entries": entries}, sort_keys=True)
