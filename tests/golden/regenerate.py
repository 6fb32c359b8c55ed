"""Write the golden CLI reports from the working tree.

Usage: python tests/golden/regenerate.py [name ...]

Runs cases of `tests/test_golden_reports.py` through the console entry
point in a fresh interpreter, with `src` on the path, and stores each one's
stdout, stderr and exit code together with the numpy version, Python
version and platform.  With no names it writes only the cases whose file
is missing, so a new case can be recorded without touching the stored
ones; a stored case is overwritten only when it is named.  Each file
written is printed.  Regenerate a stored case only for a report change
that is meant; list every changed row in CHANGES.md.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import test_golden_reports as G  # noqa: E402


def main(names):
    unknown = [n for n in names if n not in G.CASES]
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    for name in names or [n for n in sorted(G.CASES) if not (G.GOLDEN / f"{n}.json").exists()]:
        path = G.GOLDEN / f"{name}.json"
        doc = {"argv": G.CASES[name], **G.run_fresh(name), **G.environment()}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(G.ROOT)}: exit {doc['exit']}")


if __name__ == "__main__":
    main(sys.argv[1:])
