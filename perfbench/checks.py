"""Independent checks of qstkit outputs.

Every expected value here is computed apart from the program: closed forms
written out in this file, recomputation with scipy, properties the method
must have (bilinearity, associativity, exact zeros) or values printed in the
paper.  A check returns a list of error strings; an empty list means pass.
`negative_controls` feeds each check family a deliberately wrong output and
reports every family whose check fails to reject it.
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps
LAW_TOL = 1e-12          # relative, for closed-form group laws on O(1) momenta
MOYAL_THETA = np.array([[0.0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
MIXING_VERDICTS = {"moyal": "MIXING", "kappa": "NO_MIXING", "commutative": "NO_MIXING"}
DIAGRAM_COUNTS = {"real_phi4": "12=8p+4np", "charged_orientable": "4=4p+0np",
                  "charged_nonorientable": "4=2p+2np"}
CONE_TOL = 1e-8


# ---------------------------------------------------------------------------
# closed forms, on rows of shape (n, dim)

def kappa_add(P, Q, kappa=1.0):
    """p [+] q = (p0 + q0, p + e^{-p0/kappa} q)."""
    P, Q = np.atleast_2d(P), np.atleast_2d(Q)
    out = P + Q
    out[:, 1:] = P[:, 1:] + np.exp(-P[:, :1] / kappa) * Q[:, 1:]
    return out


def kappa_inv(P, kappa=1.0):
    """[-]p = (-p0, -e^{p0/kappa} p)."""
    P = np.atleast_2d(P)
    out = -P
    out[:, 1:] *= np.exp(P[:, :1] / kappa)
    return out


def kappa_modular(p, d, kappa=1.0):
    """Delta(p) = e^{d p0/kappa}."""
    return math.exp(d * p[0] / kappa)


def rho_add(P, Q, rho=1.0):
    """Rotate (q1, q2) by the angle rho p0, add the rest."""
    c, s = np.cos(rho * P[:, 0]), np.sin(rho * P[:, 0])
    out = P + Q
    out[:, 1] = P[:, 1] + c * Q[:, 1] - s * Q[:, 2]
    out[:, 2] = P[:, 2] + s * Q[:, 1] + c * Q[:, 2]
    return out


def moyal_add(P, Q, theta=1.0):
    """Plain sum, with the phase slot shifted by -(1/2) p.Theta.q (Weyl phase)."""
    out = P + Q
    out[:, 4] -= 0.5 * theta * np.einsum("im,mn,in->i", P[:, :4], MOYAL_THETA, Q[:, :4])
    return out


def su2_scalar_residual(P, Q, R, lam=1.0):
    """|cos(lam|r|/2) - (cos cos - sin sin p^.q^)| with r = p [+] q, per row."""
    a, b = lam * np.linalg.norm(P, axis=1) / 2, lam * np.linalg.norm(Q, axis=1) / 2
    cosang = np.einsum("ij,ij->i", P, Q) / (np.linalg.norm(P, axis=1) * np.linalg.norm(Q, axis=1))
    want = np.cos(a) * np.cos(b) - np.sin(a) * np.sin(b) * cosang
    return np.abs(np.cos(lam * np.linalg.norm(R, axis=1) / 2) - want)


def rel_err(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want) / (1.0 + np.abs(want)), initial=0.0))


def expect_close(label, got, want, tol=LAW_TOL):
    err = rel_err(got, want)
    return [] if err <= tol else [f"{label}: relative error {err:.3g} > {tol:g}"]


def expect(label, cond):
    return [] if cond else [label]


# ---------------------------------------------------------------------------
# check families (shared by the workloads that produce these outputs)

def check_delta_solve(k, p, q, k0, ok, kappa=1.0):
    """k solves p [+] k [+] q [-] k = 0 by the closed forms, with the given k0."""
    if not ok or k is None:
        return ["delta-solve: no solution reported"]
    k = np.asarray(k, float)
    res = kappa_add(kappa_add(kappa_add(p, k, kappa), q, kappa), kappa_inv(k, kappa), kappa)
    return (expect_close("delta-solve residual", res, np.zeros_like(res), 1e-9)
            + expect("delta-solve: k0 not kept", k.shape == (len(p),) and k[0] == k0))


def check_hopf(rep):
    flags = [r[k] for r in rep["generators"].values() for k in ("coassociativity", "counit", "coinverse")]
    flags += [r[k] for r in rep["relations"].values() for k in ("coproduct", "counit", "antipode")]
    return expect("hopf: an axiom or relation is not exactly satisfied",
                  rep["passed"] is True and flags and all(f is True for f in flags))


def check_matrix(ids, part, N):
    """Exact zeros for the basis identities; associativity within float roundoff."""
    errs = [f"matrix N={N}: {k} = {ids[k]!r}, not exactly 0"
            for k in ("delta_rule", "involution", "orthonormality") if ids[k] != 0.0]
    errs += [f"matrix N={N}: {k} = {part[k]!r}, not exactly 0"
             for k in ("positivity_witness_error", "unity_reconstruction_error",
                       "diagonal_commutation_error") if part[k] != 0.0]
    if not 0.0 <= ids["associativity"] <= 8 * N * EPS:
        errs.append(f"matrix N={N}: associativity {ids['associativity']!r} > 8 N eps")
    return errs


def bessel_closed_form(m, kappa, d):
    from scipy import special
    nu = (d - 1) / 2
    return 4 * math.pi * (4 * math.pi * kappa * m / d) ** nu * special.kv(nu, m * d / (2 * kappa))


def check_bessel(rep, grid):
    """Rows recomputed with scipy.special.kv; oracle/closed-form ratio constant per d."""
    errs = expect("bessel: rows do not cover the grid",
                  len(rep["rows"]) == 2 * len(grid) ** 2)
    for r in rep["rows"]:
        errs += expect_close(f"bessel d={r['d']} m={r['m']} kappa={r['kappa']}",
                             r["closed_form"], bessel_closed_form(r["m"], r["kappa"], r["d"]))
    for d in {r["d"] for r in rep["rows"]}:
        ratios = np.array([r["oracle"] / r["closed_form"] for r in rep["rows"] if r["d"] == d])
        errs += expect_close(f"bessel ratio constancy d={d}", ratios,
                             np.full_like(ratios, ratios.mean()), 1e-6)
    return errs


def check_dim_scan(scan, kappa, p0_samples=(0.25, 0.5, 1.0, -0.75)):
    """Zero set [4]; each deviation is max |e^{(4-d) p0/kappa} - 1|."""
    errs = expect(f"dim-scan: zero set {scan['zero_set']} != [4]", scan["zero_set"] == [4])
    for d, dev in scan["deviations"].items():
        want = max(abs(math.exp((4 - int(d)) * p0 / kappa) - 1.0) for p0 in p0_samples)
        errs += expect_close(f"dim-scan d={d}", dev, want)
    return errs


def check_star(prod, F, Fa, G, Ga, kappa=1.0):
    """e_p * e_q = e_{p [+] q}: n_f n_g distinct terms, amplitudes a_i b_j, bilinear."""
    n = len(F) * len(G)
    if len(prod) != n:
        return [f"star: {len(prod)} terms, expected {n}"]
    want = kappa_add(np.repeat(F, len(G), axis=0), np.tile(G, (len(F), 1)), kappa)
    want_amp = np.outer(Fa, Ga).ravel()
    got = np.array([np.real(p) for p, _ in prod])
    got_amp = np.array([a for _, a in prod])
    gi, wi = np.lexsort(got.T[::-1]), np.lexsort(want.T[::-1])
    return (expect_close("star momenta", got[gi], want[wi])
            + expect_close("star amplitudes", got_amp[gi], want_amp[wi])
            + expect_close("star bilinearity", got_amp.sum(), Fa.sum() * Ga.sum()))


def check_mixing(space, verdict):
    return expect(f"mixing {space}: verdict {verdict}", verdict == MIXING_VERDICTS[space])


def check_causality(axiom, margin):
    errs = expect("causality: I^2 - 1 or I^dag - I not exactly 0",
                  axiom["I_squared_residual"] == 0.0 and axiom["I_hermiticity_residual"] == 0.0)
    errs += expect("causality: Krein residual not finite", math.isfinite(axiom["krein_residual"]))
    return errs + expect(f"causality: cone margin {margin!r} < -{CONE_TOL:g}",
                         margin >= -CONE_TOL)


def check_rows(rep):
    """Every row passes with a finite residual; exact identities read exactly 0."""
    errs = [f"report row {r['check']}: failed or non-finite residual {r['residual']!r}"
            for r in rep["rows"] if not (r["passed"] and math.isfinite(r["residual"]))]
    errs += expect("report: passed flag or counts are off",
                   rep["passed"] is True and rep["n_failed"] == 0
                   and rep["n_checks"] == len(rep["rows"]))
    exact = [r for r in rep["rows"] if r["suite"] in ("hopf", "twist") or r["check"] in
             ("basis-delta_rule", "basis-involution", "basis-orthonormality",
              "partition-of-unity-diagonal", "fundamental-symmetry-exact")]
    errs += [f"report row {r['check']}: residual {r['residual']!r} is not exactly 0"
             for r in exact if r["residual"] != 0.0]
    return errs + [f"report row {r['check']}: cone margin {r['residual']!r}"
                   for r in rep["rows"]
                   if r["check"].startswith("cone-pass") and r["residual"] < -CONE_TOL]


def check_paper(rows):
    """Mixing verdicts, diagram counts and the dimension zero set, as printed."""
    errs = []
    for space in MIXING_VERDICTS:
        errs += check_mixing(space, rows[f"verdict-{space}"]["detail"])
    for field, want in DIAGRAM_COUNTS.items():
        got = rows[f"diagram-count-{field}"]["detail"]
        errs += expect(f"diagram count {field}: {got} != {want}", got == want)
    return errs + expect("dimension zero set is not [4]",
                         rows["dimension-constraint-zero-set"]["detail"] == "[4]")


# ---------------------------------------------------------------------------
# negative controls

def negative_controls() -> list:
    """Names of check families that fail to reject a deliberately wrong output."""
    from qstkit import momentum as M
    from qstkit import waves as W
    from qstkit.cli import RunConfig, run_suite

    rng = np.random.default_rng(12345)
    P, Q = rng.normal(size=(8, 4)), rng.normal(size=(8, 4))
    P5, Q5 = rng.normal(size=(8, 5)), rng.normal(size=(8, 5))

    def perturbed(X):
        X = X.copy()
        X[3, 2] += 1e-6
        return X

    p3, q3 = rng.normal(size=(8, 3)) * 0.3, rng.normal(size=(8, 3)) * 0.3
    su2 = M.add_batch(M.group_preset("su2_lambda"), p3, q3)
    p, q = P[0], Q[0].copy()
    q[0] = -p[0]
    k = np.array([0.3, *((p[1:] + math.exp(-(p[0] + 0.3)) * q[1:]) / (1 - math.exp(-p[0])))])
    F, G = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
    Fa, Ga = rng.normal(size=3) + 0j, rng.normal(size=2) + 0j
    prod = [(r, a) for r, a in zip(kappa_add(np.repeat(F, 2, axis=0), np.tile(G, (3, 1))),
                                   np.outer(Fa, Ga).ravel())]
    prod[4] = (prod[4][0], prod[4][1] * (1 + 1e-9))
    ids = {"delta_rule": 0.0, "involution": 0.0, "orthonormality": 1e-15, "associativity": 0.0}
    part = {"positivity_witness_error": 0.0, "unity_reconstruction_error": 0.0,
            "diagonal_commutation_error": 0.0}
    bessel = {"rows": [{"d": d, "m": m, "kappa": kp, "oracle": 0.5 * bessel_closed_form(m, kp, d),
                        "closed_form": bessel_closed_form(m, kp, d) * (1 + 1e-9 * (m == kp == 2))}
                       for d in (2, 3) for m in (1, 2) for kp in (1, 2)]}
    hopf = {"passed": True, "relations": {},
            "generators": {"E": {"coassociativity": True, "counit": True, "coinverse": False}}}
    _, rep = run_suite("matrix", RunConfig(seed=1))
    rep["rows"][-1]["residual"] = float("nan")
    paper = {f"verdict-{s}": {"detail": v} for s, v in MIXING_VERDICTS.items()}
    paper.update({f"diagram-count-{f}": {"detail": v} for f, v in DIAGRAM_COUNTS.items()})
    paper["dimension-constraint-zero-set"] = {"detail": "[4]"}
    paper["verdict-kappa"] = {"detail": "MIXING"}
    g = M.group_preset("kappa_minkowski", d=3)
    f = W.WavePacket(g, [(m, 1.0 + i) for i, m in enumerate(F)])
    h = W.WavePacket(g, [(g.inv(m), 2.0 - i) for i, m in enumerate(F)])
    plain_cyclicity = W.integral_star(f, h).equals(W.integral_star(h, f))

    controls = {
        "kappa law": expect_close("", perturbed(kappa_add(P, Q)), kappa_add(P, Q)),
        "rho law": expect_close("", perturbed(rho_add(P, Q)), rho_add(P, Q)),
        "moyal law": expect_close("", perturbed(moyal_add(P5, Q5)), moyal_add(P5, Q5)),
        "su2 scalar identity": expect(
            "", float(np.max(su2_scalar_residual(p3, q3, su2 * (1 + 1e-6)))) <= LAW_TOL),
        "modular": expect_close("", kappa_modular(p, 3) * (1 + 1e-9), kappa_modular(p, 3)),
        "delta-solve": check_delta_solve(k + np.array([0, 0, 1e-6, 0]), p, q, 0.3, True),
        "star": check_star(prod, F, Fa, G, Ga),
        "twisted trace (no E^d twist on kappa)": expect("", plain_cyclicity),
        "hopf": check_hopf(hopf),
        "matrix": check_matrix(ids, part, 32),
        "bessel": check_bessel(bessel, [1, 2]),
        "dimension scan": check_dim_scan({"zero_set": [4], "deviations": {5: 1e-9}}, 1.0),
        "mixing": check_mixing("kappa", "MIXING"),
        "causality": check_causality({"I_squared_residual": 0.0, "I_hermiticity_residual": 0.0,
                                      "krein_residual": 1e-3}, -1e-6),
        "report rows (NaN residual)": check_rows(rep),
        "paper values": check_paper(paper),
    }
    return [name for name, errs in controls.items() if not errs]
