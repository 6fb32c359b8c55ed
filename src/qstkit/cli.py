"""Batch front-end: config parsing, suite dispatch, CSV/JSON reports.

Reports are deterministic for a fixed seed: every row carries a stable
check-id slug, a pass/fail flag and a residual.  Every command takes one
path: argparse and `PARAMS` check the input, a `COMMANDS` handler returns
(document, rows or None), `_emit` writes it once.  The rows are the one
verdict: exit 0 when there are none or every row passed, 1 when a row
failed, 2 on a usage/config error.

At import the module loads numpy and the group modules (`liestructure`,
`momentum`), which config parsing and `group` need.  Each `suite_<name>`
and command handler imports the kernel modules it runs, so a one-shot
command compiles and loads only those; `loop`, and with it scipy, only
for `loop` and `suite mixing`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .liestructure import StructureConstants, jacobi_check, recover_from_group_law
from .momentum import (add, delta_solve_nonplanar, group_from_structure, group_preset,
                       haar_invariance_check, inv, modular, modular_identity_residuals)

DEFAULT_TOLERANCES = {
    "group.assoc": 1e-9,
    "group.identity": 1e-12,
    "group.haar": 1e-8,
    "group.modular": 1e-10,
    "gauge.residual": 1e-12,
    "matrix.roundoff": 1e-13,
}

MAX_POINTS = 1000  # points of a --v, --d-range or --lambda-grid range
MAX_N = 1024       # matrix-basis --N: identity_checks multiplies 40 pairs of dense N x N matrices
MAX_GRID = 8192    # causality --grid: 8x kernel_scale's n; cone_condition holds n x 200 states
MAX_SAMPLES = 10 ** 6  # samples: suite_group draws samples x 3 x dim normals
MAX_DIM = 64       # d and a structure's dim: a structure allocates dim^3 constants


class ConfigError(ValueError, argparse.ArgumentTypeError):
    """A bad parameter or option; as an ArgumentTypeError, argparse reports its message."""


@dataclass
class RunConfig:
    kappa: float = 1.0
    theta: float = 1.0
    rho: float = 1.0
    lam: float = 1.0
    d: int = 3
    seed: int = 0
    samples: int = 400
    out: str = ""
    fmt: str = "json"
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    inline_structure: StructureConstants = None


def _scalar(typ, ok, domain):
    """The check of a scalar parameter: a `typ` for which `ok` holds, else ConfigError.

    It takes a JSON value at the key path `where` (a JSON bool is no number), or
    text from a flag or the environment when `where` is not a key path.
    """
    def check(val, where=""):
        at = f"{where}: " if where else ""
        try:
            if isinstance(val, str) and not where.startswith("/"):
                val = typ(val)
            if isinstance(val, bool) or not isinstance(val, (int, float) if typ is float else typ):
                raise TypeError
            val = typ(val)  # OverflowError: an integer beyond the float range
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{at}expected {typ.__name__}, got {val!r}") from None
        if not ok(val):
            raise ConfigError(f"{at}must be {domain}, got {val!r}")
        return val
    return check


_DIM = _scalar(int, lambda v: 1 <= v <= MAX_DIM, f"between 1 and {MAX_DIM}")
_NONZERO = _scalar(float, lambda v: np.isfinite(v) and v != 0, "finite and nonzero")
_NON_NEGATIVE = _scalar(float, lambda v: np.isfinite(v) and v >= 0, "finite and non-negative")


def _tolerances(val, where, base=DEFAULT_TOLERANCES):
    """The tolerances of a config object, or of --tol-override texts, over `base`."""
    if not isinstance(val, dict):
        raise ConfigError(f"{where}: must be an object")
    tols = dict(base)
    for key, tol in val.items():
        if key not in tols:
            raise ConfigError(f"{where}/{key}: unknown tolerance key")
        tols[key] = _NON_NEGATIVE(tol, f"{where}/{key}")
    return tols


def _structure(val, where):
    """A config's inline structure constants; the dim is checked before anything is allocated."""
    if isinstance(val, dict) and "dim" in val:
        _DIM(val["dim"], f"{where}/dim")
    try:
        return StructureConstants.from_json(json.dumps(val))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"{where}: not a structure-constant object ({exc!r})") from None


def _parse_reals(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise ConfigError(f"expected comma-separated reals, got {text!r}") from None


def _parse_mk_grid(text: str) -> tuple:
    """The m and kappa values of `loop bessel-check --grid`."""
    vals = _parse_reals(text)
    if not (np.isfinite(vals).all() and (vals > 0).all()):
        raise ConfigError(f"m and kappa must be finite and positive, got {text!r}")
    return tuple(vals.tolist())


def _parse_v_range(text: str) -> list:
    """The velocities lo, lo + step, ... up to hi of a `--v lo:hi:step` range."""
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ConfigError(f"expected lo:hi:step, got {text!r}") from None
    if not (np.isfinite([lo, hi, step]).all() and step > 0):
        raise ConfigError(f"lo and hi must be finite and step positive, got {text!r}")
    vs, v = [], lo
    while v <= hi + 1e-12:
        if len(vs) == MAX_POINTS:
            raise ConfigError(f"{text!r} gives more than {MAX_POINTS} velocities")
        vs.append(v)
        v += step
    return vs


def _parse_d_range(text: str) -> range:
    """The dimensions lo..hi (inclusive) of a `--d-range lo:hi` option."""
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise ConfigError(f"expected integers lo:hi, got {text!r}") from None
    if not 1 <= lo <= hi < lo + MAX_POINTS:
        raise ConfigError(f"need 1 <= lo <= hi and at most {MAX_POINTS} dimensions, got {text!r}")
    return range(lo, hi + 1)


def _parse_lambda_grid(text: str) -> np.ndarray:
    """The geometric cutoff grid of a `--lambda-grid lo:hi:n` option.

    The divergence slope is fitted on the upper half of the grid, so it needs
    n >= 3 (two fitted points) and lo < hi.
    """
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ConfigError(f"expected lo:hi:n, got {text!r}") from None
    if not (np.isfinite([lo, hi]).all() and 0 < lo < hi and 3 <= n <= MAX_POINTS):
        raise ConfigError(f"need finite 0 < lo < hi and 3 <= n <= {MAX_POINTS}, got {text!r}")
    return np.geomspace(lo, hi, n)


# Every run parameter (a config key) and command option: the RunConfig field
# it sets, None for a command option, and its check.  A check takes a JSON
# value at a key path, or a flag's text as the argparse `type=`.
PARAMS = {
    "kappa": ("kappa", _scalar(float, lambda v: np.isfinite(v) and v > 0, "finite and positive")),
    "theta": ("theta", _NONZERO),
    "rho": ("rho", _NONZERO),
    "lam": ("lam", _NONZERO),
    "d": ("d", _DIM),
    "seed": ("seed", _scalar(int, lambda v: v >= 0, "at least 0")),
    "samples": ("samples", _scalar(int, lambda v: 1 <= v <= MAX_SAMPLES,
                                   f"between 1 and {MAX_SAMPLES}")),
    "out": ("out", _scalar(str, lambda v: True, "a path")),
    "format": ("fmt", _scalar(str, lambda v: v in ("json", "csv"), "json or csv")),
    "tolerances": ("tolerances", _tolerances),
    "structure": ("inline_structure", _structure),
    "N": (None, _scalar(int, lambda v: 1 <= v <= MAX_N, f"between 1 and {MAX_N}")),
    "grid": (None, _scalar(int, lambda v: v <= MAX_GRID, f"at most {MAX_GRID}")),
    "mass": (None, _NON_NEGATIVE),
    "v": (None, _parse_v_range),
    "d-range": (None, _parse_d_range),
    "lambda-grid": (None, _parse_lambda_grid),
    "mk-grid": (None, _parse_mk_grid),
}


def parse_config(text: str) -> RunConfig:
    """Validated RunConfig from JSON; errors name the offending key path."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("/: config must be a JSON object")
    cfg = RunConfig()
    for key, val in data.items():
        attr, check = PARAMS.get(key, (None, None))
        if attr is None:
            raise ConfigError(f"/{key}: unknown key")
        setattr(cfg, attr, check(val, f"/{key}"))
    return cfg


def _row(suite, check, passed, residual=0.0, detail=""):
    """One report row; a residual that is not finite fails it."""
    residual = float(residual)
    return {"suite": suite, "check": check, "passed": bool(passed and np.isfinite(residual)),
            "residual": residual, "detail": detail}


def _rows(suite, checks):
    """The rows of one suite from its (check, passed[, residual[, detail]]) tuples."""
    return [_row(suite, *c) for c in checks]


def _all_passed(rows):
    """The verdict of a report: every row passed."""
    return all(r["passed"] for r in rows)


def _worst(*residuals):
    """Largest of the residuals, scalars or arrays; NaN if any is NaN or there are none.

    A NaN residual must fail its row: the builtin max would drop it.  So must
    a check over no samples, which has shown nothing.
    """
    flat = np.concatenate([np.ravel(r) for r in residuals] or [[]])
    return float(np.max(flat)) if flat.size else np.nan


# ---------------------------------------------------------------------------
# suite bodies

def _preset_groups(cfg: RunConfig):
    """(label, group) pairs; the label makes the group suite's check ids unique."""
    return [
        ("kappa_minkowski-d1", group_preset("kappa_minkowski", kappa=cfg.kappa, d=1)),
        ("kappa_minkowski", group_preset("kappa_minkowski", kappa=cfg.kappa, d=3)),
        ("moyal_extended", group_preset("moyal_extended", theta=cfg.theta)),
        ("rho_minkowski", group_preset("rho_minkowski", rho=cfg.rho)),
        ("su2_lambda", group_preset("su2_lambda", lam=cfg.lam)),
    ]


def suite_group(cfg: RunConfig):
    checks = []
    rng = np.random.default_rng(cfg.seed)
    tol = cfg.tolerances
    for label, g in _preset_groups(cfg):
        # su2 draws stay inside the chart, |p| < 2 pi / |lam|, where add(p, inv(p)) = 0
        scale = 0.3 / abs(cfg.lam) if g.name == "su2_lambda" else 1.0
        # sample-major draws: the same stream as one (p, q, r) triple per sample
        p, q, r = np.moveaxis(rng.normal(size=(cfg.samples, 3, g.dim)) * scale, 1, 0)
        lhs = g.add(g.add(p, q), r)
        rhs = g.add(p, g.add(q, r))
        den = 1.0 + np.maximum(np.max(np.abs(lhs), axis=-1), np.max(np.abs(rhs), axis=-1))
        worst_a = _worst(np.max(np.abs(lhs - rhs), axis=-1) / den)
        worst_i = _worst(np.abs(g.add(p, g.inv(p))), np.abs(g.add(p, np.zeros_like(p)) - p))
        checks.append((f"associativity-{label}", worst_a < tol["group.assoc"], worst_a))
        checks.append((f"identity-inverse-{label}", worst_i < tol["group.identity"], worst_i))
        p, q = np.moveaxis(rng.normal(size=(max(10, cfg.samples // 10), 2, g.dim)) * scale, 1, 0)
        worst_h = _worst(haar_invariance_check(g, q, p, "left"),
                         haar_invariance_check(g, q, p, "right"))
        worst_m = _worst(*modular_identity_residuals(g, p, q).values())
        checks.append((f"haar-invariance-{label}", worst_h < tol["group.haar"], worst_h))
        checks.append((f"modular-homomorphism-{label}", worst_m < tol["group.modular"], worst_m))
        sc = g.structure
        jc = jacobi_check(sc)
        checks.append((f"jacobi-{label}", jc["passed"], jc["max_violation"]))
        try:  # the finite-difference Hessian gives up where the law is too curved for its step
            rec = recover_from_group_law(g)
        except ArithmeticError as exc:
            err, detail = np.nan, str(exc)
        else:
            err, detail = float(np.max(np.abs(rec.C - sc.C))), ""
        checks.append((f"structure-roundtrip-{label}", err < 1e-6, err, detail))
    # noncommutativity witness on kappa
    gk = group_preset("kappa_minkowski", kappa=cfg.kappa, d=1)
    p = np.array([np.log(2.0), 0.0])
    q = np.array([0.0, 1.0])
    diff = float(np.max(np.abs(np.asarray(gk.add(p, q)) - np.asarray(gk.add(q, p)))))
    checks.append(("noncommutativity-witness-kappa", diff > 1e-6, diff))
    if cfg.inline_structure is not None:
        jc = jacobi_check(cfg.inline_structure)
        anti = cfg.inline_structure.antisymmetry_violation()
        checks.append(("jacobi-inline-structure", jc["passed"] and anti <= 1e-12,
                       _worst(jc["max_violation"], anti)))
    return _rows("group", checks)


def _hopf_checks(rep):
    """The checks of an `HA.full_suite()` report: the axioms per generator, then the relations."""
    checks = [(f"axioms-{name}", r["passed"], 0.0 if r["passed"] else 1.0)
              for name, r in rep["generators"].items()]
    bad = [n for n, r in rep["relations"].items() if not r["passed"]]
    checks.append(("bialgebra-compatibility-all-relations", not bad, float(len(bad)),
                   ",".join(bad)))
    return checks


def suite_hopf(cfg: RunConfig):
    from . import hopf_algebra as HA
    return _rows("hopf", _hopf_checks(HA.full_suite())
                 + [("E-vs-P0-series-consistency", HA.e_series_consistency(5))])


def suite_twist(cfg: RunConfig):
    from . import twist as TW
    F = TW.abelian_twist(4)
    chk = TW.twist_check(F)
    st = TW.twisted_structures(F)
    return _rows("twist", [
        ("two-cocycle-order4", chk["two_cocycle"]),
        ("normalization", chk["normalization"]),
        ("semiclassical", chk["semiclassical"]),
        ("triangularity", st["triangular"]),
        ("quantum-yang-baxter", st["quantum_yang_baxter"]),
        ("braided-commutativity", st["braided_commutative"]),
    ])


def _random_packets(WV, g, rng, n_terms=5, with_inverses=True):
    def packet(moms):
        amps = rng.normal(size=(len(moms), 2))  # (re, im) per term, in term order
        return WV.WavePacket(g, list(zip(moms, amps[:, 0] + 1j * amps[:, 1])))

    moms = rng.normal(size=(n_terms, g.dim))
    f = packet(moms)
    pool = list(g.inv(moms[: n_terms // 2 + 1])) if with_inverses else []
    pool += list(rng.normal(size=(n_terms - len(pool), g.dim)))
    return f, packet(pool)


def suite_trace(cfg: RunConfig):
    from . import waves as WV
    checks = []
    rng = np.random.default_rng(cfg.seed)
    gk = group_preset("kappa_minkowski", kappa=cfg.kappa, d=3)
    ok = all(WV.twisted_trace_check(*_random_packets(WV, gk, rng)) for _ in range(100))
    checks.append(("twisted-trace-kappa", ok))
    for name, g in (("rho", group_preset("rho_minkowski", rho=cfg.rho)),
                    ("moyal", group_preset("moyal_extended", theta=cfg.theta))):
        ok = all(WV.twisted_trace_check(*_random_packets(WV, g, rng)) for _ in range(30))
        checks.append((f"plain-cyclicity-{name}", ok))
    return _rows("trace", checks)


def _matrix(cfg: RunConfig, N: int):
    """The matrix-basis checks at truncation N and their rows, judged at `matrix.roundoff`."""
    from . import moyal_matrix as MM
    ids = MM.identity_checks(N, cfg.theta, seed=cfg.seed)
    part = MM.partition_check(N, cfg.theta, seed=cfg.seed)
    tol = cfg.tolerances["matrix.roundoff"]
    checks = [(f"basis-{k}", v <= tol, v) for k, v in ids.items()]
    checks.append(("partition-of-unity-diagonal", part["passed"],
                   max(part["positivity_witness_error"],
                       part["unity_reconstruction_error"],
                       part["diagonal_commutation_error"])))
    return ids, part, _rows("matrix", checks)


def suite_matrix(cfg: RunConfig):
    return _matrix(cfg, 32)[2]


def suite_mixing(cfg: RunConfig):
    from . import loop as LO
    checks = []
    for space, expected in (("moyal", "MIXING"), ("kappa", "NO_MIXING"),
                            ("commutative", "NO_MIXING")):
        if space == "kappa":
            rep = LO.mixing_classify("kappa", kappa=cfg.kappa, d=cfg.d)
        else:
            rep = LO.mixing_classify(space)
        checks.append((f"verdict-{space}", rep.verdict == expected, 0.0, rep.verdict))
    cmpr = LO.bessel_oracle_compare()
    checks.append(("bessel-ratio-constancy", cmpr["passed"], cmpr["max_rel_dev"]))
    mm = LO.moyal_nonplanar(np.array([1.0, 0, 0, 0]),
                            group_preset("moyal_extended", theta=cfg.theta).meta["Theta"],
                            1.0, 100.0)
    checks.append(("moyal-schwinger-vs-bessel", mm["rel_err"] < 1e-6, mm["rel_err"]))
    for f, expect in (("real_phi4", (12, 8, 4)), ("charged_orientable", (4, 4, 0)),
                      ("charged_nonorientable", (4, 2, 2))):
        c = LO.diagram_counts(f)
        ok = (c["total"], c["planar"], c["nonplanar"]) == expect
        checks.append((f"diagram-count-{f}", ok, 0.0,
                       f"{c['total']}={c['planar']}p+{c['nonplanar']}np"))
    return _rows("mixing", checks)


_P0_SAMPLES = [0.25, 0.5, 1.0, -0.75]  # the p0 values of the dimension-constraint scan
_SW_THETA = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]


def _sw_field():
    """The default Seiberg–Witten gauge field of `gauge sw` and the gauge suite."""
    from . import gauge as GA, polyfield as PF
    x = [PF.Poly.var(4, i) for i in range(4)]
    return GA.PolyGaugeField([x[1] * x[2], x[0].scale(2), PF.Poly.const(4, 1), x[0] * x[3]])


def suite_gauge(cfg: RunConfig):
    from . import gauge as GA, polyfield as PF, waves as WV
    checks = []
    rng = np.random.default_rng(cfg.seed)
    g = group_preset("kappa_minkowski", kappa=cfg.kappa, d=3)
    tol = cfg.tolerances["gauge.residual"]
    leibniz, reality = [], []
    for _ in range(20):
        f = WV.plane_wave(g, rng.normal(size=4), rng.normal() + 1j * rng.normal())
        h = WV.plane_wave(g, rng.normal(size=4), rng.normal() + 1j * rng.normal())
        for mu in range(4):
            leibniz.append(GA.twisted_leibniz_residual(mu, f, h))
            reality.append(GA.twisted_reality_residual(mu, f + h))
    worst_l, worst_r = _worst(leibniz), _worst(reality)
    checks.append(("twisted-leibniz", worst_l < tol, worst_l))
    checks.append(("twisted-reality", worst_r < tol, worst_r))
    covariance, flatness = [], []
    for _ in range(5):
        u = WV.plane_wave(g, rng.normal(size=4))
        A = GA.GaugeField([WV.plane_wave(g, rng.normal(size=4), rng.normal() + 1j * rng.normal())
                           for _ in range(4)])
        covariance.append(GA.covariance_residual(A, u))
        F = GA.field_strength(GA.gauge_transform(GA.GaugeField([WV.WavePacket(g)] * 4), u))
        flatness += [F[m][n].norm() for m in range(4) for n in range(4)]
    worst_c, worst_f = _worst(covariance), _worst(flatness)
    checks.append(("field-strength-covariance", worst_c < tol, worst_c))
    checks.append(("pure-gauge-flatness", worst_f < tol, worst_f))
    scan = GA.dimension_constraint_scan(range(1, 9), cfg.kappa, _P0_SAMPLES)
    checks.append(("dimension-constraint-zero-set", scan["zero_set"] == [4],
                   0.0, str(scan["zero_set"])))
    A = _sw_field()
    alpha = PF.Poly.var(4, 0) * PF.Poly.var(4, 1) + PF.Poly.var(4, 2).scale(3)
    res = GA.sw_consistency_residual(A, alpha, _SW_THETA)
    checks.append(("sw-consistency-identically-zero", all(r.is_zero() for r in res)))
    F1 = GA.sw_field_strength_order1(A, _SW_THETA)
    F2 = GA.sw_field_strength_from_hat(A, _SW_THETA)
    ok = all((F1[m][n] - F2[m][n]).is_zero() for m in range(4) for n in range(4))
    checks.append(("sw-field-strength-two-path", ok))
    return _rows("gauge", checks)


def _causality_grid(cfg: RunConfig, n: int, scheme: str = "spectral"):
    """The n-point causality grid over p0 in [-W, W), W = max(10, 10 / kappa)."""
    from . import causality as CA
    return CA.GridSpec(n, max(10.0, 10.0 / cfg.kappa), scheme)


def suite_causality(cfg: RunConfig):
    from . import causality as CA
    checks = []
    grid = _causality_grid(cfg, 256)
    ax = CA.lorentzian_axiom_check(grid, cfg.kappa, seed=cfg.seed)
    checks.append(("fundamental-symmetry-exact",
                   ax["I_squared_residual"] == 0.0 and ax["I_hermiticity_residual"] == 0.0))
    g1 = _causality_grid(cfg, 128, "central")
    g2 = _causality_grid(cfg, 256, "central")
    r1 = CA.lorentzian_axiom_check(g1, cfg.kappa, seed=cfg.seed)["krein_residual"]
    r2 = CA.lorentzian_axiom_check(g2, cfg.kappa, seed=cfg.seed)["krein_residual"]
    checks.append(("krein-residual-refinement", r1 / r2 >= 2.0, r2, f"ratio={r1 / r2:.2f}"))
    for v in (-1.0, -0.5, 0.0, 0.5, 1.0):
        r = CA.cone_condition(grid, cfg.kappa, 1, 1.0, v, n_states=200, seed=cfg.seed)
        checks.append((f"cone-pass-v{v:+.1f}", r["passed"], r["margin"]))
    psi = CA.gaussian_state(grid, 0.4, 1.0)
    t = 0.6
    psi2 = CA.normalize(psi * np.exp(1j * t * grid.points()), grid)
    err = abs(CA.sll_margin(psi, psi2, grid, cfg.kappa) - t)
    checks.append(("sll-margin-phase-shift", err < 1e-8, err))
    return _rows("causality", checks)


SUITE_FUNCS = {
    "group": suite_group,
    "hopf": suite_hopf,
    "twist": suite_twist,
    "trace": suite_trace,
    "matrix": suite_matrix,
    "mixing": suite_mixing,
    "gauge": suite_gauge,
    "causality": suite_causality,
}
SUITES = (*SUITE_FUNCS, "all")


def run_suite(name: str, cfg: RunConfig):
    """Run one named suite (or all); returns (exit_code, report dict)."""
    if name not in SUITES:
        return 2, {"error": f"unknown suite {name!r}"}
    names = list(SUITE_FUNCS) if name == "all" else [name]
    rows = []
    for s in names:
        rows.extend(SUITE_FUNCS[s](cfg))
    passed = _all_passed(rows)
    report = {
        "suites": names,
        "seed": cfg.seed,
        "rows": rows,
        "passed": passed,
        "n_checks": len(rows),
        "n_failed": sum(1 for r in rows if not r["passed"]),
    }
    return (0 if passed else 1), report


# ---------------------------------------------------------------------------
# command handlers: (args, cfg) -> (JSON document, rows or None)

def _cmd_suite(args, cfg):
    _, report = run_suite(args.name, cfg)
    return report, report["rows"]


def _real(x, op):
    """x as a float vector; a nonzero imaginary part is an error, never dropped."""
    x = np.asarray(x)
    if np.iscomplexobj(x) and np.any(x.imag):
        raise ValueError(f"group {op}: the result is complex for these inputs")
    return np.real(x).astype(float)


def _cmd_group(args, cfg):
    """One momentum-group operation; ValueError on bad input or a non-finite result."""
    if args.space == "inline":
        if cfg.inline_structure is None:
            raise ValueError("--space inline needs a --config with a 'structure'")
        grp = group_from_structure(cfg.inline_structure)
    else:
        grp = group_preset(args.space, kappa=cfg.kappa, theta=cfg.theta,
                           rho=cfg.rho, lam=cfg.lam, d=cfg.d)
    p, q = args.p, args.q
    if q is None and args.op not in ("inv", "modular"):
        raise ValueError(f"group {args.op}: --q is required")
    with np.errstate(all="ignore"):  # an overflow is reported below, as one error line
        if args.op == "inv":
            res = _real(inv(grp, p), args.op)
            out = {"result": list(res), "residual": float(np.max(np.abs(add(grp, p, res))))}
        elif args.op == "modular":
            out = {"result": modular(grp, p), "residual": 0.0}
        elif args.op == "add":
            out = {"result": list(_real(add(grp, p, q), args.op)), "residual": 0.0}
        elif args.op == "haar-check":
            out = {"result": None, "residual": _worst(haar_invariance_check(grp, q, p, "left"),
                                                      haar_invariance_check(grp, q, p, "right"))}
        else:
            r = delta_solve_nonplanar(grp, p, q, args.k0)
            out = {"result": None if r.k is None else list(map(float, r.k)),
                   "residual": r.residual, "ok": r.ok, "reason": r.reason}
    for key in ("result", "residual"):
        if out[key] is not None and not np.isfinite(out[key]).all():
            raise ValueError(f"group {args.op}: the {key} is not finite for these inputs")
    return out, None


def _cmd_hopf(args, cfg):
    from . import hopf_algebra as HA
    rep = HA.full_suite()
    doc = {"passed": rep["passed"],
           "generators": {k: {a: v[a] for a in ("coassociativity", "counit", "coinverse")}
                          for k, v in rep["generators"].items()},
           "relations": {k: {a: v[a] for a in ("coproduct", "counit", "antipode")}
                         for k, v in rep["relations"].items()}}
    return doc, _rows("hopf", _hopf_checks(rep))


def _cmd_matrix(args, cfg):
    ids, part, rows = _matrix(cfg, args.N)
    return {"N": args.N, "identities": ids, "partition": part, "passed": _all_passed(rows)}, rows


def _cmd_loop(args, cfg):
    from . import loop as LO
    if args.op == "mixing":
        rep = LO.mixing_classify(args.space, mass=args.mass, kappa=cfg.kappa,
                                 theta=cfg.theta, d=cfg.d, lambda_grid=args.lambda_grid)
        ok = rep.verdict != "INCONCLUSIVE"
        rows = [_row("mixing", f"lambda-{L:g}", ok and conv, v, rep.verdict)
                for L, v, conv in rep.evidence["planar_sweep"]["rows"]]
        return rep.as_dict(), rows
    rep = LO.bessel_oracle_compare(ms=args.grid, kappas=args.grid)
    rows = [_row("bessel", f"d{r['d']}-m{r['m']:g}-k{r['kappa']:g}", r["passed"], r["ratio"])
            for r in rep["rows"]]
    return rep, rows


def _cmd_gauge(args, cfg):
    from . import gauge as GA
    if args.op == "sw":
        if args.input:
            with open(args.input) as fh:
                A = GA.poly_field_from_json(fh.read())
        else:
            A = _sw_field()
        return {"A_hat": GA.poly_field_to_jsonable(GA.sw_map_order1(A, _SW_THETA))}, None
    scan = GA.dimension_constraint_scan(args.d_range, cfg.kappa, _P0_SAMPLES)
    bad = [d for d, dev in scan["deviations"].items() if not np.isfinite(dev)]
    if bad:
        raise ValueError(f"gauge dim-scan: the deviation is not finite for d = {bad[0]} "
                         f"at kappa = {cfg.kappa}")
    # the prefactor is 1 for every p0 at d = 4 and at no other d
    rows = [_row("gauge", f"dim-{d}", (dev == 0.0) == (d == 4), dev)
            for d, dev in sorted(scan["deviations"].items())]
    return scan, rows


def _cmd_causality(args, cfg):
    from . import causality as CA
    grid = _causality_grid(cfg, args.grid)
    grid.validate_kappa(cfg.kappa)  # a GridError is a usage error
    rows = []
    for v in args.v:
        r = CA.cone_condition(grid, cfg.kappa, 1, 1.0, v, seed=cfg.seed)
        rows.append(_row("causality", f"cone-v{v:+.2f}", r["passed"], r["margin"]))
    return {"rows": rows, "passed": _all_passed(rows)}, rows


COMMANDS = {
    "suite": _cmd_suite,
    "group": _cmd_group,
    "hopf": _cmd_hopf,
    "matrix-basis": _cmd_matrix,
    "loop": _cmd_loop,
    "gauge": _cmd_gauge,
    "causality": _cmd_causality,
}


# the options that only some ops of a command take: option -> (default, those ops);
# argparse leaves out the options not given
_OP_OPTIONS = {
    "group": {"q": (None, ("add", "haar-check", "delta-solve")), "k0": (0.0, ("delta-solve",))},
    "loop": {"space": ("kappa", ("mixing",)), "mass": (1.0, ("mixing",)),
             "lambda_grid": (None, ("mixing",)), "grid": ((0.5, 1.0, 2.0), ("bessel-check",))},
    "gauge": {"d_range": (range(1, 9), ("dim-scan",)), "input": (None, ("sw",))},
}


def _op_options(args):
    """Set the defaults of the options not given; an option that `args.op` does not take is an error."""
    for name, (default, ops) in _OP_OPTIONS.get(args.cmd, {}).items():
        if name not in args:
            setattr(args, name, default)
        elif args.op not in ops:
            raise ConfigError(f"{args.cmd} {args.op} takes no --{name.replace('_', '-')} "
                              f"(only {args.cmd} {'|'.join(ops)} does)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Raise into `main`'s one `error:` line instead of printing a usage block."""
        raise ConfigError(message)


def _parser() -> argparse.ArgumentParser:
    S = argparse.SUPPRESS
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=S, help="JSON run configuration")
    for name in ("seed", "out", "format", "kappa", "theta", "d"):
        common.add_argument(f"--{name}", type=PARAMS[name][1], default=S)
    common.add_argument("--tol-override", action="append", default=S, metavar="key=val")

    ap = _Parser(prog="qstkit", parents=[common], description="quantum space-time toolkit")
    sub = ap.add_subparsers(dest="cmd", metavar="command", required=True,
                            parser_class=lambda **kw: _Parser(parents=[common], **kw))

    g = sub.add_parser("group", help="momentum-group operations")
    g.add_argument("op", choices=("add", "inv", "modular", "haar-check", "delta-solve"))
    g.add_argument("--space", default="kappa_minkowski")
    g.add_argument("--p", type=_parse_reals, required=True)
    g.add_argument("--q", type=_parse_reals, default=S, help="add, haar-check, delta-solve")
    g.add_argument("--k0", type=float, default=S, help="delta-solve")

    ho = sub.add_parser("hopf", help="kappa-Poincare Hopf axiom suite")
    ho.add_argument("check", nargs="?", default="check", choices=("check",))

    mb = sub.add_parser("matrix-basis", help="Moyal matrix-basis checks")
    mb.add_argument("--N", type=PARAMS["N"][1], default=32)

    lo = sub.add_parser("loop", help="one-loop diagnostics")
    lo.add_argument("op", choices=("mixing", "bessel-check"))
    lo.add_argument("--space", default=S, help="mixing: moyal, kappa or commutative")
    lo.add_argument("--mass", type=PARAMS["mass"][1], default=S, help="mixing")
    lo.add_argument("--lambda-grid", type=PARAMS["lambda-grid"][1], default=S,
                    metavar="LO:HI:N", help="mixing")
    lo.add_argument("--grid", type=PARAMS["mk-grid"][1], default=S,
                    help="bessel-check: m,kappa values")

    ga = sub.add_parser("gauge", help="twisted gauge checks")
    ga.add_argument("op", choices=("dim-scan", "sw"))
    ga.add_argument("--d-range", type=PARAMS["d-range"][1], default=S, help="dim-scan")
    ga.add_argument("--input", default=S, help="sw: JSON polynomial gauge field")

    ca = sub.add_parser("causality", help="causal-cone scan")
    ca.add_argument("op", nargs="?", default="cone", choices=("cone",))
    ca.add_argument("--v", type=PARAMS["v"][1], default="-1:1:0.5")
    ca.add_argument("--grid", type=PARAMS["grid"][1], default=256)

    su = sub.add_parser("suite", help="run a verification suite")
    su.add_argument("name", choices=SUITES)
    return ap


def _config(args) -> RunConfig:
    """The run configuration: --config, then QSTKIT_SEED, then the flags argparse checked."""
    cfg = RunConfig()
    if "config" in args:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    if "seed" not in args and os.environ.get("QSTKIT_SEED"):
        cfg.seed = PARAMS["seed"][1](os.environ["QSTKIT_SEED"], "QSTKIT_SEED")
    for name, val in vars(args).items():
        attr = PARAMS.get(name, (None,))[0]
        if attr is not None:
            setattr(cfg, attr, val)
    overrides = dict(o.partition("=")[::2] for o in getattr(args, "tol_override", []))
    cfg.tolerances = _tolerances(overrides, "--tol-override", cfg.tolerances)
    return cfg


def _finite(doc):
    """`doc` with every non-finite float replaced by None, which JSON writes as null."""
    if isinstance(doc, dict):
        return {k: _finite(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite(v) for v in doc]
    return None if isinstance(doc, float) and not np.isfinite(doc) else doc


def _emit(doc, rows, fmt: str, out: str):
    """Write the report: the document as strict JSON, or the rows as CSV."""
    if fmt == "json":
        text = json.dumps(_finite(doc), sort_keys=True, indent=1, default=str,
                          allow_nan=False) + "\n"
    else:  # csv writes a float as its repr
        buf = io.StringIO()
        w = csv.DictWriter(buf, ["suite", "check", "passed", "residual", "detail"],
                           lineterminator="\r\n")
        w.writeheader()
        w.writerows(rows)
        text = buf.getvalue()
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        _op_options(args)
        cfg = _config(args)
        doc, rows = COMMANDS[args.cmd](args, cfg)
        if rows is None and cfg.fmt == "csv":
            raise ConfigError(f"{args.cmd} {args.op} has no CSV form; use --format json")
        _emit(doc, rows, cfg.fmt, cfg.out)
    except (OSError, ValueError) as exc:  # ConfigError, GridError and PresetError among them
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0 if rows is None or _all_passed(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
