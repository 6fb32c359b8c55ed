"""Batch front-end: config parsing, suite dispatch, CSV/JSON reports.

Reports are deterministic for a fixed seed: every row carries a stable
check-id slug, a pass/fail flag and a residual.  Exit codes: 0 all checks
pass, 1 a check failed, 2 usage/config error.
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

from . import causality as CA
from . import gauge as GA
from . import hopf_algebra as HA
from . import loop as LO
from . import moyal_matrix as MM
from . import twist as TW
from .liestructure import StructureConstants, jacobi_check, recover_from_group_law
from .momentum import (add, delta_solve_nonplanar, group_from_structure, group_preset,
                       haar_invariance_check, inv, modular, modular_identity_residuals)
from .polyfield import Poly
from .waves import WavePacket, plane_wave, twisted_trace_check

SUITES = ("group", "hopf", "twist", "trace", "matrix", "mixing", "gauge", "causality", "all")

DEFAULT_TOLERANCES = {
    "group.assoc": 1e-9,
    "group.identity": 1e-12,
    "group.haar": 1e-8,
    "group.modular": 1e-10,
    "gauge.residual": 1e-12,
    "matrix.roundoff": 1e-13,
    "causality.cone": 1e-8,
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    spacetime: str = "kappa_minkowski"
    kappa: float = 1.0
    theta: float = 1.0
    rho: float = 1.0
    lam: float = 1.0
    d: int = 3
    seed: int = 0
    jobs: int = 1
    samples: int = 400
    out: str = ""
    fmt: str = "json"
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    inline_structure: StructureConstants = None

    KEYS = ("spacetime", "kappa", "theta", "rho", "lam", "d", "seed", "jobs",
            "samples", "out", "format", "tolerances", "structure")


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
        if key not in RunConfig.KEYS:
            raise ConfigError(f"/{key}: unknown key")
        if key == "format":
            if val not in ("json", "csv"):
                raise ConfigError("/format: must be 'json' or 'csv'")
            cfg.fmt = val
        elif key == "tolerances":
            if not isinstance(val, dict):
                raise ConfigError("/tolerances: must be an object")
            for tk, tv in val.items():
                if tk not in DEFAULT_TOLERANCES:
                    raise ConfigError(f"/tolerances/{tk}: unknown tolerance key")
                cfg.tolerances[tk] = float(tv)
        elif key == "structure":
            cfg.inline_structure = StructureConstants.from_json(json.dumps(val))
        elif key in ("seed", "jobs", "samples", "d"):
            setattr(cfg, key, int(val))
        elif key in ("kappa", "theta", "rho", "lam"):
            setattr(cfg, key, float(val))
        else:
            setattr(cfg, key, val)
    known = ("kappa_minkowski", "moyal_extended", "rho_minkowski", "su2_lambda",
             "commutative", "inline")
    if cfg.spacetime not in known:
        raise ConfigError(f"/spacetime: unknown preset {cfg.spacetime!r}")
    return cfg


def _row(suite, check, passed, residual=0.0, detail=""):
    return {"suite": suite, "check": check, "passed": bool(passed),
            "residual": float(residual), "detail": detail}


def _worst(*residuals):
    """Largest of the residuals, scalars or arrays; NaN if any of them is NaN.

    A NaN residual must fail its row: the builtin max would drop it.
    """
    return float(np.max(np.concatenate([np.ravel(r) for r in residuals]), initial=0.0))


def _pmap(fn, items, jobs):
    """Deterministic parallel map: results returned in input order."""
    if jobs <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor  # and logging: only when --jobs > 1
    with ThreadPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, items))


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
    rows = []
    rng = np.random.default_rng(cfg.seed)
    tol_a = cfg.tolerances["group.assoc"]
    tol_i = cfg.tolerances["group.identity"]
    tol_h = cfg.tolerances["group.haar"]
    tol_m = cfg.tolerances["group.modular"]
    for label, g in _preset_groups(cfg):
        scale = 0.3 if g.name == "su2_lambda" else 1.0
        # sample-major draws: the same stream as one (p, q, r) triple per sample
        p, q, r = np.moveaxis(rng.normal(size=(cfg.samples, 3, g.dim)) * scale, 1, 0)
        lhs = g.add(g.add(p, q), r)
        rhs = g.add(p, g.add(q, r))
        den = 1.0 + np.maximum(np.max(np.abs(lhs), axis=-1), np.max(np.abs(rhs), axis=-1))
        worst_a = _worst(np.max(np.abs(lhs - rhs), axis=-1) / den)
        worst_i = _worst(np.abs(g.add(p, g.inv(p))), np.abs(g.add(p, np.zeros_like(p)) - p))
        rows.append(_row("group", f"associativity-{label}", worst_a < tol_a, worst_a))
        rows.append(_row("group", f"identity-inverse-{label}", worst_i < tol_i, worst_i))
        p, q = np.moveaxis(rng.normal(size=(max(10, cfg.samples // 10), 2, g.dim)) * scale, 1, 0)
        worst_h = _worst(haar_invariance_check(g, q, p, "left"),
                         haar_invariance_check(g, q, p, "right"))
        worst_mod = _worst(*modular_identity_residuals(g, p, q).values())
        rows.append(_row("group", f"haar-invariance-{label}", worst_h < tol_h, worst_h))
        rows.append(_row("group", f"modular-homomorphism-{label}", worst_mod < tol_m, worst_mod))
        sc = g.structure
        jc = jacobi_check(sc)
        rows.append(_row("group", f"jacobi-{label}", jc["passed"], jc["max_violation"]))
        rec = recover_from_group_law(g)
        err = float(np.max(np.abs(rec.C - sc.C)))
        rows.append(_row("group", f"structure-roundtrip-{label}", err < 1e-6, err))
    # noncommutativity witness on kappa
    gk = group_preset("kappa_minkowski", kappa=cfg.kappa, d=1)
    p = np.array([np.log(2.0), 0.0])
    q = np.array([0.0, 1.0])
    diff = float(np.max(np.abs(np.asarray(gk.add(p, q)) - np.asarray(gk.add(q, p)))))
    rows.append(_row("group", "noncommutativity-witness-kappa", diff > 1e-6, diff))
    if cfg.inline_structure is not None:
        jc = jacobi_check(cfg.inline_structure)
        anti = cfg.inline_structure.antisymmetry_violation()
        rows.append(_row("group", "jacobi-inline-structure",
                         jc["passed"] and anti <= 1e-12,
                         _worst(jc["max_violation"], anti)))
    return rows


def suite_hopf(cfg: RunConfig):
    rep = HA.full_suite()
    rows = []
    for name, r in rep["generators"].items():
        ok = r["coassociativity"] and r["counit"] and r["coinverse"]
        rows.append(_row("hopf", f"axioms-{name}", ok, 0.0 if ok else 1.0))
    bad = [n for n, r in rep["relations"].items()
           if not (r["coproduct"] and r["counit"] and r["antipode"])]
    rows.append(_row("hopf", "bialgebra-compatibility-all-relations", not bad,
                     float(len(bad)), detail=",".join(bad)))
    rows.append(_row("hopf", "E-vs-P0-series-consistency", HA.e_series_consistency(5)))
    return rows


def suite_twist(cfg: RunConfig):
    F = TW.abelian_twist(4)
    chk = TW.twist_check(F)
    st = TW.twisted_structures(F)
    return [
        _row("twist", "two-cocycle-order4", chk["two_cocycle"]),
        _row("twist", "normalization", chk["normalization"]),
        _row("twist", "semiclassical", chk["semiclassical"]),
        _row("twist", "triangularity", st["triangular"]),
        _row("twist", "quantum-yang-baxter", st["quantum_yang_baxter"]),
        _row("twist", "braided-commutativity", st["braided_commutative"]),
    ]


def _random_packets(g, rng, n_terms=5, with_inverses=True):
    def packet(moms):
        amps = rng.normal(size=(len(moms), 2))  # (re, im) per term, in term order
        return WavePacket(g, list(zip(moms, amps[:, 0] + 1j * amps[:, 1])))

    moms = rng.normal(size=(n_terms, g.dim))
    f = packet(moms)
    pool = list(g.inv(moms[: n_terms // 2 + 1])) if with_inverses else []
    pool += list(rng.normal(size=(n_terms - len(pool), g.dim)))
    return f, packet(pool)


def suite_trace(cfg: RunConfig):
    rows = []
    rng = np.random.default_rng(cfg.seed)
    gk = group_preset("kappa_minkowski", kappa=cfg.kappa, d=3)
    ok = all(twisted_trace_check(*_random_packets(gk, rng)) for _ in range(100))
    rows.append(_row("trace", "twisted-trace-kappa", ok))
    for name, g in (("rho", group_preset("rho_minkowski", rho=cfg.rho)),
                    ("moyal", group_preset("moyal_extended", theta=cfg.theta))):
        ok = all(twisted_trace_check(*_random_packets(g, rng)) for _ in range(30))
        rows.append(_row("trace", f"plain-cyclicity-{name}", ok))
    return rows


def suite_matrix(cfg: RunConfig):
    ids = MM.identity_checks(32, cfg.theta, seed=cfg.seed)
    part = MM.partition_check(32, cfg.theta, seed=cfg.seed)
    tol = cfg.tolerances["matrix.roundoff"]
    rows = [_row("matrix", f"basis-{k}", v <= tol, v)
            for k, v in ids.items() if k != "passed"]
    rows.append(_row("matrix", "partition-of-unity-diagonal", part["passed"],
                     max(part["positivity_witness_error"],
                         part["unity_reconstruction_error"],
                         part["diagonal_commutation_error"])))
    return rows


def suite_mixing(cfg: RunConfig):
    def run(space):
        if space == "kappa":
            return LO.mixing_classify("kappa", kappa=cfg.kappa, d=cfg.d)
        return LO.mixing_classify(space)

    reports = _pmap(run, ["moyal", "kappa", "commutative"], cfg.jobs)
    rows = []
    expected = {"moyal": "MIXING", "kappa": "NO_MIXING", "commutative": "NO_MIXING"}
    for space, rep in zip(["moyal", "kappa", "commutative"], reports):
        rows.append(_row("mixing", f"verdict-{space}", rep.verdict == expected[space],
                         0.0, detail=rep.verdict))
    cmpr = LO.bessel_oracle_compare()
    rows.append(_row("mixing", "bessel-ratio-constancy", cmpr["passed"], cmpr["max_rel_dev"]))
    mm = LO.moyal_nonplanar(np.array([1.0, 0, 0, 0]),
                            group_preset("moyal_extended", theta=cfg.theta).meta["Theta"],
                            1.0, 100.0)
    rows.append(_row("mixing", "moyal-schwinger-vs-bessel", mm["rel_err"] < 1e-6, mm["rel_err"]))
    for f, expect in (("real_phi4", (12, 8, 4)), ("charged_orientable", (4, 4, 0)),
                      ("charged_nonorientable", (4, 2, 2))):
        c = LO.diagram_counts(f)
        ok = (c["total"], c["planar"], c["nonplanar"]) == expect
        rows.append(_row("mixing", f"diagram-count-{f}", ok, 0.0,
                         detail=f"{c['total']}={c['planar']}p+{c['nonplanar']}np"))
    return rows


def suite_gauge(cfg: RunConfig):
    rows = []
    rng = np.random.default_rng(cfg.seed)
    g = group_preset("kappa_minkowski", kappa=cfg.kappa, d=3)
    tol = cfg.tolerances["gauge.residual"]
    leibniz, reality = [], []
    for _ in range(20):
        f = plane_wave(g, rng.normal(size=4), rng.normal() + 1j * rng.normal())
        h = plane_wave(g, rng.normal(size=4), rng.normal() + 1j * rng.normal())
        for mu in range(4):
            leibniz.append(GA.twisted_leibniz_residual(mu, f, h))
            reality.append(GA.twisted_reality_residual(mu, f + h))
    worst_l, worst_r = _worst(leibniz), _worst(reality)
    rows.append(_row("gauge", "twisted-leibniz", worst_l < tol, worst_l))
    rows.append(_row("gauge", "twisted-reality", worst_r < tol, worst_r))
    covariance, flatness = [], []
    for _ in range(5):
        u = plane_wave(g, rng.normal(size=4))
        A = GA.GaugeField([plane_wave(g, rng.normal(size=4), rng.normal() + 1j * rng.normal())
                           for _ in range(4)])
        covariance.append(GA.covariance_residual(A, u))
        F = GA.field_strength(GA.gauge_transform(GA.GaugeField([WavePacket(g)] * 4), u))
        flatness += [F[m][n].norm() for m in range(4) for n in range(4)]
    worst_c, worst_f = _worst(covariance), _worst(flatness)
    rows.append(_row("gauge", "field-strength-covariance", worst_c < tol, worst_c))
    rows.append(_row("gauge", "pure-gauge-flatness", worst_f < tol, worst_f))
    scan = GA.dimension_constraint_scan(range(1, 9), cfg.kappa, [0.25, 0.5, 1.0, -0.75])
    rows.append(_row("gauge", "dimension-constraint-zero-set", scan["zero_set"] == [4],
                     0.0, detail=str(scan["zero_set"])))
    x = [Poly.var(4, i) for i in range(4)]
    A = GA.PolyGaugeField([x[1] * x[2], x[0].scale(2), Poly.const(4, 1), x[0] * x[3]])
    alpha = x[0] * x[1] + x[2].scale(3)
    Theta = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    res = GA.sw_consistency_residual(A, alpha, Theta)
    rows.append(_row("gauge", "sw-consistency-identically-zero",
                     all(r.is_zero() for r in res)))
    F1 = GA.sw_field_strength_order1(A, Theta)
    F2 = GA.sw_field_strength_from_hat(A, Theta)
    ok = all((F1[m][n] - F2[m][n]).is_zero() for m in range(4) for n in range(4))
    rows.append(_row("gauge", "sw-field-strength-two-path", ok))
    return rows


def suite_causality(cfg: RunConfig):
    rows = []
    grid = CA.GridSpec(256, max(10.0, 10.0 / cfg.kappa), "spectral")
    ax = CA.lorentzian_axiom_check(grid, cfg.kappa, seed=cfg.seed)
    rows.append(_row("causality", "fundamental-symmetry-exact",
                     ax["I_squared_residual"] == 0.0 and ax["I_hermiticity_residual"] == 0.0))
    g1 = CA.GridSpec(128, max(10.0, 10.0 / cfg.kappa), "central")
    g2 = CA.GridSpec(256, max(10.0, 10.0 / cfg.kappa), "central")
    r1 = CA.lorentzian_axiom_check(g1, cfg.kappa, seed=cfg.seed)["krein_residual"]
    r2 = CA.lorentzian_axiom_check(g2, cfg.kappa, seed=cfg.seed)["krein_residual"]
    rows.append(_row("causality", "krein-residual-refinement", r1 / r2 >= 2.0, r2,
                     detail=f"ratio={r1 / r2:.2f}"))
    tol = cfg.tolerances["causality.cone"]
    for v in (-1.0, -0.5, 0.0, 0.5, 1.0):
        r = CA.cone_condition(grid, cfg.kappa, 1, 1.0, v, n_states=200, seed=cfg.seed)
        rows.append(_row("causality", f"cone-pass-v{v:+.1f}", r["margin"] >= -tol, r["margin"]))
    psi = CA.gaussian_state(grid, 0.4, 1.0)
    t = 0.6
    psi2 = CA.normalize(psi * np.exp(1j * t * grid.points()), grid)
    err = abs(CA.sll_margin(psi, psi2, grid, cfg.kappa) - t)
    rows.append(_row("causality", "sll-margin-phase-shift", err < 1e-8, err))
    return rows


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


def run_suite(name: str, cfg: RunConfig):
    """Run one named suite (or all); returns (exit_code, report dict)."""
    if name not in SUITES:
        return 2, {"error": f"unknown suite {name!r}"}
    names = [s for s in SUITES if s != "all"] if name == "all" else [name]
    rows = []
    for s in names:
        rows.extend(SUITE_FUNCS[s](cfg))
    passed = all(r["passed"] for r in rows)
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
# output plumbing

def _emit(report, fmt: str, out: str):
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=1, default=str) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        w.writerow(["suite", "check", "passed", "residual", "detail"])
        for r in report.get("rows", []):
            w.writerow([r["suite"], r["check"], r["passed"], repr(r["residual"]), r["detail"]])
        text = buf.getvalue()
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_config(args) -> RunConfig:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    elif os.environ.get("QSTKIT_SEED"):
        cfg.seed = int(os.environ["QSTKIT_SEED"])
    for key in ("jobs", "kappa", "theta", "d"):
        v = getattr(args, key, None)
        if v is not None:
            setattr(cfg, key, v)
    if getattr(args, "out", None):
        cfg.out = args.out
    if getattr(args, "format", None):
        cfg.fmt = args.format
    for ov in getattr(args, "tol_override", None) or []:
        k, _, v = ov.partition("=")
        if k not in DEFAULT_TOLERANCES or not v:
            raise ConfigError(f"bad tolerance override {ov!r}")
        cfg.tolerances[k] = float(v)
    # the run parameters, whether a flag or the config set them
    for key in ("samples", "jobs", "d"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be at least 1, got {getattr(cfg, key)}")
    if not (np.isfinite(cfg.kappa) and cfg.kappa > 0):
        raise ConfigError(f"kappa must be finite and positive, got {cfg.kappa}")
    for key in ("theta", "rho", "lam"):
        if not (np.isfinite(getattr(cfg, key)) and getattr(cfg, key) != 0):
            raise ConfigError(f"{key} must be finite and nonzero, got {getattr(cfg, key)}")
    return cfg


def _parse_reals(text, flag: str):
    if text is None:
        raise ValueError(f"{flag} is required")
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise ValueError(f"{flag}: expected comma-separated reals, got {text!r}") from None


def _group_op(args, cfg: RunConfig) -> dict:
    """The `group` command's result; ValueError on bad input or a non-finite result."""
    if args.space == "inline":
        if cfg.inline_structure is None:
            raise ValueError("--space inline needs a --config with a 'structure'")
        grp = group_from_structure(cfg.inline_structure)
    else:
        grp = group_preset(args.space, kappa=cfg.kappa, theta=cfg.theta,
                           rho=cfg.rho, lam=cfg.lam, d=cfg.d)
    p = _parse_reals(args.p, "--p")
    q = None if args.op in ("inv", "modular") else _parse_reals(args.q, "--q")
    with np.errstate(all="ignore"):  # an overflow is reported below, as one error line
        if args.op == "inv":
            res = np.asarray(inv(grp, p), dtype=float)
            out = {"result": list(res), "residual": float(np.max(np.abs(add(grp, p, res))))}
        elif args.op == "modular":
            out = {"result": modular(grp, p), "residual": 0.0}
        elif args.op == "add":
            out = {"result": list(np.asarray(add(grp, p, q), dtype=float)), "residual": 0.0}
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
    return out


MAX_POINTS = 1000


def _parse_v_range(text: str) -> list:
    """The velocities lo, lo + step, ... up to hi of a `--v lo:hi:step` range."""
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ValueError(f"--v: expected lo:hi:step, got {text!r}") from None
    if not (np.isfinite([lo, hi, step]).all() and step > 0):
        raise ValueError(f"--v: lo and hi must be finite and step positive, got {text!r}")
    vs, v = [], lo
    while v <= hi + 1e-12:
        if len(vs) == MAX_POINTS:
            raise ValueError(f"--v: {text!r} gives more than {MAX_POINTS} velocities")
        vs.append(v)
        v += step
    return vs


def _parse_d_range(text: str) -> range:
    """The dimensions lo..hi (inclusive) of a `--d-range lo:hi` option."""
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise ValueError(f"--d-range: expected integers lo:hi, got {text!r}") from None
    if not 1 <= lo <= hi < lo + MAX_POINTS:
        raise ValueError(f"--d-range: need 1 <= lo <= hi and at most {MAX_POINTS} "
                         f"dimensions, got {text!r}")
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
        raise ValueError(f"--lambda-grid: expected lo:hi:n, got {text!r}") from None
    if not (np.isfinite([lo, hi]).all() and 0 < lo < hi and 3 <= n <= MAX_POINTS):
        raise ValueError(f"--lambda-grid: need finite 0 < lo < hi and 3 <= n <= {MAX_POINTS}, "
                         f"got {text!r}")
    return np.geomspace(lo, hi, n)


def _check_args(args, cfg: RunConfig):
    """Check the command's size and range options, replacing text by parsed values.

    Raises ValueError, which `main` reports as a usage error.
    """
    if args.cmd == "matrix-basis" and args.N < 1:
        raise ValueError(f"--N: must be at least 1, got {args.N}")
    if args.cmd == "loop" and args.op == "mixing" and args.space not in LO.MIXING_SPACES:
        raise ValueError(f"--space: unknown space {args.space!r}; use "
                         f"{'|'.join(LO.MIXING_SPACES)}")
    if args.cmd == "loop" and args.lambda_grid is not None:
        args.lambda_grid = _parse_lambda_grid(args.lambda_grid)
    if args.cmd == "loop" and args.grid is not None:
        vals = _parse_reals(args.grid, "--grid")
        if not (np.isfinite(vals).all() and (vals > 0).all()):
            raise ValueError(f"--grid: m and kappa must be finite and positive, got {args.grid!r}")
        args.grid = tuple(vals.tolist())
    if args.cmd == "gauge":
        args.d_range = _parse_d_range(args.d_range)
    if args.cmd == "causality":
        args.v = _parse_v_range(args.v)
        try:
            grid = CA.GridSpec(args.grid, max(10.0, 10.0 / cfg.kappa), "spectral")
            grid.validate_kappa(cfg.kappa)
        except CA.GridError as exc:
            raise ValueError(f"--grid {args.grid}: {exc}") from None
        args.grid = grid


def _usage_error(exc) -> int:
    sys.stderr.write(f"error: {exc}\n")
    return 2


def main(argv=None) -> int:
    S = argparse.SUPPRESS
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=S, help="JSON run configuration")
    common.add_argument("--seed", type=int, default=S)
    common.add_argument("--jobs", type=int, default=S)
    common.add_argument("--out", default=S, help="output path (default stdout)")
    common.add_argument("--format", choices=("json", "csv"), default=S)
    common.add_argument("--tol-override", action="append", default=S, metavar="key=val")
    common.add_argument("--kappa", type=float, default=S)
    common.add_argument("--theta", type=float, default=S)
    common.add_argument("--d", type=int, default=S)

    ap = argparse.ArgumentParser(prog="qstkit", parents=[common],
                                 description="quantum space-time toolkit")
    sub = ap.add_subparsers(dest="cmd", parser_class=lambda **kw: argparse.ArgumentParser(
        parents=[common], **kw))

    g = sub.add_parser("group", help="momentum-group operations")
    g.add_argument("op", choices=("add", "inv", "modular", "haar-check", "delta-solve"))
    g.add_argument("--space", default="kappa_minkowski")
    g.add_argument("--p", required=True)
    g.add_argument("--q")
    g.add_argument("--k0", type=float, default=0.0)

    ho = sub.add_parser("hopf", help="kappa-Poincare Hopf axiom suite")
    ho.add_argument("check", nargs="?", default="check")
    ho.add_argument("--algebra", default="kappa-poincare",
                    choices=("kappa-poincare",))
    ho.add_argument("--all", action="store_true", default=True)

    mb = sub.add_parser("matrix-basis", help="Moyal matrix-basis checks")
    mb.add_argument("--N", type=int, default=32)
    mb.add_argument("--check", default="all", choices=("all",))

    lo = sub.add_parser("loop", help="one-loop diagnostics")
    lo.add_argument("op", choices=("mixing", "bessel-check"))
    lo.add_argument("--space", default="kappa")
    lo.add_argument("--mass", type=float, default=1.0)
    lo.add_argument("--lambda-grid", default=None, metavar="LO:HI:N")
    lo.add_argument("--grid", default=None, help="m,kappa values for bessel-check")

    ga = sub.add_parser("gauge", help="twisted gauge checks")
    ga.add_argument("op", choices=("dim-scan", "sw"))
    ga.add_argument("--d-range", default="1:8")
    ga.add_argument("--input", default=None, help="JSON polynomial gauge field")

    ca = sub.add_parser("causality", help="causal-cone scan")
    ca.add_argument("op", nargs="?", default="cone", choices=("cone",))
    ca.add_argument("--v", default="-1:1:0.5")
    ca.add_argument("--grid", type=int, default=256)

    su = sub.add_parser("suite", help="run a verification suite")
    su.add_argument("name", choices=SUITES)

    try:
        args = ap.parse_args(argv)
        cfg = _base_config(args)
        _check_args(args, cfg)
    except (ConfigError, OSError, ValueError) as exc:
        return _usage_error(exc)

    if args.cmd == "suite":
        code, report = run_suite(args.name, cfg)
        _emit(report, cfg.fmt, cfg.out)
        return code

    if args.cmd == "group":
        try:
            out = _group_op(args, cfg)
        except ValueError as exc:
            return _usage_error(exc)
        _emit(out, "json", cfg.out)
        return 0

    if args.cmd == "hopf":
        rep = HA.full_suite()
        code = 0 if rep["passed"] else 1
        slim = {"passed": rep["passed"],
                "generators": {k: {a: v[a] for a in ("coassociativity", "counit", "coinverse")}
                               for k, v in rep["generators"].items()},
                "relations": {k: {a: v[a] for a in ("coproduct", "counit", "antipode")}
                              for k, v in rep["relations"].items()}}
        _emit(slim, "json", cfg.out)
        return code

    if args.cmd == "matrix-basis":
        ids = MM.identity_checks(args.N, cfg.theta, seed=cfg.seed)
        part = MM.partition_check(args.N, cfg.theta, seed=cfg.seed)
        ok = ids["passed"] and part["passed"]
        _emit({"N": args.N, "identities": ids, "partition": part, "passed": ok},
              "json", cfg.out)
        return 0 if ok else 1

    if args.cmd == "loop":
        if args.op == "mixing":
            rep = LO.mixing_classify(args.space, mass=args.mass, kappa=cfg.kappa,
                                     theta=cfg.theta, d=cfg.d, lambda_grid=args.lambda_grid)
            if cfg.fmt == "csv":
                rows = [{"suite": "mixing", "check": f"lambda-{L:g}", "passed": True,
                         "residual": float(v), "detail": rep.verdict}
                        for L, v in rep.evidence.get("planar_sweep", {}).get("rows", [])]
                _emit({"rows": rows}, "csv", cfg.out)
            else:
                _emit(rep.as_dict(), cfg.fmt, cfg.out)
            return 1 if rep.verdict == "INCONCLUSIVE" else 0
        if args.grid:
            rep = LO.bessel_oracle_compare(ms=args.grid, kappas=args.grid)
        else:
            rep = LO.bessel_oracle_compare()
        if cfg.fmt == "csv":
            rows = [{"suite": "bessel", "check": f"d{r['d']}-m{r['m']:g}-k{r['kappa']:g}",
                     "passed": True, "residual": float(r["ratio"]), "detail": ""}
                    for r in rep["rows"]]
            _emit({"rows": rows}, "csv", cfg.out)
        else:
            _emit(rep, cfg.fmt, cfg.out)
        return 0 if rep["passed"] else 1

    if args.cmd == "gauge":
        if args.op == "dim-scan":
            scan = GA.dimension_constraint_scan(args.d_range, cfg.kappa,
                                                [0.25, 0.5, 1.0, -0.75])
            bad = [d for d, dev in scan["deviations"].items() if not np.isfinite(dev)]
            if bad:
                return _usage_error(f"gauge dim-scan: the deviation is not finite for d = "
                                    f"{bad[0]} at kappa = {cfg.kappa}")
            if cfg.fmt == "csv":
                rows = [{"suite": "gauge", "check": f"dim-{d}", "passed": dev == 0.0,
                         "residual": dev, "detail": ""}
                        for d, dev in sorted(scan["deviations"].items())]
                _emit({"rows": rows}, "csv", cfg.out)
            else:
                _emit(scan, "json", cfg.out)
            return 0
        if args.input:
            with open(args.input) as fh:
                A = GA.poly_field_from_json(fh.read())
        else:
            x = [Poly.var(4, i) for i in range(4)]
            A = GA.PolyGaugeField([x[1] * x[2], x[0].scale(2), Poly.const(4, 1), x[0] * x[3]])
        Theta = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
        hat = GA.sw_map_order1(A, Theta)
        _emit({"A_hat": GA.poly_field_to_jsonable(hat)}, "json", cfg.out)
        return 0

    if args.cmd == "causality":
        rows = []
        for v in args.v:
            r = CA.cone_condition(args.grid, cfg.kappa, 1, 1.0, v, seed=cfg.seed)
            rows.append({"suite": "causality", "check": f"cone-v{v:+.2f}",
                         "passed": r["passed"], "residual": r["margin"], "detail": ""})
        _emit({"rows": rows, "passed": all(r["passed"] for r in rows)},
              cfg.fmt, cfg.out)
        return 0 if all(r["passed"] for r in rows) else 1

    ap.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
