"""Batch front-end: config parsing, suite dispatch, CSV/JSON reports.

Reports are deterministic for a fixed seed: every row carries a stable
check-id slug, a pass/fail flag and a residual.  Every command takes one
path: argparse and `PARAMS` check the input, a `COMMANDS` handler returns
(document, rows or None), `_emit` writes it once.  Every row is built from
a `Check` by `_rows`, the one place that folds samples and compares them
with a bound.  The rows are the one verdict: exit 0 when there are none or
every row passed, 1 when a row failed, 2 on a usage/config error.

At import the module loads neither numpy nor any kernel module: parsing
and emitting check scalars with `math`.  Each `suite_<name>` and command
handler imports the modules it runs, numpy among them, so a one-shot
command compiles and loads only those.  `hopf check`, `gauge sw`,
`gauge dim-scan`, `suite hopf` and `suite twist` run on exact or scalar
arithmetic and load no numpy; `loop` loads only for `loop` and
`suite mixing`.  No command loads scipy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import operator
import os
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .liestructure import StructureConstants

DEFAULT_TOLERANCES = {
    "group.assoc": 1e-9,
    "group.identity": 1e-12,
    "group.haar": 1e-8,
    "group.modular": 1e-10,
    "gauge.residual": 1e-12,
}

# largest relative deviation of a Bessel oracle/closed-form ratio from its d's converged mean
RATIO_TOL = 1e-6

MAX_POINTS = 1000  # points of a --v, --d-range or --lambda-grid range
MAX_N = 1024       # matrix-basis --N: partition_check draws four N x N unity samples
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
    inline_structure: StructureConstants | None = None


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
_NONZERO = _scalar(float, lambda v: math.isfinite(v) and v != 0, "finite and nonzero")
_NON_NEGATIVE = _scalar(float, lambda v: math.isfinite(v) and v >= 0, "finite and non-negative")


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
    from .liestructure import StructureConstants
    if isinstance(val, dict) and "dim" in val:
        _DIM(val["dim"], f"{where}/dim")
    try:
        return StructureConstants.from_json(json.dumps(val))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"{where}: not a structure-constant object ({exc!r})") from None


def _parse_reals(text: str):
    """The array of a comma-separated list of reals."""
    import numpy as np
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise ConfigError(f"expected comma-separated reals, got {text!r}") from None


def _parse_mk_grid(text: str) -> tuple:
    """The m and kappa values of `loop bessel-check --grid`."""
    vals = tuple(_parse_reals(text).tolist())
    if not all(math.isfinite(v) and v > 0 for v in vals):
        raise ConfigError(f"m and kappa must be finite and positive, got {text!r}")
    return vals


def _parse_v_range(text: str) -> list:
    """The velocities lo, lo + step, ... up to hi of a `--v lo:hi:step` range."""
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ConfigError(f"expected lo:hi:step, got {text!r}") from None
    if not (all(map(math.isfinite, (lo, hi, step))) and lo <= hi and step > 0):
        raise ConfigError(f"need finite lo <= hi and a positive step, got {text!r}")
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


def _parse_lambda_grid(text: str):
    """The geometric cutoff grid of a `--lambda-grid lo:hi:n` option.

    The divergence slope is fitted on the upper half of the grid, so it needs
    n >= 3 (two fitted points) and lo < hi.
    """
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ConfigError(f"expected lo:hi:n, got {text!r}") from None
    if not (all(map(math.isfinite, (lo, hi))) and 0 < lo < hi and 3 <= n <= MAX_POINTS):
        raise ConfigError(f"need finite 0 < lo < hi and 3 <= n <= {MAX_POINTS}, got {text!r}")
    import numpy as np
    return np.geomspace(lo, hi, n)


# Every run parameter (a config key) and command option: the RunConfig field
# it sets, None for a command option, and its check.  A check takes a JSON
# value at a key path, or a flag's text as the argparse `type=`.
PARAMS = {
    "kappa": ("kappa", _scalar(float, lambda v: math.isfinite(v) and v > 0, "finite and positive")),
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
    "k0": (None, _scalar(float, math.isfinite, "finite")),
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


class Check(NamedTuple):
    """One report row before its verdict: the residuals of its samples (a scalar, an
    array, or a list of them), a bound with its comparison (`<` a tolerance, `<=` an
    exact zero, a count or JACOBI_TOL, `>` a witness), and `ok`, the verdict of an
    exact kernel where one decided the row; with no bound, `ok` alone decides."""

    id: str
    samples: object = 0.0
    bound: float = math.inf
    op: str = "<"
    detail: str = ""
    ok: bool = True


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt}


def _rows(suite, checks):
    """The report rows of one suite's checks: each reads the worst (largest) sample.

    A row passes when `ok` holds and its worst sample is finite and within the
    bound.  A NaN sample fails it, and so does a check over no samples, which
    has shown nothing: each array folds with its own max, which keeps a NaN.
    """
    rows = []
    for c in checks:
        parts = c.samples if isinstance(c.samples, list) else [c.samples]
        peaks = [float(s.max() if hasattr(s, "max") else s) for s in parts if getattr(s, "size", 1)]
        worst = max(peaks) if peaks and not any(map(math.isnan, peaks)) else math.nan
        rows.append({"suite": suite, "check": c.id, "residual": worst, "detail": c.detail,
                     "passed": bool(c.ok and math.isfinite(worst) and _OPS[c.op](worst, c.bound))})
    return rows


def _check_ids(rows):
    """Each (suite, check) id names one row of a report: a repeat is an input error."""
    seen = set()
    for r in rows:
        key = (r["suite"], r["check"])
        if key in seen:
            raise ConfigError(f"row id {key[0]}/{key[1]} repeats: choose values that give "
                              "distinct rows")
        seen.add(key)


def _all_passed(rows):
    """The verdict of a report: every row passed."""
    return all(r["passed"] for r in rows)


# ---------------------------------------------------------------------------
# suite bodies

def _preset_groups(cfg: RunConfig):
    """(label, group) pairs; the label makes the group suite's check ids unique."""
    from .momentum import group_preset
    return [
        ("kappa_minkowski-d1", group_preset("kappa_minkowski", kappa=cfg.kappa, d=1)),
        ("kappa_minkowski", group_preset("kappa_minkowski", kappa=cfg.kappa, d=3)),
        ("moyal_extended", group_preset("moyal_extended", theta=cfg.theta)),
        ("rho_minkowski", group_preset("rho_minkowski", rho=cfg.rho)),
        ("su2_lambda", group_preset("su2_lambda", lam=cfg.lam)),
    ]


def suite_group(cfg: RunConfig):
    import numpy as np
    from .liestructure import JACOBI_TOL, jacobi_check, recover_from_group_law
    from .momentum import group_preset, haar_invariance_check, modular_identity_residuals
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
        checks.append(Check(f"associativity-{label}", np.max(np.abs(lhs - rhs), axis=-1) / den,
                            tol["group.assoc"]))
        checks.append(Check(f"identity-inverse-{label}", [np.abs(g.add(p, g.inv(p))),
                                                          np.abs(g.add(p, np.zeros_like(p)) - p)],
                            tol["group.identity"]))
        p, q = np.moveaxis(rng.normal(size=(max(10, cfg.samples // 10), 2, g.dim)) * scale, 1, 0)
        checks.append(Check(f"haar-invariance-{label}", [haar_invariance_check(g, q, p, side)
                                                         for side in ("left", "right")],
                            tol["group.haar"]))
        modular = list(modular_identity_residuals(g, p, q).values())
        checks.append(Check(f"modular-homomorphism-{label}", modular, tol["group.modular"]))
        sc = g.structure
        checks.append(Check(f"jacobi-{label}", jacobi_check(sc)["max_violation"], JACOBI_TOL, "<="))
        try:  # the finite-difference Hessian gives up where the law is too curved for its step
            err, detail = np.abs(recover_from_group_law(g).C - sc.C), ""
        except ArithmeticError as exc:
            err, detail = np.nan, str(exc)
        checks.append(Check(f"structure-roundtrip-{label}", err, 1e-6, detail=detail))
    # noncommutativity witness on kappa
    gk = group_preset("kappa_minkowski", kappa=cfg.kappa, d=1)
    p, q = np.array([[np.log(2.0), 0.0], [0.0, 1.0]])
    diff = np.abs(gk.add(p, q) - gk.add(q, p))
    checks.append(Check("noncommutativity-witness-kappa", diff, 1e-6, ">"))
    if cfg.inline_structure is not None:
        sc = cfg.inline_structure
        checks.append(Check("jacobi-inline-structure", [jacobi_check(sc)["max_violation"],
                                                        sc.antisymmetry_violation()],
                            JACOBI_TOL, "<="))
    return _rows("group", checks)


def _hopf_checks(rep):
    """The checks of an `HA.full_suite()` report: the axioms per generator, then the relations."""
    checks = [Check(f"axioms-{name}", float(not r["passed"]), ok=r["passed"])
              for name, r in rep["generators"].items()]
    bad = [n for n, r in rep["relations"].items() if not r["passed"]]
    checks.append(Check("bialgebra-compatibility-all-relations", len(bad), 0, "<=", ",".join(bad)))
    return checks


def suite_hopf(cfg: RunConfig):
    from . import hopf_algebra as HA
    return _rows("hopf", _hopf_checks(HA.full_suite())
                 + [Check("E-vs-P0-series-consistency", ok=HA.e_series_consistency(5))])


def suite_twist(cfg: RunConfig):
    from . import twist as TW
    F = TW.abelian_twist(4)
    chk = TW.twist_check(F)
    st = TW.twisted_structures(F)
    return _rows("twist", [Check(name, ok=ok) for name, ok in (
        ("two-cocycle-order4", chk["two_cocycle"]),
        ("normalization", chk["normalization"]),
        ("semiclassical", chk["semiclassical"]),
        ("triangularity", st["triangular"]),
        ("quantum-yang-baxter", st["quantum_yang_baxter"]),
        ("braided-commutativity", st["braided_commutative"]))])


def _random_packets(WV, g, rng, count):
    """`count` seeded (f, h) pairs as two stacks of `count` packets.

    f holds five random momenta, h the inverses of the first three and two
    more, each term with a random complex amplitude.  Pair k reads the same
    stream as if it were drawn alone, after pairs 0..k-1.
    """
    import numpy as np
    dim = g.dim
    moms, famps, extra, hamps = np.split(rng.normal(size=(count, 7 * dim + 20)),
                                         np.cumsum([5 * dim, 10, 2 * dim]), axis=1)
    moms = moms.reshape(count, 5, dim)
    pool = np.concatenate((g.inv(moms[:, :3]), extra.reshape(count, 2, dim)), axis=1)
    labels = np.repeat(np.arange(count), 5)

    def stack(moms, amps):
        amps = amps.reshape(-1, 2)  # (re, im) per term, in term order
        return WV.WavePacket.stack(g, moms.reshape(-1, dim), amps[:, 0] + 1j * amps[:, 1],
                                   labels, count)

    return stack(moms, famps), stack(pool, hamps)


def suite_trace(cfg: RunConfig):
    import numpy as np
    from . import waves as WV
    from .momentum import group_preset
    rng = np.random.default_rng(cfg.seed)
    cases = (("twisted-trace-kappa", group_preset("kappa_minkowski", kappa=cfg.kappa, d=3), 100),
             ("plain-cyclicity-rho", group_preset("rho_minkowski", rho=cfg.rho), 30),
             ("plain-cyclicity-moyal", group_preset("moyal_extended", theta=cfg.theta), 30))
    return _rows("trace", [
        Check(name, ok=WV.twisted_trace_check(*_random_packets(WV, g, rng, n)).all())
        for name, g, n in cases])


def _matrix(cfg: RunConfig, N: int):
    """The matrix-basis checks at truncation N and their rows; every identity holds exactly."""
    from . import moyal_matrix as MM
    ids = MM.identity_checks(N, cfg.theta, seed=cfg.seed)
    part = MM.partition_check(N, cfg.theta, seed=cfg.seed)
    checks = [Check(f"basis-{k}", v, 0.0, "<=") for k, v in ids.items()]
    checks.append(Check("partition-of-unity-diagonal",
                        [part[k] for k in ("positivity_witness_error", "unity_reconstruction_error",
                                           "diagonal_commutation_error")], ok=part["passed"]))
    return ids, part, _rows("matrix", checks)


def suite_matrix(cfg: RunConfig):
    return _matrix(cfg, 32)[2]


def suite_mixing(cfg: RunConfig):
    import numpy as np
    from . import loop as LO
    from .momentum import group_preset
    checks = []
    for space, params, expected in (("moyal", {"theta": cfg.theta}, "MIXING"),
                                    ("kappa", {"kappa": cfg.kappa, "d": cfg.d}, "NO_MIXING"),
                                    ("commutative", {}, "NO_MIXING")):
        rep = LO.mixing_classify(space, **params)
        checks.append(Check(f"verdict-{space}", detail=rep.verdict, ok=rep.verdict == expected))
    cmpr = LO.bessel_oracle_compare()
    checks.append(Check("bessel-ratio-constancy", cmpr["max_rel_dev"], RATIO_TOL,
                        ok=cmpr["converged"]))
    # |p| = 1/theta keeps c = 1/4 + 1/Lambda^2 at every theta; at |p| = 1 and
    # theta = 1e3 the value and its quadrature both underflow to 0
    mm = LO.moyal_nonplanar(np.array([1.0 / cfg.theta, 0, 0, 0]),
                            group_preset("moyal_extended", theta=cfg.theta).meta["Theta"],
                            1.0, 100.0)
    checks.append(Check("moyal-schwinger-vs-bessel", mm["rel_err"], 1e-6, ok=mm["converged"]))
    for f, expect in (("real_phi4", (12, 8, 4)), ("charged_orientable", (4, 4, 0)),
                      ("charged_nonorientable", (4, 2, 2))):
        c = LO.diagram_counts(f)
        got = (c["total"], c["planar"], c["nonplanar"])
        off = [abs(n - e) for n, e in zip(got, expect)]
        checks.append(Check(f"diagram-count-{f}", off, 0, "<=", "{}={}p+{}np".format(*got)))
    co = LO.commutative_coefficients()
    moyal = group_preset("moyal_extended", theta=cfg.theta, phase_convention="real")
    # 10 (p, k) draws with the phase slot 0
    pk = np.random.default_rng(cfg.seed).normal(size=(2, 10, 5)) * [1, 1, 1, 1, 0]
    exact = co == {"planar": Fraction(1, 3), "nonplanar": Fraction(1, 6), "total": Fraction(1, 2)}
    checks.append(Check("two-point-reduction", LO.nonplanar_phase_residual(moyal, *pk), 1e-12,
                        detail=f"{co['planar']}+{co['nonplanar']}={co['total']}", ok=exact))
    asym = LO.moyal_asymptotic_check(1.0, 1e-4)
    checks.append(Check("moyal-small-c-asymptote", abs(asym["ratio"] - 1.0), 0.02))
    return _rows("mixing", checks)


_P0_SAMPLES = [0.25, 0.5, 1.0, -0.75]  # the p0 values of the dimension-constraint scan
_SW_THETA = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]


def _sw_field():
    """The default Seiberg–Witten gauge field of `gauge sw` and the gauge suite."""
    from . import gauge as GA, polyfield as PF
    x = [PF.Poly.var(4, i) for i in range(4)]
    return GA.PolyGaugeField([x[1] * x[2], x[0].scale(2), PF.Poly.const(4, 1), x[0] * x[3]])


def suite_gauge(cfg: RunConfig):
    import numpy as np
    from . import gauge as GA, polyfield as PF, waves as WV
    from .momentum import group_preset
    checks = []
    rng = np.random.default_rng(cfg.seed)
    g = group_preset("kappa_minkowski", kappa=cfg.kappa, d=3)
    tol = cfg.tolerances["gauge.residual"]
    # 20 pairs of random plane waves, then 5 draws of a unit plane wave u and a
    # field of four; each one reads the stream of the draw made alone
    pairs = rng.normal(size=(20, 2, 6))
    f, h = (WV.plane_wave(g, pairs[:, i, :4], pairs[:, i, 4] + 1j * pairs[:, i, 5]) for i in (0, 1))
    checks.append(Check("twisted-leibniz", [GA.twisted_leibniz_residual(mu, f, h)
                                            for mu in range(4)], tol))
    checks.append(Check("twisted-reality", [GA.twisted_reality_residual(mu, f + h)
                                            for mu in range(4)], tol))
    draws = rng.normal(size=(5, 28))
    u = WV.plane_wave(g, draws[:, :4])
    comps = draws[:, 4:].reshape(5, 4, 6)
    A = WV.concat([WV.plane_wave(g, comps[:, c, :4], comps[:, c, 4] + 1j * comps[:, c, 5])
                   for c in range(4)])
    checks.append(Check("field-strength-covariance", GA.covariance_residual(A, u), tol))
    F = GA.field_strength(GA.gauge_transform(WV.WavePacket.zero(g, A.count), u))
    checks.append(Check("pure-gauge-flatness", F.norm(), tol))
    scan = GA.dimension_constraint_scan(range(1, 9), cfg.kappa, _P0_SAMPLES)
    checks.append(Check("dimension-constraint-zero-set", detail=str(scan["zero_set"]),
                        ok=scan["zero_set"] == [4]))
    A = _sw_field()
    alpha = PF.Poly.var(4, 0) * PF.Poly.var(4, 1) + PF.Poly.var(4, 2).scale(3)
    res = GA.sw_consistency_residual(A, alpha, _SW_THETA)
    checks.append(Check("sw-consistency-identically-zero", ok=all(r.is_zero() for r in res)))
    F1 = GA.sw_field_strength_order1(A, _SW_THETA)
    F2 = GA.sw_field_strength_from_hat(A, _SW_THETA)
    ok = all((F1[m][n] - F2[m][n]).is_zero() for m in range(4) for n in range(4))
    checks.append(Check("sw-field-strength-two-path", ok=ok))
    return _rows("gauge", checks)


def _causality_grid(cfg: RunConfig, n: int, scheme: str = "spectral"):
    """The n-point causality grid over p0 in [-W, W), W = max(10, 10 / kappa)."""
    from . import causality as CA
    return CA.GridSpec(n, max(10.0, 10.0 / cfg.kappa), scheme)


def suite_causality(cfg: RunConfig):
    import numpy as np
    from . import causality as CA
    checks = []
    grid = _causality_grid(cfg, 256)
    grid.validate_kappa(cfg.kappa)  # before the central grids, which do not check kappa
    # I^2 - 1 and I^dagger - I do not depend on the grid: the n = 256 Krein call reads them
    coarse, ax = (CA.lorentzian_axiom_check(_causality_grid(cfg, n, "central"), cfg.kappa,
                                            seed=cfg.seed) for n in (128, 256))
    r1, r2 = coarse["krein_residual"], ax["krein_residual"]
    checks.append(Check("fundamental-symmetry-exact",
                        [ax["I_squared_residual"], ax["I_hermiticity_residual"]], 0.0, "<="))
    # the finer grid at least halves the Krein residual
    checks.append(Check("krein-residual-refinement", r2, r1 / 2, "<=", f"ratio={r1 / r2:.2f}"))
    vs = (-1.0, -0.5, 0.0, 0.5, 1.0)
    for v, r in zip(vs, CA.cone_sweep(grid, cfg.kappa, 1, 1.0, vs, n_states=200, seed=cfg.seed)):
        checks.append(Check(f"cone-pass-v{v:+.1f}", r["margin"], ok=r["passed"]))
    psi = CA.gaussian_state(grid, 0.4, 1.0)
    t = 0.6
    psi2 = CA.normalize(psi * np.exp(1j * t * grid.points()), grid)
    err = abs(CA.sll_margin(psi, psi2, grid, cfg.kappa) - t)
    checks.append(Check("sll-margin-phase-shift", err, 1e-8))
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


def _cmd_group(args, cfg):
    """One momentum-group operation; ValueError on bad input or a non-finite result."""
    import numpy as np
    from .momentum import (add, delta_solve_nonplanar, group_from_structure, group_preset,
                           haar_invariance_check, inv, modular, real_values)
    if args.space == "inline":
        if cfg.inline_structure is None:
            raise ValueError("--space inline needs a --config with a 'structure'")
        grp = group_from_structure(cfg.inline_structure)
    else:  # d spatial dimensions: kappa-Minkowski and the commutative space read it
        dim = cfg.d + 1 if args.space == "commutative" else None
        grp = group_preset(args.space, kappa=cfg.kappa, theta=cfg.theta,
                           rho=cfg.rho, lam=cfg.lam, d=cfg.d, dim=dim)
    p, q = args.p, args.q
    if q is None and args.op not in ("inv", "modular"):
        raise ValueError(f"group {args.op}: --q is required")
    with np.errstate(all="ignore"):  # an overflow is reported below, as one error line
        if args.op == "inv":
            res = real_values(inv(grp, p), f"group {args.op}: the result")
            out = {"result": list(res), "residual": float(np.max(np.abs(add(grp, p, res))))}
        elif args.op == "modular":
            out = {"result": modular(grp, p), "residual": 0.0}
        elif args.op == "add":
            out = {"result": list(real_values(add(grp, p, q), f"group {args.op}: the result")),
                   "residual": 0.0}
        elif args.op == "haar-check":
            out = {"result": None, "residual": float(np.max([haar_invariance_check(grp, q, p, side)
                                                             for side in ("left", "right")]))}
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
        return asdict(rep), _rows("mixing", [
            Check(f"lambda-{L:g}", v, detail=rep.verdict, ok=conv and rep.verdict != "INCONCLUSIVE")
            for L, v, conv in rep.evidence["planar_sweep"]["rows"]])
    rep = LO.bessel_oracle_compare(ms=args.grid, kappas=args.grid)
    rows = _rows("bessel", [Check(f"d{r['d']}-m{r['m']:g}-k{r['kappa']:g}", r["rel_dev"], RATIO_TOL,
                                  ok=r["converged"]) for r in rep["rows"]])
    return {**rep, "passed": _all_passed(rows)}, rows


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
    bad = [d for d, dev in scan["deviations"].items() if not math.isfinite(dev)]
    if bad:
        raise ValueError(f"gauge dim-scan: the deviation is not finite for d = {bad[0]} "
                         f"at kappa = {cfg.kappa}")
    # the prefactor is 1 for every p0 at d = 4 and at no other d
    return scan, _rows("gauge", [Check(f"dim-{d}", dev, 0.0, "<=" if d == 4 else ">")
                                 for d, dev in sorted(scan["deviations"].items())])


def _cmd_causality(args, cfg):
    from . import causality as CA
    grid = _causality_grid(cfg, args.grid)
    grid.validate_kappa(cfg.kappa)  # a GridError is a usage error
    sweep = CA.cone_sweep(grid, cfg.kappa, 1, 1.0, args.v, seed=cfg.seed)
    rows = _rows("causality", [Check(f"cone-v{v:+.2f}", r["margin"], ok=r["passed"])
                               for v, r in zip(args.v, sweep)])
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
    g.add_argument("--k0", type=PARAMS["k0"][1], default=S, help="delta-solve")

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
    return None if isinstance(doc, float) and not math.isfinite(doc) else doc


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
        _check_ids(rows or ())
        _emit(doc, rows, cfg.fmt, cfg.out)
    except (OSError, ValueError) as exc:  # ConfigError, GridError and group_preset's among them
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0 if rows is None or _all_passed(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
