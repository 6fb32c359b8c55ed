import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qstkit import cli, momentum
from qstkit.momentum import group_preset
from structure_json import structure_json


def test_parse_config_minimal_defaults():
    cfg = cli.parse_config('{"kappa": 1, "d": 3}')
    assert cfg.kappa == 1.0
    assert cfg.d == 3
    assert cfg.seed == 0  # default filled
    assert cfg.fmt == "json"


def test_parse_config_unknown_key_names_path():
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config('{"kappa": 1, "kappaa": 2}')
    assert "/kappaa" in str(err.value)
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config('{"tolerances": {"bogus": 1}}')
    assert "/tolerances/bogus" in str(err.value)


@pytest.mark.parametrize("conf, path", [
    ({"kappa": [1]}, "/kappa"),
    ({"seed": None}, "/seed"),
    ({"out": 5}, "/out"),
    ({"samples": True}, "/samples"),
    ({"d": 2.5}, "/d"),
    ({"tolerances": {"group.assoc": "x"}}, "/tolerances/group.assoc"),
    ({"structure": {"dim": 3}}, "/structure"),
])
def test_parse_config_wrong_type_names_path(conf, path):
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config(json.dumps(conf))
    assert str(err.value).startswith(f"{path}: ")


def test_parse_config_inline_structure_round_trip():
    sc = group_preset("su2_lambda", lam=1.0).structure
    text = json.dumps({"structure": json.loads(structure_json(sc))})
    cfg = cli.parse_config(text)
    assert cfg.inline_structure is not None
    assert np.max(np.abs(cfg.inline_structure.C - sc.C)) == 0.0


def test_run_suite_unknown_name():
    code, rep = cli.run_suite("bogus", cli.RunConfig())
    assert code == 2


def test_run_suite_exit_codes_and_corrupted_structure():
    cfg = cli.RunConfig(samples=60)
    code, rep = cli.run_suite("twist", cfg)
    assert code == 0
    assert rep["passed"]
    # corrupted structure constants: jacobi failure, exit 1
    sc = group_preset("su2_lambda", lam=1.0).structure
    C = sc.C.copy()
    C[0, 1, 2] = -C[0, 1, 2]
    bad = json.loads(structure_json(sc))
    bad["entries"] = [
        {"mu": m, "nu": n, "rho": r, "re": float(C[m, n, r].real), "im": float(C[m, n, r].imag)}
        for m in range(3) for n in range(3) for r in range(3) if C[m, n, r] != 0
    ]
    cfg2 = cli.parse_config(json.dumps({"structure": bad, "samples": 40}))
    code2, rep2 = cli.run_suite("group", cfg2)
    assert code2 == 1
    failing = [r for r in rep2["rows"] if not r["passed"]]
    assert any(r["check"] == "jacobi-inline-structure" for r in failing)


def test_report_rows_carry_check_ids():
    cfg = cli.RunConfig(samples=40)
    _, rep = cli.run_suite("trace", cfg)
    for row in rep["rows"]:
        assert set(row) == {"suite", "check", "passed", "residual", "detail"}
        assert row["check"]


def test_cli_determinism_bytes(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["suite", "group", "--seed", "9", "--out", str(out1)]) == 0
    assert cli.main(["suite", "group", "--seed", "9", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    assert cli.main(["suite", "matrix", "--format", "csv", "--out", str(out)]) == 0
    text = out.read_bytes().decode()
    lines = text.split("\r\n")  # RFC-4180 line endings
    assert lines[0] == "suite,check,passed,residual,detail"
    assert any(line.startswith("matrix,") for line in lines[1:])


def test_cli_group_add(tmp_path, capsys):
    code = cli.main(["group", "add", "--space", "kappa_minkowski", "--kappa", "1",
                     "--d", "1", "--p", "0,1", "--q", "0,2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"] == [0.0, 3.0]


@pytest.mark.parametrize("d", [1, 2, 5])
def test_cli_group_commutative_reads_d(d, capsys):
    # d spatial dimensions give the commutative group dim d + 1, as in `loop mixing`
    p, q = ",".join(["0.5"] * (d + 1)), ",".join(["0.25"] * (d + 1))
    for op in (["add", f"--p={p}", f"--q={q}"], ["inv", f"--p={p}"]):
        assert cli.main(["--d", str(d), "group", *op, "--space", "commutative"]) == 0
        assert len(json.loads(capsys.readouterr().out)["result"]) == d + 1
    assert cli.main(["--d", str(d), "group", "add", "--space", "commutative",
                     "--p=0.1,0.2,0.3,0.4", "--q=0.1,0.2,0.3,0.4"]) == 2


def test_cli_env_seed(tmp_path, monkeypatch):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    monkeypatch.setenv("QSTKIT_SEED", "77")
    assert cli.main(["suite", "trace", "--out", str(out1)]) == 0
    assert cli.main(["suite", "trace", "--seed", "77", "--out", str(out2)]) == 0
    assert json.loads(out1.read_text())["seed"] == 77
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_tol_override(tmp_path):
    out = tmp_path / "r.json"
    # an absurdly tight associativity tolerance must fail the group suite
    code = cli.main(["suite", "group", "--seed", "1", "--tol-override",
                     "group.assoc=1e-30", "--out", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert any(not r["passed"] and r["check"].startswith("associativity")
               for r in rep["rows"])


def test_cli_bad_usage_exit_2():
    assert cli.main(["--config", "/nonexistent/x.json", "suite", "group"]) == 2
    assert cli.main(["suite", "group", "--tol-override", "nope=1"]) == 2


@pytest.mark.parametrize("argv", [
    ["group", "add", "--d", "3", "--p", "1,2,3,4", "--q", "1,2"],      # short --q
    ["group", "add", "--d", "3", "--p", "1,nan,0,0", "--q", "0,0,0,0"],  # non-finite
    ["group", "modular", "--d", "3", "--p", "1,inf,0,0"],
    ["group", "inv", "--d", "1", "--p", "1,x"],                          # malformed
    ["group", "add", "--d", "1", "--p", "1,2"],                          # --q missing
    ["group", "haar-check", "--d", "1", "--p", "1,2", "--q", "1,2,3"],
    ["group", "modular", "--d", "3", "--p", "1000,0,0,0"],               # overflows to inf
    ["group", "haar-check", "--d", "3", "--p", "1000,0,0,0", "--q", "1000,1,0,0"],  # NaN
    ["group", "add", "--space", "inline", "--p", "1,2,3,4", "--q", "0,1,0,0"],  # no structure
])
def test_cli_group_bad_input_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("lam", [10, 100, -10])
def test_cli_suite_group_su2_rows_pass_at_large_lam(lam, tmp_path, capsys):
    # the su2 draws scale with 1/|lam|, so they stay inside the chart
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"lam": lam}))
    assert cli.main(["--config", str(conf), "suite", "group"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    su2 = [r for r in rows if r["check"].endswith("-su2_lambda")]
    assert len(su2) == 6 and all(r["passed"] for r in su2)


def test_suite_group_nan_residual_fails_its_row(monkeypatch):
    g = group_preset("kappa_minkowski", kappa=1.0, d=1)
    broken = dataclasses.replace(g, add=lambda p, q: np.full(np.broadcast(p, q).shape, np.nan))
    monkeypatch.setattr(cli, "_preset_groups", lambda cfg: [("kappa_minkowski-d1", broken)])
    rows = {r["check"]: r for r in cli.suite_group(cli.RunConfig(samples=20))}
    row = rows["associativity-kappa_minkowski-d1"]
    assert not row["passed"] and np.isnan(row["residual"])


def test_suite_group_nan_law_fails_its_haar_row_without_a_warning(monkeypatch):
    # the finite-difference Jacobian determinant of a NaN law is NaN, silently
    g = group_preset("kappa_minkowski", kappa=1.0, d=1)
    broken = dataclasses.replace(g, add=lambda p, q: np.full(np.broadcast(p, q).shape, np.nan))
    monkeypatch.setattr(cli, "_preset_groups", lambda cfg: [("kappa_minkowski-d1", broken)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = {r["check"]: r for r in cli.suite_group(cli.RunConfig(samples=20))}
    row = rows["haar-invariance-kappa_minkowski-d1"]
    assert not row["passed"] and np.isnan(row["residual"])


def _kappa_of_minus_kappa(build):
    """build, with the kappa laws replaced by those of -kappa: a group, but not the
    one its Haar weights and structure constants describe."""
    def group(name, **kw):
        g = build(name, **kw)
        if name != "kappa_minkowski":
            return g
        k = g.meta["kappa"]

        def kadd(p, q):
            return p + np.concatenate((q[..., :1], np.exp(p[..., :1] / k) * q[..., 1:]), axis=-1)

        def kinv(p):
            return -np.concatenate((p[..., :1], np.exp(-p[..., :1] / k) * p[..., 1:]), axis=-1)

        return dataclasses.replace(g, add=kadd, inv=kinv)
    return group


def test_suite_group_fails_the_law_of_minus_kappa(monkeypatch):
    monkeypatch.setattr(momentum, "group_preset", _kappa_of_minus_kappa(group_preset))
    expected = {f"{check}-{label}" for check in ("haar-invariance", "structure-roundtrip")
                for label in ("kappa_minkowski-d1", "kappa_minkowski")}
    for seed in range(5):
        code, rep = cli.run_suite("group", cli.RunConfig(seed=seed))
        assert code == 1
        assert {r["check"] for r in rep["rows"] if not r["passed"]} == expected


def _failed_rows(suite):
    code, rep = cli.run_suite(suite, cli.RunConfig())
    return {r["check"] for r in rep["rows"] if not r["passed"]}


def test_twisted_trace_fails_with_the_twist_power_lowered(monkeypatch):
    from qstkit import waves as WV
    real = WV.act
    monkeypatch.setattr(WV, "act", lambda gen, f, index=0, power=1:
                        real(gen, f, index, power - 1 if gen == "E" else power))
    assert _failed_rows("trace") == {"twisted-trace-kappa"}
    # every packet of the stack fails, not just one
    g = group_preset("kappa_minkowski", d=3)
    ok = WV.twisted_trace_check(*cli._random_packets(WV, g, np.random.default_rng(0), 100))
    assert ok.shape == (100,) and not ok.any()


def test_twisted_leibniz_fails_without_the_twist(monkeypatch):
    from qstkit import gauge as GA
    monkeypatch.setattr(GA, "_eop", lambda f, power=1: f)
    assert "twisted-leibniz" in _failed_rows("gauge")


def test_a_nan_amplitude_fails_the_gauge_rows(monkeypatch):
    from qstkit import waves as WV
    real = WV.plane_wave

    def nan_in_the_third(g, p, amp=1.0):
        amps = np.array(np.broadcast_to(amp, len(p)), dtype=complex)
        amps[2] = np.nan
        return real(g, p, amps)

    monkeypatch.setattr(WV, "plane_wave", nan_in_the_third)
    code, rep = cli.run_suite("gauge", cli.RunConfig())
    rows = {r["check"]: r for r in rep["rows"]}
    for check in ("twisted-leibniz", "twisted-reality", "field-strength-covariance",
                  "pure-gauge-flatness"):
        assert not rows[check]["passed"] and np.isnan(rows[check]["residual"])
    assert code == 1


def test_merge_count_does_not_grow_with_the_stack(monkeypatch):
    from qstkit import gauge as GA, waves as WV
    calls = []
    real = WV._merge
    monkeypatch.setattr(WV, "_merge", lambda *a: calls.append(1) or real(*a))

    def merges(run):
        calls.clear()
        run()
        return len(calls)

    g = group_preset("kappa_minkowski", d=3)
    counts = []
    for n in (5, 50):
        rng = np.random.default_rng(n)
        f, h = cli._random_packets(WV, g, rng, n)
        A = WV.concat([WV.plane_wave(g, rng.normal(size=(n, 4)), rng.normal(size=n))
                       for _ in range(4)])
        u = WV.plane_wave(g, rng.normal(size=(n, 4)))
        counts.append((merges(lambda: WV.twisted_trace_check(f, h)),
                       merges(lambda: GA.covariance_residual(A, u))))
    assert counts[0] == counts[1]
    # a fifth of the 900 and 3,410 merges the suites made packet by packet
    assert merges(lambda: cli.run_suite("trace", cli.RunConfig())) <= 900 // 5
    assert merges(lambda: cli.run_suite("gauge", cli.RunConfig())) <= 3410 // 5


def _failed_mixing_rows():
    return {r["check"] for r in cli.suite_mixing(cli.RunConfig()) if not r["passed"]}


def test_two_point_reduction_fails_on_a_changed_coefficient(monkeypatch):
    from qstkit import loop as LO
    poly = {**LO.TwoPointAssembly.nonplanar_poly, (1, -3): Fraction(2)}
    monkeypatch.setattr(LO.TwoPointAssembly, "nonplanar_poly", poly)
    assert _failed_mixing_rows() == {"two-point-reduction"}


def test_two_point_reduction_fails_on_the_weyl_phase(monkeypatch):
    def weyl(name, **kw):
        return group_preset(name, **{**kw, "phase_convention": "weyl"})

    monkeypatch.setattr(momentum, "group_preset", weyl)
    row = {r["check"]: r for r in cli.suite_mixing(cli.RunConfig())}["two-point-reduction"]
    assert not row["passed"] and row["residual"] > 1e-3


def test_small_c_asymptote_fails_with_k0_for_k1(monkeypatch):
    from qstkit import loop as LO
    monkeypatch.setattr(LO, "moyal_nonplanar_closed",
                        lambda c, m: 2 * (m / math.sqrt(c)) * LO._kv(0, 2 * m * math.sqrt(c)))
    assert "moyal-small-c-asymptote" in _failed_mixing_rows()


@pytest.mark.parametrize("theta", ["1e-3", "1", "1e3", "1e6"])
def test_suite_mixing_passes_at_any_theta(theta, capsys):
    # at a fixed |p| = 1 the Schwinger check's value underflows to 0 from theta = 1e3 on
    assert cli.main(["suite", "mixing", "--theta", theta, "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 10 and all(r["passed"] == "True" for r in rows)


def test_suite_mixing_classifies_moyal_at_the_configured_theta(monkeypatch):
    from qstkit import loop as LO
    real, calls = LO.mixing_classify, []
    monkeypatch.setattr(LO, "mixing_classify",
                        lambda space, **kw: calls.append((space, kw)) or real(space, **kw))
    code, rep = cli.run_suite("mixing", cli.RunConfig(theta=1e3))
    (space, kw), = [c for c in calls if c[0] == "moyal"]
    assert kw["theta"] == 1e3
    # probes at theta |p| in [1e-3, 1], where K1 does not underflow
    assert np.allclose(kw["p_grid"] * 1e3, np.geomspace(1.0, 1e-3, 7))
    assert code == 0 and rep["rows"][0]["detail"] == "MIXING"


@pytest.mark.parametrize("kappa", [0.35, 0.4, 0.45, 0.5])
def test_suite_group_passes_at_small_kappa(kappa):
    # the Haar residual is relative to 1 + w(p), and the weights grow as e^{d p0/kappa}
    for seed in range(5):
        code, rep = cli.run_suite("group", cli.RunConfig(kappa=kappa, seed=seed))
        assert code == 0, [r["check"] for r in rep["rows"] if not r["passed"]]


def test_worst_propagates_nan():
    assert cli._worst(0.0, [1.0, 2.0], np.array([[3.0]])) == 3.0
    assert np.isnan(cli._worst(0.5, [np.nan, 0.1]))
    # a check over no samples has shown nothing: NaN, not 0.0, so its row fails
    assert np.isnan(cli._worst([]))
    assert np.isnan(cli._worst())
    assert cli._row("group", "empty", True, cli._worst())["passed"] is False


def test_run_suite_check_ids_unique():
    _, rep = cli.run_suite("all", cli.RunConfig(samples=40))
    ids = [r["check"] for r in rep["rows"]]
    assert len(ids) == 83
    assert len(set(ids)) == len(ids)


def test_parse_v_range():
    assert cli._parse_v_range("-1:1:0.5") == [-1.0, -0.5, 0.0, 0.5, 1.0]
    for bad in ("0:1:0", "0:1:-0.25", "0:1:nan", "0:inf:1", "1e20:1e20:1", "0:1", "a:b:c"):
        with pytest.raises(ValueError):
            cli._parse_v_range(bad)


def test_cli_bessel_check_passed_is_json_bool(capsys):
    assert cli.main(["loop", "bessel-check", "--grid", "1,2"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize("argv", [
    ["matrix-basis", "--N", "0"],
    ["causality", "--grid", "8"],
    ["causality", "--kappa", "0"],
    ["gauge", "dim-scan", "--d-range", "1-8"],
    ["loop", "mixing", "--lambda-grid", "a:b"],
    ["loop", "mixing", "--lambda-grid", "1e4:10:8"],                     # lo > hi
    ["loop", "bessel-check", "--grid", "1,x"],
    ["loop", "mixing", "--space", "foo"],
    ["gauge", "dim-scan", "--kappa", "0.01", "--d-range", "1:20"],      # e^{x} overflows
    ["gauge", "dim-scan", "--kappa", "0"],
    [{"samples": 0}, "suite", "group"],          # zero samples would pass every row
    [{"samples": -5}, "suite", "group"],
    ["--kappa", "-1", "suite", "group"],
    [{"kappa": -1}, "suite", "group"],
    ["--d", "0", "suite", "mixing"],
    ["--kappa", "nan", "suite", "trace"],        # a usage error, not failed rows
    [{"jobs": 1}, "suite", "mixing"],           # no such key: runs are serial
    ["--jobs", "1", "suite", "twist"],
    ["hopf", "whatever"],
    ["hopf", "check", "--algebra", "kappa-poincare"],
    ["hopf", "check", "--all"],
    ["matrix-basis", "--check", "all"],
    ["--theta", "0", "suite", "matrix"],
    [{"rho": 0}, "suite", "trace"],
    [{"lam": float("inf")}, "suite", "group"],
    [{"kappa": [1]}, "suite", "trace"],          # a config value of the wrong JSON type
    [{"seed": None}, "suite", "trace"],
    [{"out": 5}, "suite", "twist"],              # would open file descriptor 5
    [{"out": 1}, "suite", "twist"],
    [{"samples": True}, "suite", "group"],       # a JSON bool is not an int
    [{"tolerances": {"group.assoc": "x"}}, "suite", "group"],
    [{"structure": 5}, "suite", "group"],
    ["group", "bogus", "--p", "1"],              # argparse's own errors
    ["--seed", "x", "suite", "group"],
    ["suite"],
    [],
    ["group", "add", "--d", "1", "--p", "0,1", "--q", "0,2", "--format", "csv"],  # no row form
    ["gauge", "sw", "--format", "csv"],
    ["matrix-basis", "--N", "1025"],             # just over the caps
    ["causality", "--grid", "8193"],
    ["loop", "mixing", "--mass", "nan"],
    ["loop", "mixing", "--mass", "inf"],
    [{"samples": 10 ** 6 + 1}, "suite", "group"],
    ["--d", "65", "suite", "mixing"],
    [{"d": 65}, "suite", "mixing"],
    [{"structure": {"name": "big", "dim": 65, "deformation": 0, "entries": []}}, "suite", "group"],
    ["loop", "bessel-check", "--space", "foo", "--grid", "1"],  # an option of the other op
    ["loop", "bessel-check", "--mass", "5", "--grid", "1"],
    ["loop", "bessel-check", "--lambda-grid", "10:100:3", "--grid", "1"],
    ["loop", "mixing", "--grid", "1"],
    ["gauge", "sw", "--d-range", "1:3"],
    ["gauge", "dim-scan", "--input", "field.json"],
    ["group", "inv", "--d", "1", "--p", "0.1,0", "--q", "0,2"],
    ["group", "modular", "--d", "1", "--p", "0.1,0", "--k0", "5"],
    ["group", "add", "--d", "1", "--p", "0.1,0", "--q", "0,2", "--k0", "5"],
    ["causality", "cone", "--v", "1:-1:0.5"],    # lo > hi: an empty range checks nothing
    ["causality", "--v", "0.005:0.03:0.01"],      # values that name one row id twice
    ["loop", "mixing", "--space", "commutative", "--lambda-grid", "1000000:1000002:3"],
    ["loop", "bessel-check", "--grid", "1.0000001,1.0000002"],
])
def test_cli_bad_option_exit_2(argv, capsys, tmp_path):
    if argv and isinstance(argv[0], dict):  # the contents of a --config file, then the command
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps(argv[0]))
        argv = ["--config", str(conf), *argv[1:]]
    test_cli_group_bad_input_exit_2(argv, capsys)


def test_cli_loop_mixing_inconclusive_exits_1(capsys):
    # on this short sweep the non-planar UV criterion stays undecided
    assert cli.main(["loop", "mixing", "--space", "moyal", "--lambda-grid", "10:20:3"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "INCONCLUSIVE"


def test_cli_loop_mixing_moyal_underflow_exits_1(capsys):
    # at theta = 1e3 the UV values and the t = 1 IR value underflow to 0.0
    assert cli.main(["loop", "mixing", "--space", "moyal", "--theta", "1e3"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "INCONCLUSIVE"
    assert doc["nonplanar_ir_singular"] is None and doc["nonplanar_uv_finite"] is None


def test_cli_loop_mixing_inconclusive_rows_fail(capsys):
    argv = ["loop", "mixing", "--space", "moyal", "--lambda-grid", "10:20:3", "--format", "csv"]
    assert cli.main(argv) == 1
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 3
    assert all(r["passed"] == "False" and r["detail"] == "INCONCLUSIVE" for r in rows)
    assert cli.main(["loop", "mixing", "--space", "kappa", "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows and all(r["passed"] == "True" and r["detail"] == "NO_MIXING" for r in rows)


@pytest.mark.parametrize("space, grid", [("commutative", "1e100:1e105:3"),
                                         ("kappa", "1e150:1e160:3"),
                                         ("moyal", "1e100:1e105:3")])
def test_cli_loop_mixing_overflowing_cutoff_is_inconclusive(space, grid, capsys):
    # r^{D-1} overflows a float at the top cutoff: that quadrature has no value.
    # kappa's range is cut at 2 kappa 746/d, so only a huge kappa lets r reach 1e155
    scale = ["--kappa", "1e160"] if space == "kappa" else []
    assert cli.main(["loop", "mixing", "--space", space, *scale, "--lambda-grid", grid]) == 1
    out, err = capsys.readouterr()
    doc = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-strict JSON: {c}"))
    assert err == "" and doc["verdict"] == "INCONCLUSIVE"
    sweep = doc["evidence"]["planar_sweep"]
    assert sweep["verdict"] == "inconclusive" and sweep["slope"] is None
    assert sweep["rows"][-1][1:] == [None, False]


def test_cli_loop_mixing_kappa_far_cutoffs_carry_the_integral(capsys):
    # cutoffs far past kappa once read 0.0, converged, and every row passed on it
    argv = ["loop", "mixing", "--space", "kappa", "--lambda-grid", "1e20:1e40:3", "--format", "csv"]
    assert cli.main(argv) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["check"] for r in rows] == ["lambda-1e+20", "lambda-1e+30", "lambda-1e+40"]
    assert all(float(r["residual"]) == pytest.approx(7.3005542831929) for r in rows)


def test_cli_k0_must_be_finite(capfd):
    # a NaN k0 used to reach LAPACK, which printed its own lines before the error
    for k0 in ("nan", "inf", "-inf", "1e400"):
        argv = ["group", "delta-solve", "--space", "su2_lambda", "--p", "0.1,0.2,0.3",
                "--q=0.1,0.2,0.3", f"--k0={k0}"]
        assert cli.main(argv) == 2
        out, err = capfd.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: argument --k0: must be finite")


def test_cli_delta_solve_small_momenta_reports_the_residual_of_its_k(capsys):
    from qstkit.momentum import NEWTON_TOL, nonplanar_residual
    p, q = [1e-9, 2e-9, 0.0, 0.0], [-1e-9, 3e-9, 0.0, 0.0]
    assert cli.main(["group", "delta-solve", "--d", "3", "--p=1e-9,2e-9,0,0",
                     "--q=-1e-9,3e-9,0,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    g = group_preset("kappa_minkowski", kappa=1.0, d=3)
    res = float(np.max(np.abs(nonplanar_residual(g, np.array(p), np.array(q),
                                                 np.array(doc["result"])))))
    assert doc["ok"] and doc["reason"] == "closed form"
    assert res < NEWTON_TOL and doc["residual"] == res


def test_cli_loop_mixing_kappa_massless_exit_2(capsys):
    # the k0 integrand 2 (1 + Delta) / k0^2 is not integrable at m = 0
    assert cli.main(["loop", "mixing", "--space", "kappa", "--mass", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_parse_ranges():
    assert cli._parse_d_range("1:8") == range(1, 9)
    assert list(cli._parse_lambda_grid("10:1000:3")) == pytest.approx([10.0, 100.0, 1000.0])
    for bad in ("0:8", "5:4", "1:8:2", "1.5:8", "1:100000"):
        with pytest.raises(ValueError):
            cli._parse_d_range(bad)
    for bad in ("0:10:5", "10:10:5", "10:inf:5", "10:100:2", "10:100:2.5", "10:100"):
        with pytest.raises(ValueError):
            cli._parse_lambda_grid(bad)


def test_cli_group_inline_space_uses_the_config_structure(tmp_path, capsys):
    sc = group_preset("su2_lambda", lam=1.0).structure
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"structure": json.loads(structure_json(sc))}))
    assert cli.main(["--config", str(conf), "group", "add", "--space", "inline",
                     "--p", "0.1,0,0", "--q", "0.2,0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == pytest.approx([0.3, 0.0, 0.0])


def test_cli_inline_structure_needs_no_deformation(tmp_path, capsys):
    # the tensor carries the scale, so a structure names none
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"structure": {
        "name": "k", "dim": 2,
        "entries": [{"mu": 0, "nu": 1, "rho": 1, "re": 0.0, "im": 1.0},
                    {"mu": 1, "nu": 0, "rho": 1, "re": 0.0, "im": -1.0}]}}))
    assert cli.main(["--config", str(conf), "group", "add", "--space", "inline",
                     "--p", "0.5,0", "--q", "0.25,0"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["result"] == pytest.approx([0.75, 0.0])


@pytest.mark.parametrize("argv", [["modular", "--p", "1,0"],
                                  ["haar-check", "--p", "1,2", "--q", "0.5,0.3"]])
def test_cli_group_inline_refuses_haar_weights_of_a_non_unimodular_structure(argv, tmp_path,
                                                                          capsys):
    # C^{01}_1 = i = -C^{10}_1 composes like the ax+b group: tr ad x^0 = i, so
    # Delta(exp X) = e^{tr ad X} is not 1, and neither Haar density is flat
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"structure": {
        "name": "axb", "dim": 2,
        "entries": [{"mu": 0, "nu": 1, "rho": 1, "re": 0.0, "im": 1.0},
                    {"mu": 1, "nu": 0, "rho": 1, "re": 0.0, "im": -1.0}]}}))
    test_cli_group_bad_input_exit_2(["--config", str(conf), "group", *argv, "--space", "inline"],
                                    capsys)
    sc = group_preset("su2_lambda", lam=1.0).structure  # traceless: its weights stay 1
    conf.write_text(json.dumps({"structure": json.loads(structure_json(sc))}))
    assert cli.main(["--config", str(conf), "group", "modular", "--space", "inline",
                     "--p", "0.1,0.2,0.3"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == 1.0


def test_cli_group_inline_complex_result_exit_2(tmp_path, capsys):
    # this algebra's BCH composition of (1, 2) and (0.5, 3) has a nonzero
    # imaginary part, which a real result vector cannot show and a real
    # finite-difference Jacobian cannot differentiate
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"structure": {
        "name": "x", "dim": 2, "deformation": 1.0,
        "entries": [{"mu": 0, "nu": 1, "rho": 1, "re": 1.0, "im": 0.0},
                    {"mu": 1, "nu": 0, "rho": 1, "re": -1.0, "im": 0.0}]}}))
    for op in ("add", "haar-check"):
        test_cli_group_bad_input_exit_2(["--config", str(conf), "group", op, "--space", "inline",
                                         "--p", "1,2", "--q", "0.5,3"], capsys)


@pytest.mark.parametrize("op", ["add", "haar-check"])
def test_cli_group_inline_nonfinite_result_is_not_called_complex(op, tmp_path, capsys):
    # the BCH series overflows to NaN parts: the message names that, not complexity
    conf = tmp_path / "run.json"
    sc = group_preset("su2_lambda", lam=1.0).structure
    conf.write_text(json.dumps({"structure": json.loads(structure_json(sc))}))
    argv = ["--config", str(conf), "group", op, "--space", "inline",
            "--p", "1e200,1e200,0", "--q", "1e200,0,1e200"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "not finite" in err and "complex" not in err


SW_FIELD = {"components": [
    [{"exp": [0, 1, 0, 0], "re": "1/3", "im": "-2"}],
    [{"exp": [1, 0, 0, 0], "re": 2}, {"exp": [0, 0, 1, 1], "re": "-1/2", "im": 1}],
    [],
    [{"exp": [2, 0, 0, 0], "re": "1"}, {"exp": [0, 1, 0, 0], "re": 0.25}],
]}
SW_DEFAULT_OUT = (
    '[[{"exp":[0,0,0,1],"im":"0","re":"1/2"},{"exp":[0,1,1,0],"im":"0","re":"2"},'
    '{"exp":[0,1,2,0],"im":"0","re":"-1"},{"exp":[1,1,0,1],"im":"0","re":"1"}],'
    '[{"exp":[1,0,0,0],"im":"0","re":"6"},{"exp":[1,0,1,0],"im":"0","re":"-1"}],'
    '[{"exp":[0,0,0,0],"im":"0","re":"1"},{"exp":[1,1,0,0],"im":"0","re":"-1"}],'
    '[{"exp":[1,0,0,0],"im":"0","re":"-1/2"},{"exp":[1,0,0,1],"im":"0","re":"3"}]]')
SW_INPUT_OUT = (
    '[[{"exp":[0,1,0,0],"im":"-8/3","re":"41/9"}],'
    '[{"exp":[0,0,1,1],"im":"7/3","re":"-29/12"},{"exp":[0,1,0,1],"im":"1/4","re":"-1/8"},'
    '{"exp":[1,0,0,0],"im":"2","re":"17/3"},{"exp":[2,0,0,1],"im":"1","re":"-1/2"}],'
    '[{"exp":[0,1,0,1],"im":"2/3","re":"11/12"}],'
    '[{"exp":[0,1,0,0],"im":"1/2","re":"1/6"},{"exp":[0,1,1,0],"im":"2/3","re":"11/12"},'
    '{"exp":[1,0,1,1],"im":"2","re":"-1"},{"exp":[2,0,0,0],"im":"0","re":"5"}]]')


@pytest.mark.parametrize("field, expect", [(None, SW_DEFAULT_OUT), (SW_FIELD, SW_INPUT_OUT)])
def test_cli_gauge_sw_output_bytes(field, expect, tmp_path, capsys):
    argv = ["gauge", "sw"]
    if field is not None:
        path = tmp_path / "field.json"
        path.write_text(json.dumps(field))
        argv += ["--input", str(path)]
    assert cli.main(argv) == 0
    text = json.dumps({"A_hat": json.loads(expect)}, sort_keys=True, indent=1) + "\n"
    assert capsys.readouterr().out == text


@pytest.mark.parametrize("field", [
    {"components": [[{"re": 1}]]},               # a term without "exp"
    {"components": 5},
    [[{"exp": [1, 0, 0, 0], "re": 1}, {"exp": [1, 0], "re": 1}]],
    [[{"exp": [1, 0, 0, 0], "re": "x"}]],
    [[{"exp": [1, 0], "re": 1}]] * 3,              # more components than variables
    [[{"exp": [1, 0, 0, 0, 0], "re": 1}]] * 5,     # more components than Theta has rows
])
def test_cli_gauge_sw_bad_input_exit_2(field, tmp_path, capsys):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(field))
    test_cli_group_bad_input_exit_2(["gauge", "sw", "--input", str(path)], capsys)


# coefficients that Fraction cannot build, or could only build as a 10^|e| integer
UNREADABLE_COEFFICIENTS = [
    ({"re": "1/0"}, "/0/0/re"),
    ({"re": 1, "im": "-5/0"}, "/0/0/im"),
    ({"re": "1e999999999"}, "/0/0/re"),
    ({"re": "1e-999999999"}, "/0/0/re"),
    ({"re": "2", "im": "1E+9_999_999"}, "/0/0/im"),
]


def test_cli_gauge_sw_unreadable_coefficient_exit_2(tmp_path):
    """Each bad coefficient gives exit 2 and one `error:` line naming its key path, at once.

    The commands run in one fresh process with a time limit, so a parser that
    builds 10^999999999 fails the test instead of stalling the suite.
    """
    paths = []
    for i, (term, _) in enumerate(UNREADABLE_COEFFICIENTS):
        path = tmp_path / f"field{i}.json"
        path.write_text(json.dumps([[{"exp": [1, 0, 0, 0], **term}]]))
        paths.append(str(path))
    code = ("import contextlib, io, json, sys\n"
            "from qstkit import cli\n"
            "out = []\n"
            "for path in sys.argv[1:]:\n"
            "    o, e = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):\n"
            "        rc = cli.main(['gauge', 'sw', '--input', path])\n"
            "    out.append([rc, o.getvalue(), e.getvalue()])\n"
            "print(json.dumps(out))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *paths], env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr[-2000:]
    for (rc, out, err), (term, where) in zip(json.loads(proc.stdout), UNREADABLE_COEFFICIENTS):
        assert rc == 2 and out == "", term
        assert err.startswith(f"error: {where}: ") and len(err.strip().splitlines()) == 1, err


def test_cli_gauge_sw_long_unreadable_coefficient_is_not_echoed(tmp_path, capsys):
    # the message shows a 40-character prefix of the value, not 5,000 characters
    path = tmp_path / "field.json"
    path.write_text(json.dumps([[{"exp": [1, 0, 0, 0], "re": "x" * 5000}]]))
    assert cli.main(["gauge", "sw", "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: /0/0/re: expected a finite number, got '{'x' * 40}'…\n"


def _two_component_field(re0):
    """A_0 = re0 x_1 and A_1 = x_0, as the text of a JSON field."""
    return '[[{"exp": [0, 1], "re": %s}], [{"exp": [1, 0], "re": 1}]]' % re0


@pytest.mark.parametrize("re0, where", [
    ('"1%s"' % ("0" * 3000), "/0/0/re"),  # parses, but the SW map's products do not print
    ('"1/%s"' % ("3" * 5000), "/0/0/re"),  # too long for Fraction to read
    ("7" * 5000, "/0/0/re"),  # a JSON integer too long for int()
], ids=["3001-digit-numerator", "5000-digit-denominator", "5000-digit-json-integer"])
def test_cli_gauge_sw_over_long_coefficient_exit_2(re0, where, tmp_path, capsys):
    """An over-long coefficient is exit 2 with one `error:` line naming its key path,
    never Python's integer-printing limit, and the value is not echoed."""
    path = tmp_path / "field.json"
    path.write_text(_two_component_field(re0))
    assert cli.main(["gauge", "sw", "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {where}: ") and len(err.splitlines()) == 1, err
    assert len(err) < 200 and "4300" not in err


def _sw_digits(field_text):
    """The most digits of a numerator or denominator of `gauge sw`'s A_hat on a field."""
    from qstkit import gauge as GA
    A_hat = GA.sw_map_order1(GA.poly_field_from_json(field_text), cli._SW_THETA)
    return max(len(str(n)) for comp in A_hat.components for (e, _) in comp.terms
               for q in comp.coefficient(e) for n in (abs(q.numerator), q.denominator))


def test_cli_gauge_sw_digit_budget_bounds_the_output():
    """Coefficients under the budget in all give an A_hat that prints; a sum of products
    makes the output's denominators grow as p q^2, so one bound per coefficient is not enough."""
    from qstkit import gauge as GA
    half = (GA.MAX_COEFFICIENT_DIGITS - 8) // 2  # two 1/p coefficients, and "0" twice
    p, q = 10 ** (half - 1) + 7, 10 ** (half - 1) + 9
    text = '[[{"exp": [0, 1], "re": "1/%d"}], [{"exp": [1, 0], "re": "1/%d"}]]'
    assert 3 * half - 3 <= _sw_digits(text % (p, q)) < 4300
    with pytest.raises(ValueError, match="^/1/0: over .* coefficient digits in all$"):
        GA.poly_field_from_json(text % (p * 10 ** 10, q))


@pytest.mark.parametrize("value", [
    "41/9", "-29/12", "0", "7", "-1/8", 0, -3, 2 ** 80, 0.1, -2.5, 1e300, -1.5e-320, 5e-324,
    1.7976931348623157e308, 123.456e-7, "2e-3", "1.25", "1e1000", "-1E-1000",
])
def test_cli_gauge_sw_coefficients_parse_exactly(value):
    """What `poly_field_to_jsonable` writes, and any finite JSON number, reads as Fraction(str(value))."""
    from qstkit import gauge as GA
    doc = json.dumps([[{"exp": [1, 0, 0, 0], "re": value, "im": value}]])
    field = GA.poly_field_from_json(doc)
    want = Fraction(str(json.loads(doc)[0][0]["re"]))
    assert field.components[0].coefficient((1, 0, 0, 0)) == (want, want)
    again = GA.poly_field_from_json(json.dumps(GA.poly_field_to_jsonable(field)))
    assert again.components[0] == field.components[0]


def _fresh(*args):
    """The finished run of `python *args` in a fresh interpreter, with `src` on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("name", ["causality", "all"])
@pytest.mark.parametrize("kappa", ["0.05", "0.1"])
def test_suite_causality_refuses_a_small_kappa_in_one_line(name, kappa):
    # the spectral grid is checked before any kernel runs, so no numpy warning comes first
    proc = _fresh("-m", "qstkit.cli", "suite", name, "--kappa", kappa)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: grid too coarse for e^{-p0/kappa}: spectral aliasing\n"


def test_cli_causality_largest_grid(capsys):
    assert cli.main(["causality", "--grid", "8192", "--v", "0:0.5:0.5"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["check"] for r in rows] == ["cone-v+0.00", "cone-v+0.50"]


def test_cli_commands_load_only_their_modules():
    # each command imports the modules it runs, numpy among them, and none loads scipy
    code = ("import contextlib, io, json, sys\n"
            "def loaded():\n"
            "    return ({m.removeprefix('qstkit.') for m in sys.modules if m.startswith('qstkit')}\n"
            "            | {'numpy', 'scipy'} & set(sys.modules))\n"
            "import qstkit.cli\n"
            "steps, seen = [['import', 0, sorted(loaded())]], loaded()\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        rc = qstkit.cli.main(argv)\n"
            "    steps.append([argv[0], rc, sorted(loaded() - seen)])\n"
            "    seen = loaded()\n"
            "print(json.dumps(steps))\n")
    commands = [["group", "add", "--p", "1,2,3,4", "--q", "0,1,0,0"], ["hopf", "check"],
                ["matrix-basis", "--N", "4"], ["gauge", "dim-scan"],
                ["causality", "--v", "0:0:1", "--grid", "64"], ["loop", "bessel-check", "--grid", "1"]]
    proc = _fresh("-c", code, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["import", 0, ["cli", "qstkit"]],
        ["group", 0, ["liestructure", "momentum", "numpy"]],
        ["hopf", 0, ["hopf_algebra", "polyfield"]],
        ["matrix-basis", 0, ["moyal_matrix"]],
        ["gauge", 0, ["gauge"]],
        ["causality", 0, ["causality"]],
        ["loop", 0, ["loop"]],
    ]


def test_exact_commands_load_no_numpy():
    # the Hopf and twist engines, the SW map and the dimension scan are exact or
    # scalar arithmetic: none of them, nor the CLI around them, imports numpy
    code = ("import contextlib, io, json, sys\n"
            "import qstkit.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        rc = qstkit.cli.main(argv)\n"
            "    print(' '.join(argv), rc, 'numpy' in sys.modules)\n")
    commands = [["hopf", "check"], ["suite", "hopf"], ["suite", "twist"], ["gauge", "sw"],
                ["gauge", "dim-scan"]]
    proc = _fresh("-c", code, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{' '.join(argv)} 0 False" for argv in commands]


def test_import_qstkit_loads_no_numpy_and_exports_lazily():
    code = ("import sys\n"
            "import qstkit\n"
            "print('numpy' in sys.modules, set(qstkit.__all__) <= set(dir(qstkit)))\n"
            "print([n for n in qstkit.__all__ if getattr(qstkit, n).__name__ != n])\n"
            "print(hasattr(qstkit, 'no_such_name'))\n")
    proc = _fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False True", "[]", "False"]


def test_no_cli_command_loads_scipy():
    # scipy is a test-only oracle: no command, `suite all` included, imports it
    code = ("import contextlib, io, json, sys\n"
            "import qstkit.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        qstkit.cli.main(argv)\n"
            "    print(argv[0], 'scipy' in sys.modules)\n")
    commands = [["group", op, "--p", "0.7,0,0,0", "--q", "0.1,0.2,0,0"]
                for op in ("add", "inv", "modular", "haar-check", "delta-solve")]
    commands += [["hopf", "check"], ["matrix-basis", "--N", "4"], ["gauge", "dim-scan"],
                 ["gauge", "sw"], ["causality", "--v", "0:0:1", "--grid", "64"],
                 ["loop", "bessel-check"], ["loop", "mixing", "--space", "moyal"],
                 ["loop", "mixing", "--space", "kappa"], ["loop", "mixing", "--space", "commutative"],
                 ["suite", "all"]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300, check=True)
    assert proc.stdout.split() == [w for argv in commands for w in (argv[0], "False")]


def test_suite_all_does_not_load_numpy_ma():
    # np.unique imports numpy.ma on its first call, about 14 ms in a fresh
    # process: the report path does without it
    code = ("import contextlib, io, sys\n"
            "from qstkit import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(['suite', 'all'])\n"
            "print(rc, 'numpy.ma' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout == "0 False\n"


@pytest.mark.parametrize("caller, expect", [(None, "4"), ("28", "28")])
def test_import_sets_the_blas_thread_timeout_before_numpy(caller, expect):
    # OpenBLAS reads OPENBLAS_THREAD_TIMEOUT when numpy loads it, so the value
    # that counts is the one in the environment at numpy's first import
    code = ("import os, sys\n"
            "seen = []\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
            "sys.meta_path.insert(0, Spy())\n"
            "import contextlib, io, qstkit.cli\n"
            "assert not seen\n"  # import qstkit loads no numpy: the first command that needs it does
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    qstkit.cli.main(['group', 'add', '--p', '1,2,3,4', '--q', '0,1,0,0'])\n"
            "print(seen)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if caller is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = caller
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout == f"[{expect!r}]\n"


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a BLAS worker thread needs a second CPU")
@pytest.mark.parametrize("setup, call", [
    ("from qstkit.cli import RunConfig, run_suite",
     "run_suite('all', RunConfig())"),
    # the matrix kernels at kernel_scale's size
    ("from qstkit.moyal_matrix import identity_checks, partition_check",
     "identity_checks(256); partition_check(256)"),
    # the causality kernels at kernel_scale's size
    ("from qstkit.causality import GridSpec, cone_condition, lorentzian_axiom_check\n"
     "grid = GridSpec(1024, 10.0)",
     "lorentzian_axiom_check(grid, 1.0); cone_condition(grid, 1.0, 1, 1.0, 0.5)"),
], ids=["suite-all", "matrix-n256", "causality-n1024"])
def test_suite_all_makes_no_threaded_blas_call(setup, call):
    # With numpy loaded first, OpenBLAS keeps its default thread timeout, so a
    # threaded call leaves an idle worker spinning for about 0.13 s: process
    # CPU time (every thread) then exceeds the wall time of the run.
    code = ("import json, time\n"
            "import numpy\n"
            f"{setup}\n"
            f"{call}\n"
            "time.sleep(0.3)\n"
            "c0, w0 = time.process_time(), time.perf_counter()\n"
            f"{call}\n"
            "wall = time.perf_counter() - w0\n"
            "time.sleep(0.3)\n"
            "print(json.dumps([wall, time.process_time() - c0]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_THREAD_TIMEOUT", "OPENBLAS_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    wall, cpu = json.loads(proc.stdout)
    assert cpu <= wall + 0.05


def test_cli_loop_unknown_space_names_the_spaces(capsys):
    assert cli.main(["loop", "mixing", "--space", "foo"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert all(space in err for space in ("moyal", "kappa", "commutative"))


def test_cli_bessel_check_nan_ratio_warns_nothing(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["loop", "bessel-check", "--grid", "0.001,1000"]) == 1
    assert caught == []
    assert capsys.readouterr().err == ""


def test_cli_non_finite_values_are_null_and_fail(capsys):
    def no_constant(name):
        raise AssertionError(f"bare {name} in the JSON report")

    argv = ["loop", "bessel-check", "--grid", "0.001,1000"]  # the m = 1000 ratios are NaN
    assert cli.main(argv) == 1
    rep = json.loads(capsys.readouterr().out, parse_constant=no_constant)
    assert rep["max_rel_dev"] is None and rep["passed"] is False
    assert cli.main([*argv, "--format", "csv"]) == 1
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert any(r[3] == "nan" for r in rows)
    assert not any(r[2] == "True" and r[3] == "nan" for r in rows)


def test_cli_bessel_rows_carry_their_own_verdict(capsys):
    # at kappa = 0.05, m = 20 the d = 2 oracle underflows QUADPACK's absolute
    # tolerance and its ratio leaves the mean: those rows fail, the run exits 1
    argv = ["loop", "bessel-check", "--grid", "0.05,20", "--format", "csv"]
    assert cli.main(argv) == 1
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 8 and any(r["passed"] == "False" for r in rows)
    assert cli.main(["loop", "bessel-check", "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 18 and all(r["passed"] == "True" for r in rows)


def _csv_rows(argv, capsys):
    assert cli.main([*argv, "--format", "csv"]) == 0
    return list(csv.reader(io.StringIO(capsys.readouterr().out)))


def test_cli_hopf_and_matrix_basis_write_the_suite_rows_as_csv(capsys):
    hopf = _csv_rows(["hopf", "check"], capsys)
    assert hopf == _csv_rows(["suite", "hopf"], capsys)[:-1]  # less E-vs-P0-series-consistency
    assert len(hopf) > 2
    matrix = _csv_rows(["matrix-basis", "--N", "32", "--seed", "3"], capsys)
    assert matrix == _csv_rows(["suite", "matrix", "--seed", "3"], capsys)
    assert _csv_rows(["matrix-basis", "--N", "8"], capsys)[-1][1] == "partition-of-unity-diagonal"


def test_cli_config_jobs_is_an_unknown_key(tmp_path, capsys):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"jobs": 1}))
    assert cli.main(["--config", str(conf), "suite", "mixing"]) == 2
    assert capsys.readouterr().err == "error: /jobs: unknown key\n"


def test_cli_matrix_roundoff_is_an_unknown_tolerance_key(tmp_path, capsys):
    # every matrix-basis identity holds exactly, so no tolerance judges those rows
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"tolerances": {"matrix.roundoff": 0}}))
    for argv in (["matrix-basis", "--N", "32", "--tol-override", "matrix.roundoff=0"],
                 ["--config", str(conf), "suite", "matrix"]):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: ") and "unknown tolerance key" in err


def test_cli_dim_scan_rows_pass_on_the_constraint(capsys):
    rows = _csv_rows(["gauge", "dim-scan"], capsys)[1:]
    assert [r[1] for r in rows] == [f"dim-{d}" for d in range(1, 9)]
    assert all(r[2] == "True" for r in rows)
    # every deviation rounds to 0: the scan cannot resolve the constraint
    assert cli.main(["gauge", "dim-scan", "--kappa", "1e300", "--format", "csv"]) == 1
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["check"] for r in rows if r["passed"] == "False"] == [
        f"dim-{d}" for d in range(1, 9) if d != 4]


@pytest.mark.parametrize("argv", [
    ["suite", "twist"],
    ["suite", "matrix", "--seed", "3"],
    ["hopf", "check"],
    ["matrix-basis", "--N", "8"],
    ["matrix-basis", "--N", "1"],
    ["loop", "bessel-check", "--grid", "1,2"],
    ["loop", "bessel-check", "--grid", "0.05,20"],
    ["loop", "mixing", "--space", "commutative"],
    ["loop", "mixing", "--space", "moyal", "--lambda-grid", "10:20:3"],
    ["gauge", "dim-scan"],
    ["gauge", "dim-scan", "--kappa", "1e300"],
    ["causality", "--grid", "64", "--v", "0:1:1"],
])
def test_cli_exit_code_is_the_rows_verdict(argv, capsys):
    # one exit rule: 0 exactly when every row passed; a document's own
    # `passed` is the same verdict
    code = cli.main([*argv, "--format", "csv"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows and code == (0 if all(r["passed"] == "True" for r in rows) else 1)
    assert cli.main(argv) == code
    doc = json.loads(capsys.readouterr().out)
    assert doc.get("passed", code == 0) is (code == 0)


def test_readme_cli_examples_parse():
    # every `qstkit ...` line of README's CLI code block parses; nothing runs
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    lines = [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
             if line.startswith("qstkit ")]
    assert len(lines) >= 10
    for argv in lines:
        cli._parser().parse_args(argv)  # a ConfigError on an option that is gone


@pytest.mark.parametrize("lam", [1e5, 1e8])
def test_cli_unstable_structure_recovery_fails_its_row(lam, tmp_path, capsys):
    # su2's finite-difference Hessian gives up at large lam; that fails one
    # row, and every other row of the suite is still written
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"lam": lam}))
    assert cli.main(["--config", str(conf), "suite", "group", "--format", "csv"]) == 1
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["check"] for r in rows] == [r["check"] for r in cli.suite_group(cli.RunConfig())]
    row = next(r for r in rows if r["check"] == "structure-roundtrip-su2_lambda")
    assert row["passed"] == "False" and row["residual"] == "nan"
    assert "Hessian estimate unstable" in row["detail"]


def test_every_tolerance_key_can_change_a_verdict():
    # a tolerance set to 0 flips at least one row of the suite its prefix names
    cfg = cli.RunConfig(samples=40)
    names = {key.split(".")[0] for key in cli.DEFAULT_TOLERANCES}
    base = {name: [r["passed"] for r in cli.SUITE_FUNCS[name](cfg)] for name in names}
    for key in cli.DEFAULT_TOLERANCES:
        name = key.split(".")[0]
        zero = dataclasses.replace(cfg, tolerances={**cfg.tolerances, key: 0.0})
        assert [r["passed"] for r in cli.SUITE_FUNCS[name](zero)] != base[name], key


def test_readme_lists_the_tolerance_keys():
    # README's tolerance table names each key of DEFAULT_TOLERANCES with its default
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.findall(r"^\| `([a-z]+\.[a-z]+)` \| ([0-9.e-]+) \|", text, re.M)
    assert {key: float(val) for key, val in table} == cli.DEFAULT_TOLERANCES
    assert len(table) == len(cli.DEFAULT_TOLERANCES)
