import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qstkit import cli
from qstkit.liestructure import preset
from qstkit.momentum import group_preset


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
    sc = preset("su2_lambda", lam=1.0)
    text = json.dumps({"structure": json.loads(sc.to_json())})
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
    sc = preset("su2_lambda", lam=1.0)
    C = sc.C.copy()
    C[0, 1, 2] = -C[0, 1, 2]
    bad = json.loads(sc.to_json())
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
    assert len(ids) == 81
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


def test_cli_loop_mixing_inconclusive_rows_fail(capsys):
    argv = ["loop", "mixing", "--space", "moyal", "--lambda-grid", "10:20:3", "--format", "csv"]
    assert cli.main(argv) == 1
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 3
    assert all(r["passed"] == "False" and r["detail"] == "INCONCLUSIVE" for r in rows)
    assert cli.main(["loop", "mixing", "--space", "kappa", "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows and all(r["passed"] == "True" and r["detail"] == "NO_MIXING" for r in rows)


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
    sc = preset("su2_lambda", lam=1.0)
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"structure": json.loads(sc.to_json())}))
    assert cli.main(["--config", str(conf), "group", "add", "--space", "inline",
                     "--p", "0.1,0,0", "--q", "0.2,0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == pytest.approx([0.3, 0.0, 0.0])


def test_cli_group_inline_complex_result_exit_2(tmp_path, capsys):
    # this algebra's BCH composition of (1, 2) and (0.5, 3) has a nonzero
    # imaginary part, which a real result vector cannot show
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"structure": {
        "name": "x", "dim": 2, "deformation": 1.0,
        "entries": [{"mu": 0, "nu": 1, "rho": 1, "re": 1.0, "im": 0.0},
                    {"mu": 1, "nu": 0, "rho": 1, "re": -1.0, "im": 0.0}]}}))
    test_cli_group_bad_input_exit_2(["--config", str(conf), "group", "add", "--space", "inline",
                                     "--p", "1,2", "--q", "0.5,3"], capsys)


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


def test_cli_causality_largest_grid(capsys):
    assert cli.main(["causality", "--grid", "8192", "--v", "0:0.5:0.5"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["check"] for r in rows] == ["cone-v+0.00", "cone-v+0.50"]


def test_cli_commands_load_only_their_modules():
    # each command imports the kernel modules it runs, and only `loop` loads scipy
    code = ("import contextlib, io, json, sys\n"
            "def loaded():\n"
            "    return ({m.removeprefix('qstkit.') for m in sys.modules if m.startswith('qstkit')}\n"
            "            | {'scipy'} & set(sys.modules))\n"
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
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout) == [
        ["import", 0, ["cli", "liestructure", "momentum", "qstkit"]],
        ["group", 0, []],
        ["hopf", 0, ["hopf_algebra", "polyfield"]],
        ["matrix-basis", 0, ["moyal_matrix"]],
        ["gauge", 0, ["gauge", "waves"]],
        ["causality", 0, ["causality"]],
        ["loop", 0, ["loop", "scipy"]],
    ]


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


def test_cli_matrix_basis_verdict_reads_the_configured_tolerance(capsys):
    # associativity holds to float roundoff, not exactly: a zero tolerance fails it
    argv = ["matrix-basis", "--N", "32", "--tol-override", "matrix.roundoff=0"]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


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
    ["suite", "matrix", "--tol-override", "matrix.roundoff=0"],
    ["hopf", "check"],
    ["matrix-basis", "--N", "8"],
    ["matrix-basis", "--tol-override", "matrix.roundoff=0"],
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
