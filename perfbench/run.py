"""qstkit benchmark: one workload, a closed loop of fixed passes, checked outputs.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads are listed in BENCHMARK.json and
described in perfbench/README.md.  The process builds its inputs from the
seed, sets up (imports, inputs, one untimed warm-up), then repeats passes of
the workload's fixed operations until S seconds have passed, at least
MIN_PASSES times.  Every output is checked.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: setup_s (median of SETUP_SAMPLES
set-ups, the extra ones in fresh processes), pass_s and cpu_s (medians over
passes) and peak_rss_mb.  --trace 1 alternates untraced and traced passes
and reports the per-layer metrics; spans wrap qstkit's public functions
(spans.py) and the spans of the last traced pass are written to
perfbench/out/.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # workload start: before numpy or qstkit is imported

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from common import OUT, ROOT, SRC, cpu_seconds, machine_facts, median, run_child  # noqa: E402

WORKLOADS = {"cli_oneshot": "wl_cli", "verify_suites": "wl_suites", "kernel_scale": "wl_kernels"}
SETUP_SAMPLES = 3
MIN_PASSES = 2
IMPORT_REPEATS = 3
INTERP_REPEATS = 5
COUNTS = {"momentum.add_calls": "momentum.law_add", "momentum.inv_calls": "momentum.law_inv",
          "waves.star_calls": "waves.star", "loop.quad_calls": "loop.quad"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up time as JSON and exit")
    return ap.parse_args(argv)


def measure(wl, tracer, traced):
    """One pass: wall and CPU seconds, the outputs and, if traced, the span summary."""
    if traced and tracer is not None:
        tracer.reset()
        tracer.active = True
    c0, t0 = cpu_seconds(), time.perf_counter()
    res = wl.run_pass(traced)
    res["wall"], res["cpu"], res["traced"] = time.perf_counter() - t0, cpu_seconds() - c0, traced
    if traced and tracer is not None:
        tracer.active = False
        res["trace"] = tracer.summary()
    elif traced:
        res["trace"] = wl.trace_summary()
    return res


def extra_setups(args):
    """Set-up times of SETUP_SAMPLES - 1 fresh processes, and their check errors."""
    samples, errors = [], []
    for i in range(SETUP_SAMPLES - 1):
        rc, out, err, _, _ = run_child(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            tag=f"setup{i}")
        if rc != 0:
            raise RuntimeError(f"set-up process exited {rc}: {err.strip()[-400:]}")
        rep = json.loads(out.strip().splitlines()[-1])
        samples.append(rep["setup_s"])
        errors += rep["errors"]
    return samples, errors


def import_scipy_s(stderr: str) -> float:
    """Cumulative -X importtime seconds of scipy modules not imported by another scipy module."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if cum.strip().isdigit():
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(cum)))
    total = 0
    for i, (depth, name, cum) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        # -X importtime prints a module after its imports: the parent is the next shallower row
        parent = next((n for d, n, _ in rows[i + 1:] if d < depth), "")
        if parent.split(".")[0] != "scipy":
            total += cum
    return total * 1e-6


def startup_metrics() -> dict:
    py = sys.executable

    def wall(cmd, i):
        rc, _, err, t, _ = run_child(cmd, tag=f"startup{i}")
        if rc != 0:
            raise RuntimeError(f"{cmd} exited {rc}: {err.strip()[-400:]}")
        return t, err

    interp = [wall([py, "-c", "pass"], 0)[0] for _ in range(INTERP_REPEATS)]
    imp = [wall([py, "-c", "import qstkit.cli"], 1)[0] for _ in range(IMPORT_REPEATS)]
    sci = [import_scipy_s(wall([py, "-X", "importtime", "-c", "import qstkit.cli"], 2)[1])
           for _ in range(IMPORT_REPEATS)]
    return {"cli.interp_s": median(interp), "cli.import_s": median(imp),
            "cli.import_scipy_s": median(sci)}


def layer_metrics(wl, plain, traced) -> dict:
    from spans import MODULES
    summaries = [r["trace"] for r in traced]
    out = startup_metrics()
    for m in MODULES:
        out[f"{m}.self_s"] = median([s["module_self_s"][m] for s in summaries])
    for metric, span in COUNTS.items():
        out[metric] = median([s["count"].get(span, 0) for s in summaries])
    out["trace.spans"] = median([s["spans"] for s in summaries])
    out["trace.overhead_s"] = median([r["wall"] for r in traced]) - median([r["wall"] for r in plain])
    out.update(wl.layer_metrics(plain, traced))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qstkit", "__init__.py")):
        sys.stderr.write(f"error: no qstkit sources under {SRC}; run from a qstkit checkout\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    module = importlib.import_module(WORKLOADS[args.workload])

    tracer = None
    if args.trace and module.IN_PROCESS:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    wl = module.Workload(args.seed)  # imports, inputs and the untimed warm-up
    setup = [time.perf_counter() - T_START]
    errors = list(wl.warm_errors)
    if args.setup_only:
        print(json.dumps({"setup_s": setup[0], "errors": errors}))
        return 0

    import checks
    errors += [f"negative control not rejected: {name}" for name in checks.negative_controls()]
    if not args.trace:
        more, errs = extra_setups(args)
        setup += more
        errors += errs

    passes = []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES * (1 + args.trace) or time.perf_counter() < deadline:
        res = measure(wl, tracer, traced=bool(args.trace) and len(passes) % 2 == 1)
        a, f, errs = wl.check(res)
        attempted, failed = attempted + a, failed + f
        errors += errs
        del res["out"]  # checked; large outputs are not kept across passes
        passes.append(res)

    if args.trace:
        if tracer is not None:
            tracer.dump(os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json.gz"))
        plain = [r for r in passes if not r["traced"]]
        traced = [r for r in passes if r["traced"]]
        values = layer_metrics(wl, plain, traced)
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": median(setup), "pass_s": median([r["wall"] for r in passes]),
                  "cpu_s": median([r["cpu"] for r in passes]), "peak_rss_mb": wl.peak_rss_mb()}
        wanted = spec["end_to_end"]
    names = {m["name"] for m in wanted}
    if set(values) - names or (not args.trace and names - set(values)):
        raise KeyError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ names)}")
    # a layer this workload does not reach reads 0
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}

    raw = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "machine": machine_facts(), "setup_s": setup,
           "passes": [{k: r[k] for k in ("wall", "cpu", "traced", "ops")} for r in passes],
           "errors": errors, "metrics": metrics}
    with open(os.path.join(OUT, f"run-{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(raw, fh, indent=1)
    for e in errors[:20]:
        sys.stderr.write(f"check failed: {e}\n")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
