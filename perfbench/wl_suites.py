"""verify_suites: the full 8-suite verification report, in-process and warm.

One pass is `run_suite("all", RunConfig(seed=...))` at default sizes, the
product's main output.  It is made of many small calls (the scalar group
law once per sample, 5-term packets, n=256 grids, N=32 matrices), so
per-call overhead and Python-level loops dominate and imports cost nothing.
"""

from __future__ import annotations

import json
import time

import checks
from common import median, peak_rss_mb

IN_PROCESS = True


class Workload:
    def __init__(self, seed):
        from qstkit import cli
        self.cli = cli
        self.seed = seed % 2 ** 31
        self.reference = None
        self.warm_errors = self.check(self.run_pass())[2]

    def run_pass(self, traced=False):
        t0 = time.perf_counter()
        code, rep = self.cli.run_suite("all", self.cli.RunConfig(seed=self.seed))
        return {"ops": {"run_suite": time.perf_counter() - t0}, "out": (code, rep)}

    def check(self, res):
        code, rep = res["out"]
        encoded = json.dumps(rep, sort_keys=True).encode()
        if self.reference is None:
            self.reference = encoded
        self.rows = len(rep["rows"])
        errors = checks.expect(f"run_suite exit code {code}", code == 0)
        errors += checks.check_rows(rep)
        errors += checks.check_paper({r["check"]: r for r in rep["rows"]})
        errors += checks.expect("report: not all 8 suites ran",
                                len(rep["suites"]) == 8
                                and {r["suite"] for r in rep["rows"]} == set(rep["suites"]))
        errors += checks.expect("report bytes differ between passes of one seed",
                                encoded == self.reference)
        return 1, 0, errors

    def peak_rss_mb(self):
        return peak_rss_mb()

    def layer_metrics(self, plain, traced):
        out = {f"suite.{s}_s": median([r["trace"]["total_s"].get(f"cli.suite_{s}", 0.0)
                                       for r in traced])
               for s in self.cli.SUITE_FUNCS}
        out["suite.rows"] = self.rows
        return out
