"""Paths, child processes, CPU clocks and machine facts shared by the workloads."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 150


def median(values):
    return statistics.median(values)


def cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has waited for."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd, tag="child"):
    """Run cmd from the repository root; returns (exit code, stdout, stderr, wall s, peak RSS MB).

    The child is reaped with wait4, which gives its own peak resident set;
    a timer kills it if it outlives CHILD_TIMEOUT_S.
    """
    os.makedirs(OUT, exist_ok=True)
    out_path, err_path = (os.path.join(OUT, f"{tag}.{s}") for s in ("stdout", "stderr"))
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=ROOT, env=child_env())
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fo, open(err_path) as fe:
        return proc.returncode, fo.read(), fe.read(), wall, usage.ru_maxrss / 1024.0


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    import numpy  # noqa: F401  (loads the BLAS library)
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def machine_facts() -> dict:
    import numpy
    import scipy
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu, "blas_threads": blas_threads(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}
