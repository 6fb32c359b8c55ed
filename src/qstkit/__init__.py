"""Computational toolkit for Lie-algebra-type quantum space-times.

Deformed momentum groups with their Haar/modular machinery, the plane-wave
star algebra and its twisted trace, an exact kappa-Poincare Hopf engine,
Drinfel'd twist checks, the Moyal matrix basis, one-loop two-point
machinery with UV/IR-mixing classification, twisted gauge-structure checks
and a discretized causality toy model.
"""

import importlib
import os

# OpenBLAS reads this once, when numpy first loads it, so it must be set
# before anything in qstkit imports numpy and has no effect in a process
# that loaded numpy before qstkit.  Its default of 28 keeps each idle worker
# thread busy-waiting for 2^28 TSC cycles (about 0.13 s at 2.1 GHz) after
# start-up and after every threaded BLAS call.  On a 2-vCPU host that spin
# doubled the CPU time of `import numpy` (0.17 s against 0.09 s with 4),
# and a busy neighbour can halve the interpreter's speed (a pure-Python
# loop: 0.38 s alone, up to 0.81 s beside a spinning process).  With 4 the
# workers sleep almost at once and large products still use every thread,
# unlike OPENBLAS_NUM_THREADS=1 (a 1024^2 complex matmul: 159 ms on one
# thread, 84 ms on two with timeout 4).  A value the caller set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

# name -> the module that defines it; each loads on first access (PEP 562), so
# `import qstkit` loads no numpy and the exact engine runs without it
_EXPORTS = {
    **dict.fromkeys(("StructureConstants", "jacobi_check", "recover_from_group_law"),
                    "liestructure"),
    **dict.fromkeys(("GroupDescriptor", "group_preset", "add", "inv", "modular"), "momentum"),
}
__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
