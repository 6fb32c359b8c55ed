"""Computational toolkit for Lie-algebra-type quantum space-times.

Deformed momentum groups with their Haar/modular machinery, the plane-wave
star algebra and its twisted trace, an exact kappa-Poincare Hopf engine,
Drinfel'd twist checks, the Moyal matrix basis, one-loop two-point
machinery with UV/IR-mixing classification, twisted gauge-structure checks
and a discretized causality toy model.
"""

import os

# OpenBLAS reads this once, when numpy first loads it, so it must be set
# before the import of .liestructure below and has no effect in a process
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

from .liestructure import StructureConstants, preset, jacobi_check, recover_from_group_law  # noqa: E402
from .momentum import GroupDescriptor, group_preset, add, inv, modular  # noqa: E402

__all__ = [
    "StructureConstants",
    "preset",
    "jacobi_check",
    "recover_from_group_law",
    "GroupDescriptor",
    "group_preset",
    "add",
    "inv",
    "modular",
]

__version__ = "0.1.0"
