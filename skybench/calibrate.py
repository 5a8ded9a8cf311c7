"""Machine-speed reference for the in-process workloads.

On a shared machine the CPU an in-process run gets can be 1.5x slower for
tens of seconds at a time, whatever the program does.  A fixed kernel -
small NumPy word operations, bit unpacking and packing, interpreter
overhead, the mix of one protocol round - is timed between query
executions, outside the timed regions and with the garbage collector off,
so the program's heap cannot change it.  Dividing a run's times by the
kernel's median time in that run, and multiplying by REFERENCE_MS, reports
them at one reference speed.
"""

from __future__ import annotations

import gc
import time

import numpy as np

REFERENCE_MS = 5.0  # the kernel's time on the reference machine

_A = np.arange(1024, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
_B = _A[::-1].copy()


def reference_seconds() -> float:
    gc.disable()
    try:
        started = time.perf_counter()
        for i in range(400):
            x = (_A ^ _B) & (_A >> np.uint64(i % 61))
            packed = np.packbits(np.unpackbits(x.view(np.uint8))).view(np.uint64)
            _ = int(packed[i % 1024]) + len((i, x))
        return time.perf_counter() - started
    finally:
        gc.enable()
