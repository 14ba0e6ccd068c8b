"""Host speed reference: a fixed eigensolve timed between the jobs of a run.

The benchmark runs on shared hosts whose speed drifts by a third or more for
minutes at a time as neighbours come and go, and every job slows with it,
wall and CPU time alike.  The benchmark times this reference after every job
of the untraced passes and reports ``wall_s`` and ``cpu_s`` multiplied by
``REF_S / median reference time``: the time the pass would take on a host
where the reference takes ``REF_S``.  The reference runs no code of the
package, so a change to the package moves the scaled times as much as the
raw ones, which are printed beside them.

Of the references tried (a pure-Python loop, a loop of small numpy products,
complex and real dense eigensolves), the real eigensolve tracked the host's
drift best on both the eigensolver-bound and the interpreter-bound
workloads; the loops carry a per-process offset of their own.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Reference wall time on a quiet 2-vCPU x86-64 VM (Python 3.11, numpy 2.4,
#: OpenBLAS 0.3.31, one BLAS thread); it only sets the scale of the metrics.
REF_S = 0.05

_M = np.random.default_rng(20111).standard_normal((300, 300))


def reference() -> tuple:
    """(wall, cpu) seconds of one run of the reference."""
    w0, c0 = time.perf_counter(), time.process_time()
    np.linalg.eigvals(_M)
    return time.perf_counter() - w0, time.process_time() - c0


def scale(samples, cpu: bool = False) -> float:
    """Factor that takes a wall (with ``cpu``, a CPU) time measured during
    these reference samples to the reference speed."""
    return REF_S / statistics.median(s[1] if cpu else s[0] for s in samples)
