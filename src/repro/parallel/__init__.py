"""``repro.parallel`` — multiprocess execution for independent work.

The litho/ILT workloads downstream of Algorithm 2 and the Fig. 6 flow
are dominated by per-clip computations that share nothing but the
kernel set.  Four fan-outs run them one clip (or tile) per task:
:func:`parallel_ilt` (per-clip :class:`~repro.ilt.ILTOptimizer` runs),
:func:`parallel_flow` (the GAN-OPC flow and the clip-parallel Table 2),
``SyntheticDataset.precompute(workers=N)`` (the training library) and
the tiled full-chip runner in :mod:`repro.tiling`.  This package
provides

* a process pool (:class:`WorkerPool`) with one warm
  :class:`~repro.litho.engine.LithoEngine` per worker (kernels loaded
  once; inherited from the parent under ``fork``),
* shared-memory ndarray transport (:class:`SharedArray` /
  :class:`ShmSpec`) so image batches are never pickled; the parent
  creates every segment in a ``with SharedArray...`` block, so it is
  unlinked however the fan-out ends,
* strict error discipline (:class:`WorkerTaskError` carries remote
  tracebacks; a dead worker raises :class:`WorkerCrashError`, never a
  hang), and
* per-worker utilization accounting (:class:`PoolStats`) surfaced by
  ``repro profile --workers N``.

Float64 parallel results are bit-exact versus their serial
counterparts; float32 precision mode is covered by the documented
tolerance in DESIGN.md §10.
"""

from .ilt import ParallelILTResult, parallel_ilt
from .flow import generator_payload, parallel_flow
from .pool import (PoolStats, WorkerCrashError, WorkerPool, WorkerTaskError,
                   attach_array, default_context, worker_engine, worker_state)
from .shm import SharedArray, ShmSpec

__all__ = [
    "WorkerPool", "PoolStats", "WorkerTaskError", "WorkerCrashError",
    "SharedArray", "ShmSpec",
    "parallel_ilt", "ParallelILTResult",
    "parallel_flow", "generator_payload",
    "attach_array", "worker_engine", "worker_state", "default_context",
]
