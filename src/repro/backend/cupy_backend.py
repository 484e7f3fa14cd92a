"""The optional cupy/GPU backend, resolved lazily.

``cupy`` is imported only when the backend is instantiated (i.e. when
``REPRO_BACKEND=cupy`` / ``--backend cupy`` actually selects it), so
merely importing ``repro.backend`` never touches CUDA.  A missing or
broken cupy installation surfaces as :class:`BackendUnavailableError`,
which the test suite translates into a skip.

cupy arrays implement the NEP-18 / ``__array_ufunc__`` protocols, so
the elementwise arithmetic sprinkled through the engine (``np.multiply``,
``np.exp`` on spectra, sigmoid clamps) dispatches to the GPU without
any further seam — only allocation, transfer and GEMM/FFT go through
the explicit backend methods.
"""

from __future__ import annotations

import numpy as np

from .base import ArrayBackend, BackendUnavailableError

_CUPY = None
_CUPY_ERROR = None


def _load_cupy():
    """Import cupy once and verify a device is actually usable."""
    global _CUPY, _CUPY_ERROR
    if _CUPY is not None or _CUPY_ERROR is not None:
        return _CUPY
    try:
        import cupy  # noqa: PLC0415 - deliberate lazy import
        # A toolkit-less install imports fine but has no device; force
        # the failure here so it maps to a skip, not a mid-run crash.
        cupy.cuda.runtime.getDeviceCount()
        _CUPY = cupy
    except Exception as exc:  # ImportError or CUDARuntimeError alike
        _CUPY_ERROR = exc
    return _CUPY


class CupyBackend(ArrayBackend):
    name = "cupy"
    device = "cuda"

    def __init__(self) -> None:
        cupy = _load_cupy()
        if cupy is None:
            raise BackendUnavailableError(
                f"cupy backend unavailable: {_CUPY_ERROR!r}")
        self.xp = cupy

    @classmethod
    def is_available(cls) -> bool:
        return _load_cupy() is not None

    def asarray(self, array, dtype=None):
        return self.xp.asarray(array, dtype=dtype)

    def to_numpy(self, array) -> np.ndarray:
        if isinstance(array, np.ndarray):
            return array
        return self.xp.asnumpy(array)

    def is_native(self, array) -> bool:
        return isinstance(array, self.xp.ndarray)

    def synchronize(self) -> None:
        self.xp.cuda.get_current_stream().synchronize()
