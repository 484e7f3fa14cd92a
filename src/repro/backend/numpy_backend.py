"""The numpy reference backend — pure delegation, bit-identical.

Every method forwards to the exact ``np.*`` call the engine and nn
substrate made inline before the seam existed, so the numpy path
produces bit-identical results by construction (the existing 1e-10
parity suites run unchanged against it).  ``to_numpy`` is the
identity, keeping the host path allocation-free.
"""

from __future__ import annotations

import numpy as np

from .base import ArrayBackend


class NumpyBackend(ArrayBackend):
    name = "numpy"
    device = "cpu"
    xp = np

    @classmethod
    def is_available(cls) -> bool:
        return True

    def asarray(self, array, dtype=None):
        return np.asarray(array, dtype=dtype)

    def to_numpy(self, array) -> np.ndarray:
        return np.asarray(array)

    def is_native(self, array) -> bool:
        return isinstance(array, np.ndarray)

    def take(self, array, indices, axis: int, out):
        # With ``out``, mode "raise" gathers through a temporary buffer;
        # the indices are valid, so "clip" only skips that copy.
        return np.take(array, indices, axis=axis, out=out, mode="clip")
