"""Backend registry + numpy reference backend bit-exactness.

The numpy backend must be a pure pass-through: every seam method
returns bit-identical results to the inline numpy calls the engine and
nn substrate used to make before the seam existed.  The cupy backend
is environment-dependent: on machines without a working GPU install it
must raise :class:`BackendUnavailableError` at *resolve* time (tests
skip, they never fail, and nothing cupy-related is imported at module
import time).
"""

import numpy as np
import pytest

from repro.backend import (ArrayBackend, BackendUnavailableError, BACKENDS,
                           CupyBackend, NumpyBackend, available_backends,
                           get_backend, resolve_backend, set_backend)


class TestResolution:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None).name == "numpy"

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert resolve_backend(None).name == "numpy"

    @pytest.mark.parametrize("alias", ["numpy", "np", "cpu", "NumPy", " np "])
    def test_aliases(self, alias):
        assert resolve_backend(alias).name == "numpy"

    def test_instance_passthrough(self):
        backend = resolve_backend("numpy")
        assert resolve_backend(backend) is backend

    def test_memoized(self):
        assert resolve_backend("numpy") is resolve_backend("cpu")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("tpu")

    def test_registry_contents(self):
        assert BACKENDS["numpy"] is NumpyBackend
        assert BACKENDS["cupy"] is CupyBackend

    def test_available_backends_never_raises(self):
        availability = available_backends()
        assert availability["numpy"] is True
        assert isinstance(availability["cupy"], bool)

    def test_set_backend_roundtrip(self):
        try:
            installed = set_backend("numpy")
            assert get_backend() is installed
        finally:
            set_backend(None)

    def test_set_backend_none_resets_to_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        set_backend(None)
        assert get_backend().name == "numpy"


class TestCupyUnavailable:
    """cupy without a GPU must skip, not fail."""

    def test_resolve_skips_or_works(self):
        if not CupyBackend.is_available():
            with pytest.raises(BackendUnavailableError,
                               match="cupy backend unavailable"):
                resolve_backend("cupy")
            pytest.skip("cupy backend unavailable on this machine")
        backend = resolve_backend("cupy")
        host = np.arange(12.0).reshape(3, 4)
        device = backend.asarray(host)
        assert backend.is_native(device)
        np.testing.assert_array_equal(backend.to_numpy(device), host)

    def test_is_available_false_without_exception(self):
        # Must not raise regardless of the environment.
        assert CupyBackend.is_available() in (True, False)


class TestNumpyBitExactness:
    """Every seam method forwards to the exact numpy call."""

    def setup_method(self):
        self.backend = resolve_backend("numpy")
        self.rng = np.random.default_rng(7)

    def test_identity_and_nativeness(self):
        x = self.rng.random((4, 4))
        assert self.backend.asarray(x) is x
        assert self.backend.to_numpy(x) is x
        assert self.backend.is_native(x)
        assert not self.backend.is_native([1.0, 2.0])
        assert self.backend.xp is np

    def test_alloc(self):
        z = self.backend.zeros((3, 5), dtype=np.float32)
        assert z.shape == (3, 5) and z.dtype == np.float32
        assert not z.any()
        e = self.backend.empty((2, 2), dtype=np.complex128)
        assert e.shape == (2, 2) and e.dtype == np.complex128

    def test_matmul(self):
        a = self.rng.random((5, 6)) + 1j * self.rng.random((5, 6))
        b = self.rng.random((6, 7)) + 1j * self.rng.random((6, 7))
        np.testing.assert_array_equal(self.backend.matmul(a, b), a @ b)
        out = np.empty((5, 7), dtype=complex)
        result = self.backend.matmul(a, b, out=out)
        assert result is out
        np.testing.assert_array_equal(out, a @ b)

    def test_fft_family(self):
        x = self.rng.random((2, 8, 8))
        np.testing.assert_array_equal(self.backend.rfft2(x),
                                      np.fft.rfft2(x, axes=(-2, -1)))
        spec = np.fft.rfft2(x, axes=(-2, -1))
        np.testing.assert_array_equal(
            self.backend.irfft2(spec, s=(8, 8)),
            np.fft.irfft2(spec, s=(8, 8), axes=(-2, -1)))
        c = x.astype(complex)
        np.testing.assert_array_equal(self.backend.fft2(c),
                                      np.fft.fft2(c, axes=(-2, -1)))
        np.testing.assert_array_equal(self.backend.ifft2(c),
                                      np.fft.ifft2(c, axes=(-2, -1)))

    def test_take(self):
        x = self.rng.random((2, 3, 4, 5))
        indices = np.array([1, 0, 3, 1, 2])
        out = np.empty((2, 3, 5, 5))
        result = self.backend.take(x, indices, 2, out)
        assert result is out
        np.testing.assert_array_equal(out, np.take(x, indices, axis=2))

    def test_reductions(self):
        x = self.rng.random((3, 5))
        np.testing.assert_array_equal(self.backend.sum(x, axis=0),
                                      np.sum(x, axis=0))
        np.testing.assert_array_equal(self.backend.mean(x, axis=1),
                                      np.mean(x, axis=1))

    def test_synchronize_is_noop(self):
        assert self.backend.synchronize() is None

    def test_is_array_backend(self):
        assert isinstance(self.backend, ArrayBackend)


class TestEngineBackendParity:
    """An engine built with an explicit numpy backend is bit-identical
    to one built with no backend argument at all."""

    def test_forward_and_gradient_bit_exact(self):
        from repro.litho import LithoConfig, LithoEngine, build_kernels
        kernels = build_kernels(LithoConfig.small(32))
        rng = np.random.default_rng(0)
        masks = rng.random((2, 32, 32))
        targets = (rng.random((2, 32, 32)) > 0.5).astype(float)

        default = LithoEngine(kernels=kernels)
        explicit = LithoEngine(kernels=kernels,
                               backend=resolve_backend("numpy"))
        np.testing.assert_array_equal(default.aerial(masks),
                                      explicit.aerial(masks))
        e0, g0 = default.error_and_gradient_wrt_mask(masks, targets)
        e1, g1 = explicit.error_and_gradient_wrt_mask(masks, targets)
        np.testing.assert_array_equal(e0, e1)
        np.testing.assert_array_equal(g0, g1)


class TestCupyEngineParity:
    """Condition gradients on the cupy backend match the numpy engine's,
    for stacks that gather corners and fold them over several groups
    (skips without a usable cupy)."""

    @pytest.mark.parametrize("objective", ["weighted", "worst"])
    @pytest.mark.parametrize("spec", ["window", "40:0.98,0:1.0,40:1.02",
                                      "dose"])
    def test_condition_gradient(self, spec, objective):
        if not CupyBackend.is_available():
            pytest.skip("cupy backend unavailable on this machine")
        from repro.litho import (ConditionSet, LithoConfig, LithoEngine,
                                 build_kernels)
        kernels = build_kernels(LithoConfig.small(32))
        conditions = ConditionSet.parse(spec)
        rng = np.random.default_rng(5)
        masks = rng.random((3, 32, 32))
        targets = (rng.random((3, 32, 32)) > 0.5).astype(float)

        host = LithoEngine(kernels=kernels, conditions=conditions)
        device = LithoEngine(kernels=kernels, conditions=conditions,
                             backend="cupy")
        e0, g0 = host.condition_error_and_gradient_wrt_mask(
            masks, targets, objective=objective)
        e1, g1 = device.condition_error_and_gradient_wrt_mask(
            masks, targets, objective=objective)
        to_numpy = device.backend.to_numpy
        np.testing.assert_allclose(to_numpy(e1), e0, rtol=1e-10)
        np.testing.assert_allclose(to_numpy(g1), g0, rtol=0,
                                   atol=1e-10 * np.abs(g0).max())
