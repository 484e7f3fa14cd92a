"""Parity suite for the unified litho engine.

The batched :class:`~repro.litho.engine.LithoEngine` replaced four
hand-rolled copies of the Hopkins forward/adjoint FFT math.  These
tests pin its semantics against (a) a straight re-implementation of the
pre-refactor single-image path (plain ``fft2``, per-kernel inverse
transforms, adjoint accumulated in the spatial domain) to 1e-10, and
(b) finite differences, over grids {16, 32} x doses {0.98, 1.0, 1.02}
x batch sizes {1, 3}.
"""

import numpy as np
import pytest

from repro.litho import (ConditionSet, LithoConfig, LithoEngine, build_kernels,
                         real_spectrum)
from repro.litho.resist import sigmoid_mask, _stable_sigmoid

GRIDS = (16, 32)
DOSES = (0.98, 1.0, 1.02)
BATCHES = (1, 3)


# ----------------------------------------------------------------------
# Reference: the pre-refactor single-image implementation, verbatim math.
# ----------------------------------------------------------------------
def reference_aerial(mask, kernels, dose=1.0):
    spectrum = np.fft.fft2(mask)
    fields = np.fft.ifft2(spectrum[None] * kernels.freq_kernels,
                          axes=(-2, -1))
    intensity = np.einsum("k,kxy->xy", kernels.weights,
                          np.abs(fields) ** 2)
    if dose != 1.0:
        intensity = intensity * dose
    return intensity


def reference_gradient_wrt_mask(mask_relaxed, target, kernels, threshold,
                                resist_steepness, dose=1.0):
    spectrum = np.fft.fft2(mask_relaxed)
    fields = np.fft.ifft2(spectrum[None] * kernels.freq_kernels,
                          axes=(-2, -1))
    intensity = np.einsum("k,kxy->xy", kernels.weights,
                          np.abs(fields) ** 2)
    if dose != 1.0:
        intensity = intensity * dose
    wafer = _stable_sigmoid(resist_steepness * (intensity - threshold))
    diff = wafer - target
    error = float(np.sum(diff * diff))

    grad_intensity = 2.0 * resist_steepness * diff * wafer * (1.0 - wafer)
    if dose != 1.0:
        grad_intensity = grad_intensity * dose
    flipped = np.roll(kernels.freq_kernels[:, ::-1, ::-1], 1, axis=(-2, -1))
    weighted = grad_intensity[None] * np.conj(fields)
    grad = np.fft.ifft2(np.fft.fft2(weighted, axes=(-2, -1)) * flipped,
                        axes=(-2, -1))
    grad = 2.0 * np.einsum("k,kxy->xy", kernels.weights, grad.real)
    return error, grad


def reference_gradient(params, target, kernels, threshold, resist_steepness,
                       mask_steepness, dose=1.0):
    relaxed = sigmoid_mask(params, mask_steepness)
    error, grad_mb = reference_gradient_wrt_mask(
        relaxed, target, kernels, threshold, resist_steepness, dose=dose)
    return error, mask_steepness * relaxed * (1.0 - relaxed) * grad_mb


# ----------------------------------------------------------------------
def _engine(grid):
    return LithoEngine.for_kernels(build_kernels(LithoConfig.small(grid)))


def _mask_batch(grid, batch, seed=0):
    rng = np.random.default_rng(seed + grid + 7 * batch)
    masks = rng.random((batch, grid, grid))
    # A printable feature so wafer images are non-degenerate.
    masks[:, grid // 4: 3 * grid // 4, grid // 4: 3 * grid // 4] += 0.5
    return np.clip(masks, 0.0, 1.0)


def _target_batch(grid, batch):
    targets = np.zeros((batch, grid, grid))
    for i in range(batch):
        lo = 2 + i
        targets[i, lo:grid - lo, grid // 4: 3 * grid // 4] = 1.0
    return targets


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("dose", DOSES)
@pytest.mark.parametrize("batch", BATCHES)
class TestForwardParity:
    def test_aerial_matches_reference(self, grid, dose, batch):
        engine = _engine(grid)
        masks = _mask_batch(grid, batch)
        batched = engine.aerial(masks, dose=dose)
        assert batched.shape == (batch, grid, grid)
        for i in range(batch):
            expected = reference_aerial(masks[i], engine.kernels, dose=dose)
            np.testing.assert_allclose(batched[i], expected,
                                       rtol=1e-10, atol=1e-10)

    def test_single_equals_batched_slice(self, grid, dose, batch):
        engine = _engine(grid)
        masks = _mask_batch(grid, batch)
        batched = engine.aerial(masks, dose=dose)
        for i in range(batch):
            single = engine.aerial(masks[i], dose=dose)
            assert single.shape == (grid, grid)
            np.testing.assert_allclose(single, batched[i],
                                       rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("dose", DOSES)
@pytest.mark.parametrize("batch", BATCHES)
class TestGradientParity:
    def test_wrt_mask_matches_reference(self, grid, dose, batch):
        engine = _engine(grid)
        cfg = engine.config
        masks = _mask_batch(grid, batch)
        targets = _target_batch(grid, batch)
        errors, grads = engine.error_and_gradient_wrt_mask(
            masks, targets, dose=dose)
        assert errors.shape == (batch,)
        assert grads.shape == (batch, grid, grid)
        for i in range(batch):
            ref_error, ref_grad = reference_gradient_wrt_mask(
                masks[i], targets[i], engine.kernels, cfg.threshold,
                cfg.resist_steepness, dose=dose)
            np.testing.assert_allclose(errors[i], ref_error, rtol=1e-10)
            np.testing.assert_allclose(grads[i], ref_grad,
                                       rtol=1e-10, atol=1e-10)

    def test_full_matches_reference(self, grid, dose, batch):
        engine = _engine(grid)
        cfg = engine.config
        rng = np.random.default_rng(grid + batch)
        params = rng.normal(scale=0.5, size=(batch, grid, grid))
        targets = _target_batch(grid, batch)
        errors, grads = engine.error_and_gradient(params, targets, dose=dose)
        for i in range(batch):
            ref_error, ref_grad = reference_gradient(
                params[i], targets[i], engine.kernels, cfg.threshold,
                cfg.resist_steepness, cfg.mask_steepness, dose=dose)
            np.testing.assert_allclose(errors[i], ref_error, rtol=1e-10)
            np.testing.assert_allclose(grads[i], ref_grad,
                                       rtol=1e-10, atol=1e-10)

    def test_matches_finite_differences(self, grid, dose, batch):
        engine = _engine(grid)
        cfg = engine.config
        rng = np.random.default_rng(11 + grid + batch)
        params = rng.normal(scale=0.5, size=(batch, grid, grid))
        targets = _target_batch(grid, batch)
        _, grads = engine.error_and_gradient(params, targets, dose=dose)

        eps = 1e-6
        positions = [(rng.integers(batch), rng.integers(grid),
                      rng.integers(grid)) for _ in range(4)]
        for n, i, j in positions:
            params[n, i, j] += eps
            upper, _ = engine.error_and_gradient(params[n], targets[n],
                                                 dose=dose)
            params[n, i, j] -= 2 * eps
            lower, _ = engine.error_and_gradient(params[n], targets[n],
                                                 dose=dose)
            params[n, i, j] += eps
            numeric = (upper - lower) / (2 * eps)
            assert abs(numeric - grads[n, i, j]) <= \
                1e-5 * max(abs(numeric), 1.0)


class TestSpectrum:
    @pytest.mark.parametrize("grid", [16, 32, 33])
    def test_real_spectrum_matches_fft2(self, grid):
        rng = np.random.default_rng(grid)
        masks = rng.random((2, grid, grid))
        np.testing.assert_allclose(real_spectrum(masks),
                                   np.fft.fft2(masks, axes=(-2, -1)),
                                   rtol=1e-12, atol=1e-12)

    def test_engine_spectrum_single(self):
        engine = _engine(16)
        mask = _mask_batch(16, 1)[0]
        np.testing.assert_allclose(engine.spectrum(mask), np.fft.fft2(mask),
                                   rtol=1e-12, atol=1e-12)


class TestEngineInterface:
    def test_explicit_zero_resist_steepness_is_honored(self):
        """``resist_steepness=0.0`` is a flat sigmoid (0.5 everywhere),
        not a request for the config default; ``None`` is."""
        engine = _engine(16)
        mask = _mask_batch(16, 1)[0]
        np.testing.assert_array_equal(
            engine.relaxed_wafer(mask, resist_steepness=0.0), 0.5)
        assert not np.all(engine.relaxed_wafer(mask) == 0.5)
        corners = LithoEngine.for_conditions(engine.kernels,
                                             ConditionSet.dose_corners())
        np.testing.assert_array_equal(
            corners.condition_relaxed_wafers(mask, resist_steepness=0.0),
            0.5)
        assert not np.all(corners.condition_relaxed_wafers(mask) == 0.5)

    def test_for_kernels_is_memoized(self):
        kernels = build_kernels(LithoConfig.small(16))
        assert LithoEngine.for_kernels(kernels) is \
            LithoEngine.for_kernels(kernels)

    def test_rejects_mismatched_config(self):
        kernels = build_kernels(LithoConfig.small(16))
        with pytest.raises(ValueError):
            LithoEngine(LithoConfig.small(32), kernels=kernels)

    def test_rejects_non_square(self):
        engine = _engine(16)
        with pytest.raises(ValueError):
            engine.aerial(np.zeros((8, 16)))
        with pytest.raises(ValueError):
            engine.aerial(np.zeros((2, 8, 16)))

    def test_rejects_grid_mismatch(self):
        engine = _engine(16)
        with pytest.raises(ValueError):
            engine.aerial(np.zeros((32, 32)))

    def test_litho_error_scalar_vs_batch(self):
        engine = _engine(16)
        masks = _mask_batch(16, 3)
        targets = _target_batch(16, 3)
        batched = engine.litho_error(masks, targets, relaxed=True)
        assert batched.shape == (3,)
        single = engine.litho_error(masks[0], targets[0], relaxed=True)
        assert isinstance(single, float)
        np.testing.assert_allclose(single, batched[0])

    def test_binarized_score_tracks_discrete_l2(self):
        engine = _engine(16)
        targets = _target_batch(16, 2)
        params = 2.0 * targets - 1.0
        masks, l2 = engine.binarized_score(params, targets)
        assert masks.shape == (2, 16, 16)
        assert set(np.unique(masks)) <= {0.0, 1.0}
        np.testing.assert_allclose(
            l2, engine.discrete_l2(masks, targets))


class TestSharedTarget:
    """A 2-D or ``(1, H, W)`` target serves every mask of a batch, also
    when the batch runs in more than one gradient chunk; any other
    leading size is rejected."""

    GRID = 64

    def _check(self, gradient, chunk):
        batch = chunk + 3
        masks = _mask_batch(self.GRID, batch)
        target = _target_batch(self.GRID, 1)
        expected = gradient(masks, np.repeat(target, batch, axis=0))
        for shared in (target, target[0]):
            errors, grads = gradient(masks, shared)
            np.testing.assert_array_equal(errors, expected[0])
            np.testing.assert_array_equal(grads, expected[1])

    def test_nominal_past_one_chunk(self):
        engine = _engine(self.GRID)
        self._check(engine.error_and_gradient_wrt_mask,
                    engine._gradient_chunk)

    @pytest.mark.parametrize("objective", ["weighted", "worst"])
    def test_condition_past_one_chunk(self, objective):
        engine = LithoEngine.for_conditions(_engine(self.GRID).kernels,
                                            ConditionSet.parse("window"))
        def gradient(masks, targets):
            return engine.condition_error_and_gradient_wrt_mask(
                masks, targets, objective=objective)

        self._check(gradient, engine._condition().chunk)

    def test_other_leading_size_names_both_shapes(self):
        engine = _engine(16)
        masks = _mask_batch(16, 3)
        with pytest.raises(ValueError, match=r"\(2, 16, 16\).*\(3, 16, 16\)"):
            engine.error_and_gradient_wrt_mask(masks, _target_batch(16, 2))
        with pytest.raises(ValueError, match="target shape"):
            engine.litho_error(masks, np.zeros((3, 8, 8)))
