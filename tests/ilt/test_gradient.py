"""Unit tests for the ILT gradient (Eq. 14)."""

import numpy as np
import pytest

from repro.litho import LithoEngine, sigmoid_mask
from repro.metrics.l2 import squared_l2


@pytest.fixture(scope="module")
def engine(kernels32):
    return LithoEngine.for_kernels(kernels32)


def _target(grid=32):
    target = np.zeros((grid, grid))
    target[12:22, 6:26] = 1.0
    return target


class TestDiscreteL2:
    def test_zero_for_equal(self):
        a = np.ones((4, 4))
        assert squared_l2(a, a) == 0.0

    def test_counts_mismatches(self):
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        b[0, 0] = b[1, 1] = 1.0
        assert squared_l2(a, b) == 2.0


class TestGradientCorrectness:
    def test_finite_difference_full_gradient(self, litho32, engine, rng):
        """The analytic Eq. 14 gradient must match central differences of
        the relaxed error — the load-bearing correctness check for both
        the ILT engine and Algorithm 2 pre-training."""
        target = _target()
        params = rng.normal(scale=0.5, size=(32, 32))
        _, grad = engine.error_and_gradient(
            params, target, threshold=litho32.threshold,
            resist_steepness=litho32.resist_steepness,
            mask_steepness=litho32.mask_steepness)

        eps = 1e-6
        positions = [(rng.integers(32), rng.integers(32)) for _ in range(12)]
        for i, j in positions:
            params[i, j] += eps
            upper, _ = engine.error_and_gradient(
                params, target, threshold=litho32.threshold,
                resist_steepness=litho32.resist_steepness,
                mask_steepness=litho32.mask_steepness)
            params[i, j] -= 2 * eps
            lower, _ = engine.error_and_gradient(
                params, target, threshold=litho32.threshold,
                resist_steepness=litho32.resist_steepness,
                mask_steepness=litho32.mask_steepness)
            params[i, j] += eps
            numeric = (upper - lower) / (2 * eps)
            assert abs(numeric - grad[i, j]) <= 1e-5 * max(abs(numeric), 1.0)

    def test_wrt_mask_finite_difference(self, litho32, engine, rng):
        target = _target()
        mask = rng.random((32, 32))
        _, grad = engine.error_and_gradient_wrt_mask(
            mask, target, threshold=litho32.threshold,
            resist_steepness=litho32.resist_steepness)
        eps = 1e-6
        for i, j in [(5, 5), (16, 16), (25, 10)]:
            mask[i, j] += eps
            upper, _ = engine.error_and_gradient_wrt_mask(
                mask, target, threshold=litho32.threshold,
                resist_steepness=litho32.resist_steepness)
            mask[i, j] -= 2 * eps
            lower, _ = engine.error_and_gradient_wrt_mask(
                mask, target, threshold=litho32.threshold,
                resist_steepness=litho32.resist_steepness)
            mask[i, j] += eps
            numeric = (upper - lower) / (2 * eps)
            assert abs(numeric - grad[i, j]) <= 1e-5 * max(abs(numeric), 1.0)

    def test_gradient_chain_rule_consistency(self, litho32, engine, rng):
        """Full gradient == mask-sigmoid slope * wrt-mask gradient."""
        target = _target()
        params = rng.normal(size=(32, 32))
        relaxed = sigmoid_mask(params, litho32.mask_steepness)
        _, grad_mask = engine.error_and_gradient_wrt_mask(
            relaxed, target, threshold=litho32.threshold,
            resist_steepness=litho32.resist_steepness)
        _, grad_full = engine.error_and_gradient(
            params, target, threshold=litho32.threshold,
            resist_steepness=litho32.resist_steepness,
            mask_steepness=litho32.mask_steepness)
        expected = (litho32.mask_steepness * relaxed * (1 - relaxed)
                    * grad_mask)
        np.testing.assert_allclose(grad_full, expected, rtol=1e-12)

    def test_error_is_squared_l2_of_relaxed_wafer(self, litho32, engine,
                                                  sim32):
        target = _target()
        mask = target.copy()
        error, _ = engine.error_and_gradient_wrt_mask(
            mask, target, threshold=litho32.threshold,
            resist_steepness=litho32.resist_steepness)
        relaxed_wafer = sim32.relaxed_wafer(mask)
        np.testing.assert_allclose(error,
                                   np.sum((relaxed_wafer - target) ** 2),
                                   rtol=1e-10)

    def test_dose_parameter_shifts_error(self, litho32, engine):
        target = _target()
        mask = target.copy()
        nominal, _ = engine.error_and_gradient_wrt_mask(
            mask, target, threshold=litho32.threshold,
            resist_steepness=litho32.resist_steepness)
        overdose, _ = engine.error_and_gradient_wrt_mask(
            mask, target, threshold=litho32.threshold,
            resist_steepness=litho32.resist_steepness, dose=1.2)
        assert nominal != overdose

    def test_descent_direction(self, litho32, engine):
        """A small step against the gradient must not increase E."""
        target = _target()
        params = 1.0 * (2.0 * target - 1.0)
        error, grad = engine.error_and_gradient(
            params, target, threshold=litho32.threshold,
            resist_steepness=litho32.resist_steepness,
            mask_steepness=litho32.mask_steepness)
        stepped = params - 1e-3 * grad
        new_error, _ = engine.error_and_gradient(
            stepped, target, threshold=litho32.threshold,
            resist_steepness=litho32.resist_steepness,
            mask_steepness=litho32.mask_steepness)
        assert new_error <= error + 1e-9
