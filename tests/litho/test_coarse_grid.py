"""The coarse-grid Hopkins stage against independent oracles.

``LithoEngine`` runs every per-kernel step on an ``M x M`` grid with
``M = 2 D + 1`` (``D`` the signed passband span) and interpolates back
(DESIGN.md §3a).  These tests pin that path where it is active
(64/96/128 px) against the plain ``fft2`` reference of
``test_engine.py`` to 1e-12, check the adjoint with a dot-product
identity, show that ``M - 1`` aliases (the bound is tight), cover the
clamp to the full grid, and pin batch rows bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.litho import ConditionSet, LithoConfig, LithoEngine, build_kernels
from repro.litho.engine import _HopkinsStage
from repro.workspace import Workspace

from .test_engine import (_mask_batch, _target_batch, reference_aerial,
                          reference_gradient_wrt_mask)

ORACLE_GRIDS = (64, 96, 128)
TOL = 1e-12


def _engine(grid):
    return LithoEngine.for_kernels(build_kernels(LithoConfig.small(grid)))


def _assert_close(actual, expected, tol=TOL):
    """Max error relative to the reference's magnitude."""
    scale = np.abs(expected).max()
    assert np.abs(actual - expected).max() <= tol * scale


def _defocused(kernels, defocus):
    cfg = kernels.config
    return build_kernels(replace(cfg, optics=replace(cfg.optics,
                                                     defocus=defocus)))


@pytest.mark.parametrize("grid", ORACLE_GRIDS)
class TestNominalOracle:
    def test_coarse_path_is_active(self, grid):
        engine = _engine(grid)
        (rows, cols), _ = engine.passband_shape
        assert engine.coarse_grid == 2 * (max(rows, cols) - 1) + 1
        assert engine.coarse_grid < grid

    def test_full_grid_stage_agrees_with_fewer_samples(self, grid):
        """The same stage on the full grid (``U = I``) gives the same
        image, while the coarse one holds each of the ``J`` fields on
        under half as many samples."""
        engine = _engine(grid)
        kernels, m = engine.kernels, engine.coarse_grid
        full = _HopkinsStage(
            kernels.freq_kernels, kernels.weights, [len(kernels.weights)],
            np.dtype(np.float64), np.dtype(np.complex128), tag="full.",
            coarse=grid)
        assert full.coarse == grid and full.interp is None
        masks = _mask_batch(grid, 2)
        coarse_image, coarse_fields = engine._stage.forward(Workspace(),
                                                            masks)
        full_image, full_fields = full.forward(Workspace(), masks)
        num_kernels = engine.num_real_kernels
        assert coarse_fields.shape == (2, m, num_kernels, m)
        assert full_fields.shape == (2, grid, num_kernels, grid)
        assert m * m < 0.5 * grid * grid
        _assert_close(coarse_image, full_image)

    def test_aerial_matches_fft2(self, grid):
        engine = _engine(grid)
        masks = _mask_batch(grid, 2)
        aerial = engine.aerial(masks, dose=1.02)
        for i in range(2):
            _assert_close(aerial[i], reference_aerial(
                masks[i], engine.kernels, dose=1.02))

    def test_gradient_matches_fft2(self, grid):
        engine = _engine(grid)
        cfg = engine.config
        masks = _mask_batch(grid, 2)
        targets = _target_batch(grid, 2)
        errors, grads = engine.error_and_gradient_wrt_mask(
            masks, targets, dose=0.98)
        for i in range(2):
            ref_error, ref_grad = reference_gradient_wrt_mask(
                masks[i], targets[i], engine.kernels, cfg.threshold,
                cfg.resist_steepness, dose=0.98)
            np.testing.assert_allclose(errors[i], ref_error, rtol=TOL)
            _assert_close(grads[i], ref_grad)


class TestConditionOracle:
    """A 2-focus x 3-dose window stack at 64 px against per-corner
    ``fft2`` references."""

    grid = 64

    @pytest.fixture(scope="class")
    def stack(self):
        kernels = build_kernels(LithoConfig.small(self.grid))
        conditions = ConditionSet.parse("window")
        engine = LithoEngine.for_conditions(kernels, conditions)
        corner_kernels = [_defocused(kernels, c.defocus)
                          for c in conditions.corners]
        return engine, corner_kernels

    def test_aerial_matches_fft2(self, stack):
        engine, corner_kernels = stack
        mask = _mask_batch(self.grid, 1)[0]
        aerial = engine.condition_aerial(mask)
        for c, corner in enumerate(engine.conditions.corners):
            _assert_close(aerial[c], reference_aerial(
                mask, corner_kernels[c], dose=corner.dose))

    def test_weighted_gradient_matches_fft2(self, stack):
        engine, corner_kernels = stack
        cfg = engine.config
        mask = _mask_batch(self.grid, 1)[0]
        target = _target_batch(self.grid, 1)[0]
        error, grad = engine.condition_error_and_gradient_wrt_mask(
            mask, target, objective="weighted")
        lam = engine.conditions.normalized_weights()
        ref_error, ref_grad = 0.0, np.zeros_like(mask)
        for c, corner in enumerate(engine.conditions.corners):
            e_c, g_c = reference_gradient_wrt_mask(
                mask, target, corner_kernels[c], cfg.threshold,
                cfg.resist_steepness, dose=corner.dose)
            ref_error += lam[c] * e_c
            ref_grad += lam[c] * g_c
        np.testing.assert_allclose(error, ref_error, rtol=TOL)
        _assert_close(grad, ref_grad)


class TestAdjointIdentity:
    """``<J v, w> = <v, J^T w>`` for the intensity Jacobian ``J``.

    The intensity is quadratic in the mask, so the central difference
    ``(I(m + v) - I(m - v)) / 2`` is ``J v`` exactly; ``J^T w`` is the
    stage's adjoint with upstream ``w``.
    """

    @staticmethod
    def _check(stage, masks, rng):
        n, grid = masks.shape[0], masks.shape[-1]
        v = rng.standard_normal(masks.shape)
        w = rng.standard_normal((n, grid, stage.num_groups, grid))
        upper, _ = stage.forward(Workspace(), masks + v)
        lower, _ = stage.forward(Workspace(), masks - v)
        jv = 0.5 * (upper - lower)
        _, fields = stage.forward(Workspace(), masks)
        jtw = stage.adjoint(Workspace(), fields, w)
        lhs, rhs = np.sum(jv * w), np.sum(v * jtw)
        assert abs(lhs - rhs) <= 1e-12 * np.abs(jv * w).sum()

    @pytest.mark.parametrize("grid", [32, 64, 128])
    def test_nominal(self, grid):
        rng = np.random.default_rng(grid)
        self._check(_engine(grid)._stage, _mask_batch(grid, 2), rng)

    def test_condition_stack(self):
        engine = LithoEngine.for_conditions(
            build_kernels(LithoConfig.small(64)), ConditionSet.parse("window"))
        rng = np.random.default_rng(7)
        stage = engine._condition().stage
        assert stage.num_groups == 2
        self._check(stage, _mask_batch(64, 2), rng)


class TestCoarseBound:
    @pytest.mark.parametrize("grid", [32, 64])
    def test_one_below_the_bound_aliases(self, grid):
        """``M = 2 D + 1`` is exact; ``M - 1`` folds the outermost
        difference frequency onto its negative and breaks parity."""
        engine = _engine(grid)
        kernels = engine.kernels
        mask = _mask_batch(grid, 1)
        reference = reference_aerial(mask[0], kernels)
        errors = {}
        for size in (engine.coarse_grid - 1, engine.coarse_grid,
                     engine.coarse_grid + 2):
            stage = _HopkinsStage(
                kernels.freq_kernels, kernels.weights,
                [len(kernels.weights)], np.dtype(np.float64),
                np.dtype(np.complex128), tag="bound.", coarse=size)
            intensity, _ = stage.forward(Workspace(), mask)
            errors[size] = (np.abs(intensity[0, :, 0] - reference).max()
                            / np.abs(reference).max())
        assert errors[engine.coarse_grid] <= TOL
        assert errors[engine.coarse_grid + 2] <= TOL
        assert errors[engine.coarse_grid - 1] > 1e3 * TOL

    def test_wide_passband_clamps_to_full_grid(self):
        """A passband wider than half the grid leaves nothing to
        shrink: the stage runs on the full grid (``U = I``)."""
        kernels = build_kernels(LithoConfig(grid=32, pixel_nm=20.0))
        engine = LithoEngine(kernels=kernels)
        assert engine.coarse_grid == 32
        assert engine._stage.interp is None
        cfg = engine.config
        masks = _mask_batch(32, 2)
        targets = _target_batch(32, 2)
        aerial = engine.aerial(masks)
        errors, grads = engine.error_and_gradient_wrt_mask(masks, targets)
        for i in range(2):
            _assert_close(aerial[i], reference_aerial(masks[i], kernels))
            ref_error, ref_grad = reference_gradient_wrt_mask(
                masks[i], targets[i], kernels, cfg.threshold,
                cfg.resist_steepness)
            np.testing.assert_allclose(errors[i], ref_error, rtol=TOL)
            _assert_close(grads[i], ref_grad)


# Corner stacks: a focus x dose window (two defocus groups), a
# defocus-only stack, and dose-only corners on the nominal stage.
ROW_STACKS = ("window", "40:0.98,0:1.0,40:1.02", "dose")


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("grid", [64, 128])
class TestBatchRowsBitExact:
    """Each row of a batched call equals its batch-1 call bit for bit
    (serial == parallel runs and the dataset library rely on this).
    The batch is one past the engine's gradient chunk, so the batched
    gradient crosses a chunk boundary; the f32 chunk is twice the f64
    one."""

    def test_nominal_forward_and_gradient(self, grid, precision):
        engine = LithoEngine.for_kernels(
            build_kernels(LithoConfig.small(grid)), precision=precision)
        batch = engine._gradient_chunk + 1
        masks = _mask_batch(grid, batch)
        targets = _target_batch(grid, batch)
        aerial = engine.aerial(masks)
        errors, grads = engine.error_and_gradient_wrt_mask(masks, targets)
        for i in range(batch):
            np.testing.assert_array_equal(engine.aerial(masks[i]), aerial[i])
            error, grad = engine.error_and_gradient_wrt_mask(masks[i],
                                                             targets[i])
            assert error == errors[i]
            np.testing.assert_array_equal(grad, grads[i])

    @pytest.mark.parametrize("objective", ["weighted", "worst"])
    @pytest.mark.parametrize("stack", ROW_STACKS)
    def test_condition_forward_and_gradient(self, grid, precision, stack,
                                            objective):
        engine = LithoEngine.for_conditions(
            build_kernels(LithoConfig.small(grid)),
            ConditionSet.parse(stack), precision=precision)
        batch = engine._condition().chunk + 1
        masks = _mask_batch(grid, batch)
        targets = _target_batch(grid, batch)
        aerial = engine.condition_aerial(masks)
        errors, grads = engine.condition_error_and_gradient_wrt_mask(
            masks, targets, objective=objective)
        for i in range(batch):
            np.testing.assert_array_equal(
                engine.condition_aerial(masks[i]), aerial[i])
            error, grad = engine.condition_error_and_gradient_wrt_mask(
                masks[i], targets[i], objective=objective)
            assert error == errors[i]
            np.testing.assert_array_equal(grad, grads[i])
