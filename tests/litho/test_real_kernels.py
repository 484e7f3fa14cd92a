"""The real-kernel lowering behind the Hopkins stage.

For a real mask ``m`` and a complex kernel ``h = a + i b``,
``|m (x) h|^2 = (m (x) a)^2 + (m (x) b)^2``; the engine rotates
``(a, b)`` onto the principal axes of their Gram matrix and keeps the
minor axis only when it carries at least ``eps_f64`` of the energy
(DESIGN.md §3a).  These tests pin how many real kernels each plane
yields, that the real kernels reproduce Eq. 2 to 1e-13 against plain
``fft2``, and the Hermitian half-spectrum stage on the clamped
full-grid path, including a Nyquist column.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.litho import ConditionSet, LithoConfig, LithoEngine, build_kernels
from repro.litho.engine import _HopkinsStage, _real_kernels, _support
from repro.workspace import Workspace

from .test_engine import _mask_batch, reference_aerial

F64, C128 = np.dtype(np.float64), np.dtype(np.complex128)


def _kernels(grid, defocus=0.0):
    cfg = LithoConfig.small(grid)
    return build_kernels(replace(cfg, optics=replace(cfg.optics,
                                                     defocus=defocus)))


def _lowered(kernels):
    rows, cols = _support(kernels.freq_kernels)
    spectra, parent = _real_kernels(kernels.freq_kernels, rows, cols)
    return rows, cols, spectra, parent


def _spatial(spectra, rows, cols, grid):
    """Real kernels on the full grid from their passband spectra."""
    full = np.zeros((len(spectra), grid, grid), dtype=complex)
    full[:, rows[:, None], cols[None, :]] = spectra
    spatial = np.fft.ifft2(full, axes=(-2, -1))
    assert np.abs(spatial.imag).max() <= 1e-15 * np.abs(spatial).max()
    return spatial.real


@pytest.mark.parametrize("grid", [32, 64, 128])
def test_focus_kernel_lowers_to_one_real_kernel(grid):
    kernels = _kernels(grid)
    _, _, spectra, parent = _lowered(kernels)
    np.testing.assert_array_equal(parent, np.arange(kernels.num_kernels))
    engine = LithoEngine.for_kernels(kernels)
    assert engine.num_real_kernels == kernels.num_kernels


@pytest.mark.parametrize("grid", [32, 64, 128])
def test_defocused_kernel_lowers_to_two_real_kernels(grid):
    kernels = _kernels(grid, defocus=40.0)
    _, _, _, parent = _lowered(kernels)
    np.testing.assert_array_equal(
        parent, np.repeat(np.arange(kernels.num_kernels), 2))


def test_window_stack_groups_hold_one_and_two_per_kernel():
    engine = LithoEngine.for_conditions(_kernels(64),
                                        ConditionSet.parse("window"))
    stage = engine._condition().stage
    assert np.array_equal(stage.kernel_group, np.repeat([0, 1], [24, 48]))


@pytest.mark.parametrize("grid,defocus", [(32, 0.0), (64, 0.0), (128, 0.0),
                                          (64, 40.0), (128, 40.0)])
def test_real_kernels_reproduce_eq2(grid, defocus):
    """``sum_j w_j (m (x) r_j)^2 == sum_k w_k |m (x) h_k|^2``."""
    kernels = _kernels(grid, defocus)
    rows, cols, spectra, parent = _lowered(kernels)
    real = _spatial(spectra, rows, cols, grid)
    mask = _mask_batch(grid, 1)[0]
    fields = np.fft.ifft2(np.fft.fft2(mask)[None]
                          * np.fft.fft2(real, axes=(-2, -1)),
                          axes=(-2, -1)).real
    intensity = np.einsum("j,jxy->xy", kernels.weights[parent], fields ** 2)
    reference = reference_aerial(mask, kernels)
    assert (np.abs(intensity - reference).max()
            <= 1e-13 * np.abs(reference).max())


def test_stage_gemms_at_128():
    """The four big stage GEMMs of one 128 px batch-1 gradient, counted
    by hand from the stage's shapes (``P = 25``, ``Ph = 13``,
    ``M = 49``, 24 real kernels): a complex row GEMM and a real
    half-column GEMM per direction, 12.1 MFLOP (DESIGN.md §3a)."""
    engine = LithoEngine.for_kernels(build_kernels(LithoConfig.small(128)))
    (rows, _), half = engine.passband_shape
    m, num_kernels = engine.coarse_grid, engine.num_real_kernels
    assert (rows, half[1], m, num_kernels) == (25, 13, 49, 24)
    rows_gemm = 8 * m * rows * num_kernels * half[1]
    cols_gemm = 2 * m * num_kernels * 2 * half[1] * m
    assert 2 * (rows_gemm + cols_gemm) == pytest.approx(12.1e6, rel=5e-3)


class TestHermitianHalfOnClampedGrid:
    """``LithoConfig(grid=32, pixel_nm=20.0)`` runs the stage on the
    full grid (``U = I``); the half-column multiplicities must still
    rebuild the whole spectrum."""

    def test_half_columns_on_the_clamped_stage(self):
        engine = LithoEngine(kernels=build_kernels(
            LithoConfig(grid=32, pixel_nm=20.0)))
        (rows, cols), half = engine.passband_shape
        assert engine.coarse_grid == 32 and engine._stage.interp is None
        assert half == (rows, (cols + 1) // 2)
        assert engine.num_real_kernels == engine.kernels.num_kernels

    def test_nyquist_column_counts_once(self):
        """Synthetic complex kernels filling a 16 px grid reach the
        Nyquist row and column, whose Hermitian mirror is itself."""
        grid, num_kernels = 16, 3
        rng = np.random.default_rng(3)
        freq = (rng.standard_normal((num_kernels, grid, grid))
                + 1j * rng.standard_normal((num_kernels, grid, grid)))
        weights = rng.random(num_kernels)
        stage = _HopkinsStage(freq, weights, [num_kernels], F64, C128,
                              tag="nyq.")
        assert stage.coarse == grid and stage.num_kernels == 2 * num_kernels
        masks = _mask_batch(grid, 2)
        intensity, fields = stage.forward(Workspace(), masks)
        for i in range(2):
            coherent = np.fft.ifft2(np.fft.fft2(masks[i])[None] * freq,
                                    axes=(-2, -1))
            reference = np.einsum("k,kxy->xy", weights,
                                  np.abs(coherent) ** 2)
            assert (np.abs(intensity[i, :, 0] - reference).max()
                    <= 1e-12 * np.abs(reference).max())

        # Adjoint: <J v, w> == <v, J^T w> for the quadratic intensity.
        v = rng.standard_normal(masks.shape)
        w = rng.standard_normal((2, grid, 1, grid))
        upper, _ = stage.forward(Workspace(), masks + v)
        lower, _ = stage.forward(Workspace(), masks - v)
        jv = 0.5 * (upper - lower)
        jtw = stage.adjoint(Workspace(), fields, w)
        lhs, rhs = np.sum(jv * w), np.sum(v * jtw)
        assert abs(lhs - rhs) <= 1e-12 * np.abs(jv * w).sum()
