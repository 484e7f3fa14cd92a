"""Tiled ILT / GAN-OPC flow over a chip-scale target raster.

Each tile optimizes its fixed-size window (core + halo) with the
ordinary clip-scale machinery — the same :class:`ILTOptimizer` /
:class:`GanOpcFlow` code, the same engine, one kernel cache for every
tile — and only the core survives stitching.  The per-tile litho
simulation is periodic on the *tile window* rather than the chip, so
stitched results match a monolithic run only to within a documented
seam tolerance that shrinks as the halo grows (tests/tiling).

Parallel runs fan one tile per task over the shared-memory
:class:`~repro.parallel.pool.WorkerPool`: the chip target ships once
through shared memory, tile cores are written into disjoint slices of
a shared chip-sized output (no two tiles own the same core pixel, so
the writes are race-free), and only scalars cross the pickle
boundary.  Serial and parallel runs execute the identical per-window
code on identical float64 inputs, so they are **bit-exact** equal.

Empty windows (no geometry in core or halo) are skipped by default:
the optimum for an empty target is the empty mask, which the skip
reproduces exactly for the binary mask (the relaxed mask of a real
run would sit at ``sigmoid(-mask_steepness)`` instead of 0).  Both
execution paths share the skip logic, so parity is unaffected.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..obs import trace

from ..core.generator import MaskGenerator
from ..ilt.optimizer import ILTConfig, ILTOptimizer
from ..litho.config import LithoConfig
from ..litho.engine import LithoEngine
from ..litho.kernels import build_kernels
from ..parallel.flow import _rebuild_generator, generator_payload
from ..parallel.pool import (PoolStats, WorkerPool, attach_array,
                             worker_engine, worker_state)
from ..parallel.shm import ShmSpec, SharedArray
from .grid import Tile, TileGrid, extract_window
from .stitch import stitch_feathered


@dataclass(frozen=True)
class TilingConfig:
    """Tile decomposition and stitching parameters.

    Attributes
    ----------
    tile:
        Fixed window size in pixels — the grid the litho engine and
        the generator run at.
    halo:
        Overlap ring in pixels on every side of a tile's core.  The
        default 8 px covers roughly half the optical interaction range
        at the paper's 8 nm pixels; the halo-sufficiency sweep in
        tests/tiling shows seam error decaying as it grows.
    blend:
        Feather width (px) for stitching the *relaxed* mask; 0 = hard
        core crop.  Must not exceed ``halo``.  The binary mask is
        always stitched by exact core partition.
    skip_empty:
        Skip optimization of windows with no geometry (empty-field
        tiles of a sparse chip); their mask is exactly empty.
    """

    tile: int = 64
    halo: int = 8
    blend: int = 0
    skip_empty: bool = True

    def __post_init__(self):
        if self.blend < 0 or self.blend > self.halo:
            raise ValueError(
                f"blend must be in [0, halo={self.halo}], got {self.blend}")

    def grid_for(self, chip_grid: int) -> TileGrid:
        return TileGrid(chip_grid=chip_grid, tile=self.tile, halo=self.halo)


@dataclass
class TiledResult:
    """Outcome of a tiled chip-scale optimization.

    ``l2`` is the sum over tiles of the discrete litho error restricted
    to each tile's core, under the tile-local (window-periodic)
    simulation — the chip-scale analogue of the per-clip L2 column.
    """

    mask: np.ndarray
    mask_relaxed: np.ndarray
    tile_grid: TileGrid
    l2: float
    tile_l2: np.ndarray
    tiles_total: int
    tiles_skipped: int
    iterations: int
    runtime_seconds: float
    workers: int
    pool_stats: Optional[PoolStats] = None


# ----------------------------------------------------------------------
# Shared per-window work (identical on the serial and worker paths)
# ----------------------------------------------------------------------
def _ilt_window(window: np.ndarray, litho_config: LithoConfig,
                ilt_config: ILTConfig, max_iterations: Optional[int],
                engine: LithoEngine, skip_empty: bool):
    """Optimize one tile window; returns (mask, relaxed, l2-parts)."""
    if skip_empty and not window.any():
        zeros = np.zeros_like(window)
        return zeros, zeros, 0, 0.0, True
    optimizer = ILTOptimizer(litho_config, ilt_config, engine=engine)
    result = optimizer.optimize(window, max_iterations=max_iterations)
    return (result.mask, result.mask_relaxed, result.iterations,
            result.runtime_seconds, False)


def _flow_window(window: np.ndarray, generator: MaskGenerator,
                 litho_config: LithoConfig, refine_config: ILTConfig,
                 refine_iterations: Optional[int], engine: LithoEngine,
                 skip_empty: bool):
    if skip_empty and not window.any():
        zeros = np.zeros_like(window)
        return zeros, zeros, 0, 0.0, True
    from ..core.flow import GanOpcFlow
    flow = GanOpcFlow(generator, litho_config, refine_config, engine=engine)
    result = flow.optimize(window, refine_iterations=refine_iterations)
    ilt = result.ilt_result
    return (result.mask, ilt.mask_relaxed, ilt.iterations,
            result.runtime_seconds, False)


def _core_l2(engine: LithoEngine, mask_window: np.ndarray,
             target_window: np.ndarray, tile: Tile) -> float:
    """Discrete litho error of a tile's mask restricted to its core."""
    diff = engine.wafer(mask_window) - target_window
    core = diff[tile.local_core_slices()]
    return float(np.sum(core * core))


def _commit(tile: Tile, mask_window: np.ndarray, relaxed_window: np.ndarray,
            mask_out: np.ndarray, relaxed_out: Optional[np.ndarray],
            windows_out: Optional[np.ndarray]) -> None:
    """Write a finished tile into the chip-level outputs.

    Cores are disjoint chip slices, so parallel workers committing
    different tiles never touch the same output pixel.
    """
    mask_out[tile.core_slices()] = mask_window[tile.local_core_slices()]
    if relaxed_out is not None:
        relaxed_out[tile.core_slices()] = \
            relaxed_window[tile.local_core_slices()]
    if windows_out is not None:
        windows_out[tile.index] = relaxed_window


# ----------------------------------------------------------------------
# Worker tasks (module-level: must be picklable)
# ----------------------------------------------------------------------
def _tile_ilt_task(index: int, chip_spec: ShmSpec, out_spec: ShmSpec,
                   windows_spec: Optional[ShmSpec], tile_grid: TileGrid,
                   litho_config: LithoConfig, ilt_config: ILTConfig,
                   max_iterations: Optional[int], skip_empty: bool):
    chip = attach_array(chip_spec)
    tile = tile_grid.tiles()[index]
    window = extract_window(chip, tile)
    engine = worker_engine(litho_config)
    mask_w, relaxed_w, iterations, runtime, skipped = _ilt_window(
        window, litho_config, ilt_config, max_iterations, engine, skip_empty)
    l2 = 0.0 if skipped else _core_l2(engine, mask_w, window, tile)
    out = attach_array(out_spec)
    windows_out = (attach_array(windows_spec)
                   if windows_spec is not None else None)
    _commit(tile, mask_w, relaxed_w, out[0], out[1], windows_out)
    return (index, l2, iterations, runtime, skipped)


def _tile_flow_task(index: int, chip_spec: ShmSpec, out_spec: ShmSpec,
                    windows_spec: Optional[ShmSpec], tile_grid: TileGrid,
                    litho_config: LithoConfig, refine_config: ILTConfig,
                    refine_iterations: Optional[int], skip_empty: bool):
    chip = attach_array(chip_spec)
    tile = tile_grid.tiles()[index]
    window = extract_window(chip, tile)
    engine = worker_engine(litho_config)
    generator = _rebuild_generator(worker_state())
    mask_w, relaxed_w, iterations, runtime, skipped = _flow_window(
        window, generator, litho_config, refine_config, refine_iterations,
        engine, skip_empty)
    l2 = 0.0 if skipped else _core_l2(engine, mask_w, window, tile)
    out = attach_array(out_spec)
    windows_out = (attach_array(windows_spec)
                   if windows_spec is not None else None)
    _commit(tile, mask_w, relaxed_w, out[0], out[1], windows_out)
    return (index, l2, iterations, runtime, skipped)


# ----------------------------------------------------------------------
# Parent-side drivers
# ----------------------------------------------------------------------
def _run_tiled(target: np.ndarray, config: TilingConfig,
               litho_config: LithoConfig, workers: int,
               precision: Optional[str], pool: Optional[WorkerPool],
               state, task_fn, task_args, serial_fn,
               progress=None) -> TiledResult:
    """Common serial/parallel machinery for tiled ILT and tiled flow.

    ``task_fn(index, chip_spec, out_spec, windows_spec, tile_grid,
    *task_args)`` is the worker task; ``serial_fn(window, engine)`` is
    the equivalent in-process call returning the same 5-tuple.
    ``progress`` (``(done, total, pid, seconds)``) fires per finished
    tile on both paths — it is what ``repro monitor`` renders.
    """
    target = np.asarray(target, dtype=float)
    if target.ndim != 2 or target.shape[0] != target.shape[1]:
        raise ValueError(
            f"target must be a square chip raster, got {target.shape}")
    if litho_config.grid != config.tile:
        raise ValueError(
            f"litho grid {litho_config.grid} != tile size {config.tile}")
    tile_grid = config.grid_for(target.shape[0])
    tiles = tile_grid.tiles()
    started = time.perf_counter()

    with trace.span("tiling.run", tiles=len(tiles), workers=workers):
        if workers <= 1 and pool is None:
            engine = LithoEngine.for_kernels(build_kernels(litho_config),
                                             precision=precision)
            mask = np.zeros_like(target)
            relaxed = np.zeros_like(target)
            windows = ([None] * len(tiles) if config.blend > 0 else None)
            tile_l2 = np.zeros(len(tiles))
            iterations = 0
            skipped_count = 0
            for tile in tiles:
                window = extract_window(target, tile)
                mask_w, relaxed_w, iters, _, skipped = serial_fn(window,
                                                                 engine)
                tile_l2[tile.index] = (
                    0.0 if skipped else _core_l2(engine, mask_w, window,
                                                 tile))
                iterations = max(iterations, iters)
                skipped_count += int(skipped)
                _commit(tile, mask_w, relaxed_w, mask,
                        None if windows is not None else relaxed, None)
                if progress is not None:
                    progress(tile.index + 1, len(tiles), os.getpid(), 0.0)
                if windows is not None:
                    windows[tile.index] = relaxed_w
            if windows is not None:
                relaxed = stitch_feathered(windows, tile_grid, config.blend)
            return TiledResult(
                mask=mask, mask_relaxed=relaxed, tile_grid=tile_grid,
                l2=float(tile_l2.sum()), tile_l2=tile_l2,
                tiles_total=len(tiles), tiles_skipped=skipped_count,
                iterations=iterations,
                runtime_seconds=time.perf_counter() - started, workers=1)

        own_pool = pool is None
        if own_pool:
            pool = WorkerPool(workers, litho_config=litho_config,
                              precision=precision, state=state)
        chip_grid = tile_grid.chip_grid
        try:
            with SharedArray.from_array(target) as shared_chip, \
                    SharedArray.create((2, chip_grid, chip_grid),
                                       np.float64) as shared_out, \
                    (SharedArray.create((len(tiles), config.tile, config.tile),
                                        np.float64)
                     if config.blend > 0 else nullcontext()) as shared_windows:
                reports = pool.map(
                    task_fn,
                    [(tile.index, shared_chip.spec, shared_out.spec,
                      shared_windows.spec if shared_windows is not None
                      else None, tile_grid) + task_args
                     for tile in tiles],
                    label="tiling.map", progress=progress)
                mask = np.array(shared_out.array[0], copy=True)
                relaxed = np.array(shared_out.array[1], copy=True)
                if shared_windows is not None:
                    relaxed = stitch_feathered(
                        list(shared_windows.array), tile_grid, config.blend)
        finally:
            if own_pool:
                pool.shutdown()

        tile_l2 = np.zeros(len(tiles))
        iterations = 0
        skipped_count = 0
        for index, l2, iters, _, skipped in reports:
            tile_l2[index] = l2
            iterations = max(iterations, iters)
            skipped_count += int(skipped)
        return TiledResult(
            mask=mask, mask_relaxed=relaxed, tile_grid=tile_grid,
            l2=float(tile_l2.sum()), tile_l2=tile_l2,
            tiles_total=len(tiles), tiles_skipped=skipped_count,
            iterations=iterations,
            runtime_seconds=time.perf_counter() - started,
            workers=pool.workers, pool_stats=pool.stats)


def tiled_ilt(target: np.ndarray,
              config: Optional[TilingConfig] = None,
              litho_config: Optional[LithoConfig] = None,
              ilt_config: Optional[ILTConfig] = None,
              workers: int = 1,
              precision: Optional[str] = None,
              max_iterations: Optional[int] = None,
              pool: Optional[WorkerPool] = None,
              progress=None) -> TiledResult:
    """ILT over a chip-scale binary target raster, tile by tile.

    Parameters
    ----------
    target:
        Square binary chip raster, any size (not limited to the engine
        grid).
    config:
        Tile/halo/stitch settings; the litho config's grid must equal
        ``config.tile`` (default: ``LithoConfig.small(config.tile)``).
    workers:
        ``1`` runs serially in-process; ``> 1`` fans tiles over a
        :class:`WorkerPool`.  Results are bit-exact either way.
    """
    config = config or TilingConfig()
    litho_config = litho_config or LithoConfig.small(config.tile)
    ilt_config = ilt_config or ILTConfig()
    return _run_tiled(
        target, config, litho_config, workers, precision, pool, None,
        _tile_ilt_task,
        (litho_config, ilt_config, max_iterations, config.skip_empty),
        lambda window, engine: _ilt_window(
            window, litho_config, ilt_config, max_iterations, engine,
            config.skip_empty),
        progress=progress)


def tiled_flow(generator: MaskGenerator, target: np.ndarray,
               config: Optional[TilingConfig] = None,
               litho_config: Optional[LithoConfig] = None,
               refine_config: Optional[ILTConfig] = None,
               workers: int = 1,
               precision: Optional[str] = None,
               refine_iterations: Optional[int] = None,
               pool: Optional[WorkerPool] = None,
               progress=None) -> TiledResult:
    """GAN-OPC flow (generate + refine) over a chip raster, tile by tile.

    Generator weights are broadcast once per worker through the pool's
    ``state`` channel, exactly as in
    :func:`~repro.parallel.flow.parallel_flow`.
    """
    config = config or TilingConfig()
    litho_config = litho_config or LithoConfig.small(config.tile)
    refine_config = refine_config or ILTConfig(max_iterations=50, patience=4)
    return _run_tiled(
        target, config, litho_config, workers, precision, pool,
        generator_payload(generator),
        _tile_flow_task,
        (litho_config, refine_config, refine_iterations, config.skip_empty),
        lambda window, engine: _flow_window(
            window, generator, litho_config, refine_config,
            refine_iterations, engine, config.skip_empty),
        progress=progress)
