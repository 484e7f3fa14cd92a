"""Output checks that feed ``failed`` and ``correct``."""

from __future__ import annotations

import gc
import math
import multiprocessing
from multiprocessing import resource_tracker
from typing import Dict, List, Tuple

import numpy as np

#: Relative tolerance between a reported L2 and its recomputation.
#: Both come from the same float64 engine on the same binary mask, so
#: they agree to rounding; anything looser hides a real mismatch.
L2_RTOL = 1e-9


def mask_problems(where: str, mask, shape) -> List[str]:
    """A mask must be finite, binary and of the expected shape."""
    mask = np.asarray(mask)
    if mask.shape != tuple(shape):
        return [f"{where}: mask shape {mask.shape} != {tuple(shape)}"]
    if not np.all(np.isfinite(mask)):
        return [f"{where}: mask has non-finite values"]
    if not np.all((mask == 0.0) | (mask == 1.0)):
        return [f"{where}: mask is not binary"]
    return []


def l2_problems(where: str, engine, mask, target,
                reported: Dict[str, Tuple[float, float]]) -> List[str]:
    """Each reported L2 ``(value, unit area)`` must equal an independent
    ``LithoEngine.discrete_l2`` recomputation times the unit area."""
    l2_px = float(engine.discrete_l2(np.asarray(mask, dtype=float),
                                     np.asarray(target, dtype=float)))
    problems = []
    for label, (value, area) in reported.items():
        expected = l2_px * area
        if not (math.isfinite(value)
                and abs(value - expected) <= L2_RTOL * max(abs(expected),
                                                           1.0)):
            problems.append(f"{where}: {label} {value!r} != recomputed "
                            f"{expected!r}")
    return problems


def no_worse(where: str, label: str, value: float, reference_label: str,
             reference: float, slack: float = 1.0) -> List[str]:
    """A quality number (lower is better) must not exceed ``slack``
    times its reference."""
    if math.isfinite(value) and value <= slack * reference:
        return []
    return [f"{where}: {label} {value:.1f} exceeds {slack} x "
            f"{reference_label} {reference:.1f}"]


def tiled_problems(result, tile_grid, empty) -> List[str]:
    """TiledResult bookkeeping: the chip L2 is the sum of the tile L2s,
    the tile count matches the TileGrid and the skipped tiles are
    exactly the empty windows."""
    problems = []
    tile_l2 = np.asarray(result.tile_l2, dtype=float)
    if not np.all(np.isfinite(tile_l2)) or np.any(tile_l2 < 0):
        problems.append("chip: tile L2 not finite and non-negative")
    if result.l2 != float(tile_l2.sum()):
        problems.append(f"chip: l2 {result.l2!r} != tile_l2.sum() "
                        f"{float(tile_l2.sum())!r}")
    if result.tiles_total != tile_grid.count or len(tile_l2) != \
            tile_grid.count:
        problems.append(f"chip: {result.tiles_total} tiles, TileGrid has "
                        f"{tile_grid.count}")
    if result.tiles_skipped != sum(empty):
        problems.append(f"chip: {result.tiles_skipped} tiles skipped, "
                        f"{sum(empty)} windows are empty")
    if any(tile_l2[i] != 0.0 for i, is_empty in enumerate(empty)
           if is_empty):
        problems.append("chip: an empty tile reports a nonzero L2")
    return problems


def join_children(timeout: float = 60.0) -> None:
    """Wait until every child process this process started has ended."""
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()


def end_children(timeout: float = 60.0) -> None:
    """Stop and reap every process this run started: pool workers first,
    then the shared-memory resource tracker.  The tracker is a plain
    child, not a ``multiprocessing`` one; left alone it ends only after
    this process has exited, so it would outlive the run."""
    join_children(timeout)
    # Free unreachable shared segments now: one freed after the stop
    # would unregister through the tracker and so start it again.
    gc.collect()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
