"""The benchmark's four workloads, driven through the public API.

Each workload builds its inputs from the workload seed in
:meth:`Workload.setup` (kernels, layouts, targets, networks, worker
pool, one warm-up call into every layer it uses) and then runs a fixed
amount of work in :meth:`Workload.run`.  The amount of work is a pure
function of ``(seed, seconds)``: ``seconds`` scales the item counts
(calibrated so ``--seconds 20`` runs about 15-20 s on a 2-core x86
host), so every count repeats exactly for one seed and the measured
times are what varies with the host.  Every workload normalizes its
times to a reference host speed (see ``speed.py``).

All workloads are closed loop (one item after another) and float64.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro import geometry, nn
from repro.bench import iccad13
from repro.core import (GanOpcConfig, GanOpcFlow, GanOpcTrainer,
                        ILTGuidedPretrainer, MaskGenerator, PairDiscriminator)
from repro.ilt import ILTConfig, ILTOptimizer
from repro.layoutgen import (ChipConfig, LayoutSynthesizer, SyntheticDataset,
                             TopologyConfig, chip as chipgen)
from repro.litho import (ConditionSet, LithoConfig, LithoEngine,
                         LithoSimulator, kernels as litho_kernels)
from repro import metrics
from repro.parallel import pool as parallel_pool
from repro import tiling

import checks
from speed import Speedometer

#: The --seconds value the item counts below are calibrated for.
BASE_SECONDS = 20.0


def _count(base: int, seconds: float, minimum: int) -> int:
    return max(minimum, int(round(base * seconds / BASE_SECONDS)))


def _target(layout, grid: int) -> np.ndarray:
    """Binary target raster, as Table 2 builds it."""
    return (geometry.rasterize(layout, grid) >= 0.5).astype(float)


def _seeded_layouts(seed: int, stream: int, count: int,
                    litho: LithoConfig) -> list:
    """``count`` clips synthesized from the workload seed, with the
    clip style of the ICCAD-13 substitute suite (no area matching)."""
    window = litho.extent_nm
    synthesizer = LayoutSynthesizer(TopologyConfig(
        extent=window, margin=min(120.0, window / 8.0),
        track_skip_probability=0.1, stub_probability=0.2))
    children = np.random.SeedSequence([seed, stream]).spawn(count)
    return [synthesizer.generate(np.random.default_rng(child),
                                 name=f"seed{seed}-{i:03d}")
            for i, child in enumerate(children)]


def _clips(seed: int, stream: int, total: int, litho: LithoConfig):
    """The ten suite clips (as many as fit) plus at least one clip
    synthesized from the seed, as ``(name, layout, target, in_suite)``.

    Timings cover every clip; the quality means cover the suite clips
    only, so they are the Table 2 numbers and do not move with the
    seed."""
    seeded = max(1, total - 10)
    suite = iccad13.iccad13_suite(litho)[:total - seeded]
    clips = [(clip.name, clip.layout, True) for clip in suite]
    clips += [(layout.name, layout, False)
              for layout in _seeded_layouts(seed, stream, seeded, litho)]
    return [(name, layout, _target(layout, litho.grid), in_suite)
            for name, layout, in_suite in clips]


def p50(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else float("nan")


@dataclass
class Outcome:
    """What one timed run produced."""

    wall_s: float = 0.0
    item_s: List[float] = field(default_factory=list)
    ilt_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: the workload's own named results (Table 2 columns etc.)
    detail: Dict[str, float] = field(default_factory=dict)
    #: per-layer values the program reports itself (pool, tiling)
    layers: Dict[str, float] = field(default_factory=dict)
    #: outputs kept for the correctness checks
    outputs: list = field(default_factory=list)

    def fail(self, item: str, exc: BaseException) -> None:
        self.failures.append(f"{item}: {type(exc).__name__}: {exc}")

    def timed(self, speed: Speedometer, parts, items, ilts) -> None:
        """Set the timings from raw ``(start, end, count)`` intervals:
        the parts making up the wall time, the items and the ILT calls
        (per call: an interval covering ``count`` calls counts as that
        many), each normalized to the reference speed; the raw values
        go to detail."""
        self.wall_s = sum(speed.normalize(a, b) for a, b, _ in parts)
        self.item_s = [speed.normalize(a, b) / n for a, b, n in items]
        self.ilt_s = [speed.normalize(a, b) / n for a, b, n in ilts]
        self.detail.update({
            "raw_wall_s": sum(b - a for a, b, _ in parts),
            "raw_item_s_p50": p50([(b - a) / n for a, b, n in items]),
            "raw_ilt_s_p50": p50([(b - a) / n for a, b, n in ilts]),
            "speed_sample_s_p50": speed.median_s(),
            "speed_samples": len(speed.samples),
        })


class Workload:
    name = ""
    #: span names that must record calls in a traced run
    expected_spans: tuple = ()

    def __init__(self, seed: int, seconds: float, recorder=None):
        self.seed = seed
        self.seconds = seconds
        self.recorder = recorder

    def inputs_sha256(self) -> str:
        """Digest of the synthesized input rasters set-up built."""
        digest = hashlib.sha256()
        for array in self.inputs:
            digest.update(np.ascontiguousarray(array).tobytes())
        return digest.hexdigest()

    def set_item(self, item: Optional[str]) -> None:
        if self.recorder is not None:
            self.recorder.item = item

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> List[str]:
        """Correctness problems of a run's outputs (empty when fine)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what setup started."""


# ----------------------------------------------------------------------
class Clip128(Workload):
    """Table 2 at 128 px: ILT from scratch, then the GAN-OPC flow."""

    name = "clip128"
    expected_spans = ("litho.forward", "litho.gradient", "litho.kernels",
                      "ilt.optimize", "core.generate", "core.flow",
                      "nn.conv", "metrics.evaluate", "geometry.rasterize",
                      "layoutgen.synthesize")
    GRID = 128
    ILT = ILTConfig(max_iterations=100)
    REFINE = ILTConfig(max_iterations=60, patience=4)

    def __init__(self, seed, seconds, recorder=None, weights=None):
        super().__init__(seed, seconds, recorder)
        if weights is None:
            raise ValueError("clip128 needs the verified generator weights")
        self.weights = weights

    def setup(self) -> None:
        litho = LithoConfig.small(self.GRID)
        self.litho = litho
        self.engine = LithoEngine.for_kernels(
            litho_kernels.build_kernels(litho))
        generator = MaskGenerator(
            GanOpcConfig.small(self.GRID).generator_channels,
            rng=np.random.default_rng(0))
        nn.load_state(generator, self.weights)
        total = _count(12, self.seconds, 2)
        self.clips = _clips(self.seed, 128, total, litho)
        self.inputs = [clip[2] for clip in self.clips]
        self.ilt = ILTOptimizer(litho, self.ILT, engine=self.engine)
        self.flow = GanOpcFlow(generator, litho, self.REFINE,
                               engine=self.engine)
        self.simulator = LithoSimulator(litho, engine=self.engine)
        _, layout, target, _ = self.clips[0]
        self.flow.optimize(target, refine_iterations=1)
        self.ilt.optimize(target, max_iterations=1)
        metrics.evaluate_mask(self.simulator, target, target, layout=layout)

    def run(self) -> Outcome:
        out = Outcome()
        speed = Speedometer()
        parts, ilts, flows = [], [], []
        for name, layout, target, in_suite in self.clips:
            self.set_item(f"clip:{name}")
            out.attempted += 1
            speed.tick()
            try:
                t0 = time.perf_counter()
                ilt = self.ilt.optimize(target)
                t1 = time.perf_counter()
                ilt_eval = metrics.evaluate_mask(
                    self.simulator, ilt.mask, target, layout=layout,
                    name=name, runtime_seconds=t1 - t0)
                t2 = time.perf_counter()
                flow = self.flow.optimize(target)
                t3 = time.perf_counter()
                flow_eval = metrics.evaluate_mask(
                    self.simulator, flow.mask, target, layout=layout,
                    name=name, runtime_seconds=t3 - t2)
                t4 = time.perf_counter()
            except Exception as exc:  # one failed clip must not end the run
                out.fail(name, exc)
                continue
            parts.append((t0, t4, 1))
            ilts.append((t0, t1, 1))
            flows.append((t2, t3, 1))
            out.outputs.append((name, target, ilt, ilt_eval, flow,
                                flow_eval, in_suite))
        speed.sample()
        self.set_item(None)
        out.timed(speed, parts, flows, ilts)
        suite = [o for o in out.outputs if o[6]]
        out.detail.update({
            "clips": len(self.clips),
            "suite_clips": len(suite),
            "ilt_clip_s_p50": p50(out.ilt_s),
            "flow_clip_s_p50": p50(out.item_s),
            "ilt_l2_nm2_mean": _mean(o[3].l2_nm2 for o in suite),
            "flow_l2_nm2_mean": _mean(o[5].l2_nm2 for o in suite),
            "ilt_pvband_nm2_mean": _mean(o[3].pvband_nm2 for o in suite),
            "flow_pvband_nm2_mean": _mean(o[5].pvband_nm2 for o in suite),
            "flow_ilt_rt_ratio": p50(out.item_s) / p50(out.ilt_s),
        })
        return out

    def check(self, outcome: Outcome) -> List[str]:
        problems = []
        area = self.litho.pixel_nm ** 2
        shape = (self.GRID, self.GRID)
        # Both methods must print better than the uncorrected targets.
        plain = _mean(float(self.engine.discrete_l2(o[1], o[1])) * area
                      for o in outcome.outputs)
        for label, index in (("ILT", 3), ("flow", 5)):
            problems += checks.no_worse(
                "clips", f"mean {label} L2",
                _mean(o[index].l2_nm2 for o in outcome.outputs),
                "uncorrected target L2", plain)
        for name, target, ilt, ilt_eval, flow, flow_eval, _ in \
                outcome.outputs:
            for method, result, evaluation in (("ILT", ilt, ilt_eval),
                                               ("flow", flow, flow_eval)):
                where = f"{name}/{method}"
                problems += checks.mask_problems(where, result.mask, shape)
                problems += checks.l2_problems(
                    where, self.engine, result.mask, target,
                    {"optimizer l2 (px)": (result.l2, 1.0),
                     "evaluate_mask l2_nm2": (evaluation.l2_nm2, area)})
        return problems


# ----------------------------------------------------------------------
class Train64(Workload):
    """``repro train --phase both`` at 64 px, batch 4."""

    name = "train64"
    LIBRARY_CHUNK = 8
    #: Calibration samples before each library chunk: one sample is too
    #: noisy a speed estimate for a chunk with few samples around it.
    LIBRARY_SAMPLES = 3
    PRETRAIN_CHUNK = 10
    expected_spans = ("litho.gradient", "litho.kernels", "ilt.optimize",
                      "core.pretrain", "core.gan.generator_step",
                      "core.gan.discriminator_step", "core.generate",
                      "nn.conv", "nn.backward", "layoutgen.synthesize",
                      "layoutgen.reference_mask", "geometry.rasterize",
                      "metrics.evaluate")
    GRID = 64

    def setup(self) -> None:
        litho = LithoConfig.small(self.GRID)
        self.litho = litho
        self.engine = LithoEngine.for_kernels(
            litho_kernels.build_kernels(litho))
        kernels = self.engine.kernels
        seed = self.seed
        self.pretrain_iterations = _count(120, self.seconds, 2)
        self.gan_iterations = _count(200, self.seconds, 2)
        # What `repro train --phase both --grid 64 --batch-size 4
        # --seed <seed>` builds.
        self.config = replace(GanOpcConfig.small(self.GRID), batch_size=4,
                              seed=seed)
        self.dataset = SyntheticDataset(
            litho, size=_count(24, self.seconds, 4), seed=seed,
            kernels=kernels)
        # Held out: the ten suite clips, which training never sees.
        self.heldout = [(clip.name, _target(clip.layout, self.GRID))
                        for clip in iccad13.iccad13_suite(litho)]
        self.inputs = [self.dataset.target(index)
                       for index in range(len(self.dataset))]
        self.generator = MaskGenerator(self.config.generator_channels,
                                       rng=np.random.default_rng(seed))
        discriminator = PairDiscriminator(
            self.GRID, self.config.discriminator_channels,
            rng=np.random.default_rng(seed + 1))
        self.pretrainer = ILTGuidedPretrainer(
            self.generator, litho, self.config, engine=self.engine)
        self.trainer = GanOpcTrainer(self.generator, discriminator,
                                     self.config, litho_config=litho,
                                     engine=self.engine)
        self.simulator = LithoSimulator(litho, engine=self.engine)
        # Warm-ups that leave weights, optimizer state and the dataset
        # caches untouched.
        target = self.heldout[0][1]
        mask = self.generator.generate(target)
        with nn.no_grad():
            discriminator(nn.Tensor(target[None, None]),
                          nn.Tensor(mask[None, None]))
        self.engine.error_and_gradient_wrt_mask(mask, target)
        self.dataset.ilt.optimize(target, max_iterations=1)
        metrics.evaluate_mask(self.simulator, target, target)

    def run(self) -> Outcome:
        out = Outcome()
        speed = Speedometer()
        library = len(self.dataset)
        out.attempted += library
        # The library is built through the bulk API in chunks, so the
        # host speed can be sampled in between.
        library_parts = []
        for first in range(0, library, self.LIBRARY_CHUNK):
            chunk = range(first, min(first + self.LIBRARY_CHUNK, library))
            self.set_item(f"library:{first}")
            speed.burst(self.LIBRARY_SAMPLES)
            started = time.perf_counter()
            try:
                self.dataset.precompute(indices=chunk)
            except Exception as exc:
                out.fail(f"library:{first}", exc)
                continue
            library_parts.append((started, time.perf_counter(), len(chunk)))

        # Algorithm 2 with the sampling RNG `repro train` seeds from the
        # config, in chunks sharing that RNG: the same sequence as one
        # long call.
        rng = np.random.default_rng(self.config.seed)
        out.attempted += self.pretrain_iterations
        losses, pretrain_parts = [], []
        for first in range(0, self.pretrain_iterations,
                           self.PRETRAIN_CHUNK):
            count = min(self.PRETRAIN_CHUNK,
                        self.pretrain_iterations - first)
            self.set_item(f"pretrain:{first}")
            speed.tick()
            started = time.perf_counter()
            try:
                history = self.pretrainer.train(self.dataset, count, rng=rng)
            except Exception as exc:
                out.fail(f"pretrain:{first}", exc)
                continue
            pretrain_parts.append((started, time.perf_counter(), count))
            losses += history.litho_error
        bad = sum(1 for x in losses if not math.isfinite(x))
        out.failures += ["pretrain: non-finite litho error"] * bad

        # Algorithm 1 one iteration per call, sharing the sampling RNG,
        # which is the same sequence as one long call.
        rng = np.random.default_rng(self.config.seed)
        gan_losses, steps = [], []
        for iteration in range(self.gan_iterations):
            self.set_item(f"gan:{iteration}")
            out.attempted += 1
            speed.tick()
            t0 = time.perf_counter()
            try:
                history = self.trainer.train(self.dataset, 1, rng=rng)
            except Exception as exc:
                out.fail(f"gan:{iteration}", exc)
                continue
            steps.append((t0, time.perf_counter(), 1))
            step = (history.generator_loss[0],
                    history.discriminator_loss[0],
                    history.l2_to_reference[0])
            if not all(math.isfinite(x) for x in step):
                out.failures.append(f"gan:{iteration}: non-finite loss "
                                    f"{step}")
            gan_losses.append(step)
        speed.sample()
        # ILT time: per library instance, from each chunk.
        out.timed(speed, library_parts + pretrain_parts + steps, steps,
                  library_parts)

        # Quality of the trained generator on held-out targets: its
        # binarized output, no refinement.
        for name, target in self.heldout:
            self.set_item(f"heldout:{name}")
            out.attempted += 1
            try:
                mask = (self.generator.generate(target) >= 0.5).astype(float)
                evaluation = metrics.evaluate_mask(self.simulator, mask,
                                                   target)
            except Exception as exc:
                out.fail(f"heldout:{name}", exc)
                continue
            out.outputs.append((f"heldout:{name}", target, mask,
                                evaluation))

        self.set_item(None)
        out.detail.update({
            "library": library,
            "library_s": sum(speed.normalize(a, b)
                             for a, b, _ in library_parts),
            "pretrain_iterations": self.pretrain_iterations,
            "pretrain_s": sum(speed.normalize(a, b)
                              for a, b, _ in pretrain_parts),
            "gan_iterations": self.gan_iterations,
            "gan_step_s_p50": p50(out.item_s),
            "gen_l2_nm2_mean": _mean(o[3].l2_nm2 for o in out.outputs),
            "gen_pvband_nm2_mean": _mean(o[3].pvband_nm2
                                         for o in out.outputs),
            "final_pretrain_litho_error": (losses[-1] if losses
                                           else float("nan")),
            "final_gan_l2_to_reference": (gan_losses[-1][2] if gan_losses
                                          else float("nan")),
        })
        return out

    def check(self, outcome: Outcome) -> List[str]:
        problems = []
        area = self.litho.pixel_nm ** 2
        shape = (self.GRID, self.GRID)
        for index in range(len(self.dataset)):
            problems += checks.mask_problems(
                f"library:{index}", self.dataset.reference_mask(index),
                shape)
        for name, target, mask, evaluation in outcome.outputs:
            problems += checks.mask_problems(name, mask, shape)
            problems += checks.l2_problems(
                name, self.engine, mask, target,
                {"evaluate_mask l2_nm2": (evaluation.l2_nm2, area)})
        return problems


# ----------------------------------------------------------------------
class ChipTiled(Workload):
    """``tiled_ilt`` on seeded chips over a 2-worker pool."""

    name = "chip_tiled"
    expected_spans = ("litho.kernels", "layoutgen.synthesize",
                      "geometry.rasterize", "tiling.run", "tiling.stitch",
                      "parallel.map")
    WORKERS = 2
    TILING = tiling.TilingConfig(tile=64, halo=8, blend=4)
    ILT = ILTConfig(max_iterations=100)
    CELL_NM = 512.0
    #: Calibration samples taken before each chip and after the last.
    SAMPLES = 4

    def setup(self) -> None:
        litho = LithoConfig.small(self.TILING.tile)
        self.litho = litho
        kernels = litho_kernels.build_kernels(litho)
        self.engine = LithoEngine.for_kernels(kernels)
        self.simulator = LithoSimulator(litho, engine=self.engine)
        # Several chips rather than one large one: the host speed is
        # sampled between them, as between the items of a serial
        # workload.
        chips = _count(4, self.seconds, 1)
        cells = min(4, _count(4, self.seconds, 2))
        self.targets = []
        for index in range(chips):
            seed = int(np.random.SeedSequence([self.seed, index])
                       .generate_state(1)[0])
            layout = chipgen.synthesize_chip(
                ChipConfig(cells=cells, cell_extent=self.CELL_NM),
                seed=seed, name=f"chip-{self.seed}-{index}")
            chip_grid = int(round(layout.extent / litho.pixel_nm))
            self.targets.append(geometry.binarize(
                geometry.rasterize(layout, chip_grid)))
        self.inputs = self.targets
        recorder = self.recorder
        span = (recorder.span("parallel.pool.start") if recorder is not None
                else contextlib.nullcontext())
        started = time.perf_counter()
        with span:
            self.pool = parallel_pool.WorkerPool(self.WORKERS,
                                                 litho_config=litho)
            # Warm every worker: a small chip whose windows all hold
            # geometry, two ILT iterations per tile.
            warm = np.zeros((96, 96))
            warm[20:76, 30:42] = 1.0
            warm[44:56, 10:86] = 1.0
            tiling.tiled_ilt(warm, self.TILING, litho,
                             ILTConfig(max_iterations=2), pool=self.pool)
        self.pool_start_s = time.perf_counter() - started

    def run(self) -> Outcome:
        out = Outcome()
        speed = Speedometer()
        stats = self.pool.stats
        records_before = len(stats.task_records)
        busy_before = stats.total_busy_seconds
        wall_before = stats.wall_seconds
        stalls_before = len(stats.stalls)
        engine_before = dict(stats.fleet.engine_totals)
        recorder = self.recorder
        if recorder is not None:
            first_span = len(recorder.spans)
        # The work runs in the pool workers; the parent samples the host
        # speed only between chips, while the workers are idle, so the
        # samples do not compete with them for the cores.
        parts, raw_tile_s, tile_s = [], [], []
        for index, target in enumerate(self.targets):
            name = f"chip:{index}"
            self.set_item(name)
            tile_grid = self.TILING.grid_for(target.shape[0])
            out.attempted += tile_grid.count
            speed.burst(self.SAMPLES)
            records = len(stats.task_records)
            started = time.perf_counter()
            try:
                result = tiling.tiled_ilt(target, self.TILING, self.litho,
                                          self.ILT, pool=self.pool)
            except Exception as exc:
                out.fail(name, exc)
                out.failures += [f"{name}: no result"] * (tile_grid.count
                                                          - 1)
                continue
            parts.append((started, time.perf_counter()))
            # Per-tile latency from the pool's own records; skipped
            # (empty) tiles finish in microseconds and are left out.
            empty = [not tiling.extract_window(target, t).any()
                     for t in tile_grid.tiles()]
            optimized = len(empty) - sum(empty)
            task_s = sorted(s for _, s in stats.task_records[records:])
            raw_tile_s.append(task_s)
            tile_s.append(task_s[len(task_s) - optimized:])
            out.outputs.append((target, result, tile_grid, empty))
        speed.burst(self.SAMPLES)
        self.set_item(None)
        out.wall_s = sum(speed.normalize(a, b) for a, b in parts)
        out.item_s = [s * speed.scale(a, b)
                      for (a, b), chip in zip(parts, tile_s) for s in chip]
        out.ilt_s = list(out.item_s)
        map_reports = None
        if recorder is not None:
            map_reports = [s.result for s in recorder.spans[first_span:]
                           if s.name == "parallel.map"
                           and s.result is not None]

        task_s = [s for chip in raw_tile_s for s in chip]
        map_s = stats.wall_seconds - wall_before
        busy = stats.total_busy_seconds - busy_before
        engine = {key: value - engine_before.get(key, 0.0)
                  for key, value in stats.fleet.engine_totals.items()}
        results = [o[1] for o in out.outputs]
        layers = {
            "parallel.pool.start_s": self.pool_start_s,
            "parallel.tasks": len(stats.task_records) - records_before,
            "parallel.task_s_p50": p50(task_s),
            "parallel.worker_busy_s": busy,
            "parallel.utilization": (busy / (map_s * self.pool.workers)
                                     if map_s > 0 else 0.0),
            "parallel.wait_s": map_s * self.pool.workers - busy,
            "parallel.stalls": len(stats.stalls) - stalls_before,
            "tiling.tiles": sum(r.tiles_total for r in results),
            "tiling.tiles_skipped": sum(r.tiles_skipped for r in results),
            # Worker-side engine work, shipped home by the pool.
            "worker.litho.forward.calls": engine.get("forward_calls", 0),
            "worker.litho.forward.masks": engine.get("forward_masks", 0),
            "worker.litho.forward.s": engine.get("forward_seconds", 0.0),
            "worker.litho.gradient.calls": engine.get("gradient_calls", 0),
            "worker.litho.gradient.masks": engine.get("gradient_masks", 0),
            "worker.litho.gradient.s": engine.get("gradient_seconds", 0.0),
        }
        if map_reports:
            reports = [r for batch in map_reports for r in batch]
            layers.update(_tile_reports(reports, self.ILT.max_iterations))
        out.layers = layers
        area = self.litho.pixel_nm ** 2
        out.detail.update({
            "chips": len(self.targets),
            "chip_grid": int(self.targets[0].shape[0]),
            "tiles": layers["tiling.tiles"],
            "tiles_skipped": layers["tiling.tiles_skipped"],
            "tiles_per_s": (layers["tiling.tiles"] / out.wall_s
                            if out.wall_s > 0 else 0.0),
            "chip_l2_nm2": sum(r.l2 for r in results) * area,
            "pool_utilization": layers["parallel.utilization"],
            "raw_wall_s": sum(b - a for a, b in parts),
            "raw_item_s_p50": p50([s for chip in tile_s for s in chip]),
            "speed_sample_s_p50": speed.median_s(),
            "speed_samples": len(speed.samples),
        })
        return out

    def check(self, outcome: Outcome) -> List[str]:
        problems = []
        area = self.litho.pixel_nm ** 2
        l2 = band = plain_l2 = 0.0
        for target, result, tile_grid, empty in outcome.outputs:
            problems += checks.mask_problems("chip", result.mask,
                                             target.shape)
            problems += checks.tiled_problems(result, tile_grid, empty)
            # Quality of the stitched chip mask, tile core by tile core,
            # against the uncorrected target printed as its own mask.
            for tile, is_empty in zip(tile_grid.tiles(), empty):
                if is_empty:
                    continue
                core = tile.local_core_slices()
                window = tiling.extract_window(target, tile)
                corners = self.simulator.process_corners(
                    tiling.extract_window(result.mask, tile))
                l2 += float(((corners.nominal - window)[core] ** 2).sum())
                band += float(np.logical_xor(
                    corners.outer.astype(bool),
                    corners.inner.astype(bool))[core].sum())
                plain = self.engine.wafer(window) - window
                plain_l2 += float((plain[core] ** 2).sum())
        outcome.detail.update({
            "stitched_l2_nm2": l2 * area,
            "stitched_pvband_nm2": band * area,
            "uncorrected_l2_nm2": plain_l2 * area})
        problems += checks.no_worse("chip", "stitched mask L2", l2,
                                    "uncorrected target L2", plain_l2)
        return problems

    def close(self) -> None:
        pool = getattr(self, "pool", None)
        if pool is not None:
            pool.shutdown()
            self.pool = None
        checks.join_children()


def _tile_reports(reports, max_iterations: int) -> Dict[str, float]:
    """ILT totals of the tile tasks, from the per-tile reports the
    tile task returns: ``(index, l2, iterations, seconds, skipped)``."""
    iterations = runtime = 0.0
    calls = early = 0
    for report in reports:
        if not (isinstance(report, tuple) and len(report) == 5):
            raise RuntimeError(
                f"tile task report changed shape: {report!r}; update "
                f"perfbench/workloads.py")
        _, _, tile_iterations, seconds, skipped = report
        if skipped:
            continue
        calls += 1
        iterations += tile_iterations
        runtime += seconds
        early += int(tile_iterations < max_iterations)
    return {"worker.ilt.optimize.calls": calls,
            "worker.ilt.optimize.s": runtime,
            "worker.ilt.iterations": iterations,
            "worker.ilt.converged": early}


# ----------------------------------------------------------------------
class Pw64(Workload):
    """Process-window ILT at 64 px: ``window`` corners, weighted."""

    name = "pw64"
    expected_spans = ("litho.condition", "litho.forward", "litho.kernels",
                      "ilt.optimize", "metrics.evaluate",
                      "geometry.rasterize", "layoutgen.synthesize")
    GRID = 64
    ILT = ILTConfig(max_iterations=100, pw_objective="weighted")

    def setup(self) -> None:
        litho = LithoConfig.small(self.GRID)
        self.litho = litho
        kernels = litho_kernels.build_kernels(litho)
        self.engine = LithoEngine.for_kernels(kernels)
        conditions = ConditionSet.parse(
            "window", dose_variation=litho.dose_variation)
        self.conditions = conditions
        self.condition_engine = LithoEngine.for_conditions(kernels,
                                                           conditions)
        self.optimizer = ILTOptimizer(litho, self.ILT, engine=self.engine,
                                      conditions=conditions)
        self.simulator = LithoSimulator(litho, engine=self.engine)
        total = _count(36, self.seconds, 2)
        self.clips = _clips(self.seed, 64, total, litho)
        self.inputs = [clip[2] for clip in self.clips]
        _, layout, target, _ = self.clips[0]
        # Builds the defocused kernel stack.
        self.optimizer.optimize(target, max_iterations=1)
        metrics.evaluate_mask(self.simulator, target, target, layout=layout,
                              condition_engine=self.condition_engine)

    def run(self) -> Outcome:
        out = Outcome()
        speed = Speedometer()
        parts, items = [], []
        for name, layout, target, in_suite in self.clips:
            self.set_item(f"clip:{name}")
            out.attempted += 1
            speed.tick()
            try:
                t0 = time.perf_counter()
                result = self.optimizer.optimize(target)
                t1 = time.perf_counter()
                evaluation = metrics.evaluate_mask(
                    self.simulator, result.mask, target, layout=layout,
                    name=name, runtime_seconds=t1 - t0,
                    condition_engine=self.condition_engine)
                t2 = time.perf_counter()
            except Exception as exc:
                out.fail(name, exc)
                continue
            parts.append((t0, t2, 1))
            items.append((t0, t1, 1))
            out.outputs.append((name, target, result, evaluation, in_suite))
        speed.sample()
        self.set_item(None)
        out.timed(speed, parts, items, items)
        out.detail.update({
            "clips": len(self.clips),
            "corners": self.conditions.num_conditions,
            "pw_clip_s_p50": p50(out.item_s),
            "window_pvband_nm2_mean": _mean(
                o[3].window_pvband_nm2 for o in out.outputs if o[4]),
            "nominal_l2_nm2_mean": _mean(o[3].l2_nm2 for o in out.outputs
                                         if o[4]),
        })
        return out

    def check(self, outcome: Outcome) -> List[str]:
        problems = []
        area = self.litho.pixel_nm ** 2
        shape = (self.GRID, self.GRID)
        optimized, plain = [], []
        for name, target, result, evaluation, _ in outcome.outputs:
            optimized.append(evaluation.l2_nm2)
            plain.append(float(self.engine.discrete_l2(target, target))
                         * area)
            problems += checks.mask_problems(name, result.mask, shape)
            problems += checks.l2_problems(
                name, self.engine, result.mask, target,
                {"optimizer l2 (px)": (result.l2, 1.0),
                 "evaluate_mask l2_nm2": (evaluation.l2_nm2, area)})
            if not (evaluation.window_pvband_nm2 is not None
                    and math.isfinite(evaluation.window_pvband_nm2)):
                problems.append(f"{name}: window PV band missing")
        problems += checks.no_worse("clips", "mean PW-ILT nominal L2",
                                    _mean(optimized),
                                    "uncorrected target L2", _mean(plain))
        return problems


WORKLOADS = {cls.name: cls for cls in (Clip128, Train64, ChipTiled, Pw64)}
