"""In-memory span recorder for the traced benchmark run.

The traced run wraps the program's public entry points (listed in
:data:`ENTRY_POINTS`) from outside the program: each wrapped call
records one span with its name, start, end, parent span and the id
of the benchmark item (clip, step or tile) being processed.  Spans
stay in memory and are written out once, at the end of the run.

A span's *self time* is its duration minus the time covered by its
child spans.  Every recorded span belongs to one layer (the first
component of its name, after the repo's modules), so the per-layer
self times plus the time spent outside any wrapped call (the
benchmark's own code, ``unattributed_s``) add up to the traced wall
time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: (module, class or None, attribute, span name).  A class attribute
#: is replaced on the class; a module-level function is replaced in
#: every loaded module that imported it by name.
ENTRY_POINTS = [
    # litho: nominal forward, nominal adjoint, condition stack, kernels.
    ("repro.litho.engine", "LithoEngine", "spectrum", "litho.forward"),
    ("repro.litho.engine", "LithoEngine", "fields", "litho.forward"),
    ("repro.litho.engine", "LithoEngine", "aerial", "litho.forward"),
    ("repro.litho.engine", "LithoEngine", "aerial_and_fields",
     "litho.forward"),
    ("repro.litho.engine", "LithoEngine", "wafer", "litho.forward"),
    ("repro.litho.engine", "LithoEngine", "relaxed_wafer", "litho.forward"),
    ("repro.litho.engine", "LithoEngine", "litho_error", "litho.forward"),
    ("repro.litho.engine", "LithoEngine", "discrete_l2", "litho.forward"),
    ("repro.litho.engine", "LithoEngine", "binarized_score",
     "litho.forward"),
    ("repro.litho.engine", "LithoEngine", "error_and_gradient_wrt_mask",
     "litho.gradient"),
    ("repro.litho.engine", "LithoEngine", "error_and_gradient",
     "litho.gradient"),
    ("repro.litho.engine", "LithoEngine", "condition_aerial",
     "litho.condition"),
    ("repro.litho.engine", "LithoEngine", "condition_wafers",
     "litho.condition"),
    ("repro.litho.engine", "LithoEngine", "condition_relaxed_wafers",
     "litho.condition"),
    ("repro.litho.engine", "LithoEngine", "condition_litho_errors",
     "litho.condition"),
    ("repro.litho.engine", "LithoEngine",
     "condition_error_and_gradient_wrt_mask", "litho.condition"),
    ("repro.litho.engine", "LithoEngine", "condition_error_and_gradient",
     "litho.condition"),
    ("repro.litho.kernels", None, "build_kernels", "litho.kernels"),
    # ilt
    ("repro.ilt.optimizer", "ILTOptimizer", "optimize", "ilt.optimize"),
    # core
    ("repro.core.generator", "MaskGenerator", "generate", "core.generate"),
    ("repro.core.flow", "GanOpcFlow", "optimize", "core.flow"),
    ("repro.core.pretrain", "ILTGuidedPretrainer", "train",
     "core.pretrain.train"),
    ("repro.core.pretrain", "ILTGuidedPretrainer", "step", "core.pretrain"),
    ("repro.core.gan_opc", "GanOpcTrainer", "train", "core.gan.train"),
    ("repro.core.gan_opc", "GanOpcTrainer", "generator_step",
     "core.gan.generator_step"),
    ("repro.core.gan_opc", "GanOpcTrainer", "discriminator_step",
     "core.gan.discriminator_step"),
    # nn: convolution forward and the autograd backward pass.
    ("repro.nn.functional", None, "conv2d", "nn.conv"),
    ("repro.nn.functional", None, "conv_transpose2d", "nn.conv"),
    ("repro.nn.tensor", "Tensor", "backward", "nn.backward"),
    # layoutgen: synthesizers and the reference-mask library.
    ("repro.layoutgen.topology", "LayoutSynthesizer", "generate",
     "layoutgen.synthesize"),
    ("repro.layoutgen.chip", None, "synthesize_chip",
     "layoutgen.synthesize"),
    ("repro.bench.iccad13", None, "make_clip", "layoutgen.synthesize"),
    ("repro.layoutgen.dataset", "SyntheticDataset", "reference_mask",
     "layoutgen.reference_mask"),
    ("repro.layoutgen.dataset", "SyntheticDataset", "precompute",
     "layoutgen.library"),
    # geometry / metrics
    ("repro.geometry.raster", None, "rasterize", "geometry.rasterize"),
    ("repro.metrics.report", None, "evaluate_mask", "metrics.evaluate"),
    # parallel / tiling
    ("repro.parallel.pool", "WorkerPool", "map", "parallel.map"),
    ("repro.tiling.runner", None, "tiled_ilt", "tiling.run"),
    ("repro.tiling.stitch", None, "stitch_cores", "tiling.stitch"),
    ("repro.tiling.stitch", None, "stitch_feathered", "tiling.stitch"),
]

#: Layers in reporting order; every span name starts with one of them.
LAYERS = ("litho", "ilt", "core", "nn", "layoutgen", "geometry", "metrics",
          "parallel", "tiling")


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "masks",
                 "result")

    def __init__(self, name, start, parent, item, masks):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.masks = masks
        self.result = None


def _mask_count(args) -> int:
    """Masks in a litho call: 1 for a 2-D mask, N for an (N, H, W)
    stack (the first argument after ``self``)."""
    if len(args) < 2:
        return 0
    ndim = getattr(args[1], "ndim", 0)
    if ndim == 2:
        return 1
    if ndim >= 3:
        return int(args[1].shape[0])
    return 0


class Recorder:
    """Collects spans of this process while :attr:`active` is set."""

    def __init__(self):
        self.spans: List[Span] = []
        self.active = False
        self.item: Optional[str] = None
        self._stack: List[int] = []
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self
        is_litho = name.startswith("litho.") and name != "litho.kernels"
        keep_result = name in ("ilt.optimize", "parallel.map")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Worker processes forked from a traced parent run the
            # wrapped code untraced: their work comes home through the
            # pool's own engine counters and PoolStats.
            if not recorder.active or os.getpid() != recorder._pid:
                return fn(*args, **kwargs)
            stack = recorder._stack
            span = Span(name, 0.0, stack[-1] if stack else -1,
                        recorder.item,
                        _mask_count(args) if is_litho else 0)
            stack.append(len(recorder.spans))
            recorder.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if keep_result:
                span.result = ((int(result.iterations),
                                bool(result.converged))
                               if name == "ilt.optimize" else result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point; a missing one fails loudly."""
        for module_name, class_name, attr, span_name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(
                module, class_name, None)
            original = getattr(owner, attr, None) if owner is not None \
                else None
            if original is None or not callable(original):
                where = ".".join(filter(None, (module_name, class_name,
                                               attr)))
                raise RuntimeError(
                    f"traced entry point {where} no longer exists; update "
                    f"perfbench/spans.py rather than report zero for it")
            wrapper = self._wrap(span_name, original)
            if class_name is not None:
                setattr(owner, attr, wrapper)
                continue
            # A module-level function is bound by name in every module
            # that imported it: replace each binding.
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "") or ""
                if not name.startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        if not self.active:
            yield
            return
        stack = self._stack
        span = Span(name, time.perf_counter(),
                    stack[-1] if stack else -1, self.item, 0)
        stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            stack.pop()

    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write every span as one JSON line (start/end in seconds)."""
        with open(path, "w") as fh:
            for index, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "item": s.item,
                    "masks": s.masks}) + "\n")

    def summarize(self) -> Dict[str, float]:
        """Per-name call/time totals and per-layer self times.

        A span counts towards its name's ``calls``/``s``/``masks`` only
        when its parent has a different name, so a public method that
        calls another one of its group (``wafer`` -> ``aerial``) is one
        call, not two.  Self times count every span.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: Dict[str, float] = {}
        top_level = 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        iterations = converged = 0
        for index, s in enumerate(self.spans):
            duration = s.end - s.start
            layer = s.name.split(".", 1)[0]
            if layer not in LAYERS:
                raise RuntimeError(f"span {s.name!r} has no known layer")
            out[f"{layer}.self_s"] += duration - child_time[index]
            self_key = f"{s.name}.self_s"
            out[self_key] = out.get(self_key, 0.0) + duration - \
                child_time[index]
            if s.parent < 0:
                top_level += duration
            if s.parent >= 0 and self.spans[s.parent].name == s.name:
                continue
            out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
            out[f"{s.name}.s"] = out.get(f"{s.name}.s", 0.0) + duration
            out[f"{s.name}.masks"] = out.get(f"{s.name}.masks", 0) + s.masks
            if s.name == "ilt.optimize" and s.result is not None:
                iterations += s.result[0]
                converged += int(s.result[1])
        out["top_level_s"] = top_level
        out["ilt.iterations"] = iterations
        out["ilt.converged"] = converged
        return out
