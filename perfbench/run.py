#!/usr/bin/env python3
"""Repo benchmark: one named workload, end-to-end or per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload clip128 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric, measured untraced.
``--trace 1`` runs the same work twice, untraced and then traced, and
prints the per-layer metrics from the traced pass together with the
tracing overhead.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it carry the provenance stamp and the workload's own named
results.  See perfbench/README.md.
"""

import os
import sys
import time

STARTED = time.perf_counter()

# One BLAS/OpenMP thread per process, fixed before numpy is imported:
# the 2-worker workload then runs 2 busy processes on 2 cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def _pin_malloc() -> bool:
    """Fix glibc's mmap and trim thresholds; True when they are fixed.

    glibc raises its mmap threshold the first time a large block is
    freed, so whether numpy's large temporaries are mapped afresh (and
    page-faulted) on every use depends on a run's allocation history.
    train64 ran in two such modes, 20% apart in GAN step time and 10 MB
    apart in peak RSS.  Fixing the thresholds at the values the dynamic
    rule tops out at (32 MiB, and twice that for trimming) leaves one
    mode.  Forked pool workers inherit the setting.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):  # not glibc
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 32 << 20)
                and mallopt(m_trim_threshold, 64 << 20))


MALLOC_PINNED = _pin_malloc()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

#: Untraced set-ups per run; set-up time is their median.
SETUP_REPEATS = 3
#: Fresh interpreters repeating the run's imports; set-up time counts
#: their median import time.
IMPORT_REPEATS = 5
#: Iterations of the pure-Python loop that calibrates each import probe,
#: and the loop's time (s) at the reference speed: about the median of
#: the probes on a 2-core x86 host, so normalized import times read
#: close to raw ones there.
IMPORT_LOOP = 300_000
IMPORT_LOOP_REFERENCE_S = 0.022
#: Largest share of the traced wall time that may fall outside every
#: wrapped call (the benchmark's own loop and glue).
UNATTRIBUTED_BOUND = 0.10

WEIGHTS = os.path.join(HERE, "weights", "gen128.npz")

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"), ("item_s_p50", "s"), ("ilt_s_p50", "s"),
)

LAYER_METRICS = (
    ("litho.forward.calls", "count"), ("litho.forward.masks", "count"),
    ("litho.forward.s", "s"), ("litho.gradient.calls", "count"),
    ("litho.gradient.masks", "count"), ("litho.gradient.s", "s"),
    ("litho.condition.calls", "count"), ("litho.condition.masks", "count"),
    ("litho.condition.s", "s"), ("litho.masks_per_call", "masks/call"),
    ("litho.kernels.build_s", "s"), ("litho.self_s", "s"),
    ("ilt.optimize.calls", "count"), ("ilt.optimize.s", "s"),
    ("ilt.iterations", "count"), ("ilt.early_stop_frac", "fraction"),
    ("ilt.self_s", "s"),
    ("core.generate.calls", "count"), ("core.generate.s", "s"),
    ("core.pretrain.steps", "count"), ("core.pretrain.s", "s"),
    ("core.pretrain.self_s", "s"), ("core.gan.steps", "count"),
    ("core.gan.generator_step.s", "s"),
    ("core.gan.discriminator_step.s", "s"), ("core.self_s", "s"),
    ("nn.conv.calls", "count"), ("nn.conv.s", "s"),
    ("nn.backward.calls", "count"), ("nn.backward.s", "s"),
    ("nn.self_s", "s"),
    ("layoutgen.synthesize.calls", "count"), ("layoutgen.synthesize.s", "s"),
    ("layoutgen.reference_mask.calls", "count"),
    ("layoutgen.reference_mask.s", "s"), ("layoutgen.library.s", "s"),
    ("layoutgen.self_s", "s"),
    ("geometry.rasterize.calls", "count"), ("geometry.rasterize.s", "s"),
    ("geometry.self_s", "s"),
    ("metrics.evaluate.calls", "count"), ("metrics.evaluate.s", "s"),
    ("metrics.self_s", "s"),
    ("parallel.pool.start_s", "s"), ("parallel.map.s", "s"),
    ("parallel.tasks", "count"), ("parallel.task_s_p50", "s"),
    ("parallel.worker_busy_s", "s"), ("parallel.utilization", "fraction"),
    ("parallel.wait_s", "s"), ("parallel.stalls", "count"),
    ("parallel.task_failures", "count"), ("parallel.self_s", "s"),
    ("tiling.tiles", "count"), ("tiling.tiles_skipped", "count"),
    ("tiling.stitch.s", "s"), ("tiling.self_s", "s"),
    ("traced_wall_s", "s"), ("unattributed_s", "s"),
    ("trace_overhead_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def _import_program():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program sources under {SRC}")
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


def expected_weights_sha256() -> str:
    """The generator-weight digest recorded in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in spec["workloads"]:
        if workload["name"] == "clip128":
            found = re.search(r"sha256 ([0-9a-f]{64})", workload["why"])
            if found:
                return found.group(1)
    raise BenchError("BENCHMARK.json records no clip128 weights sha256")


def verified_weights() -> str:
    with open(WEIGHTS, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    expected = expected_weights_sha256()
    if digest != expected:
        raise BenchError(f"{WEIGHTS}: sha256 {digest} does not match "
                         f"BENCHMARK.json ({expected}); refusing to run")
    return WEIGHTS


def provenance(args) -> dict:
    import numpy as np
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_rev = None
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "malloc_thresholds_pinned": MALLOC_PINNED,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
    }


class KernelCache:
    """A private, initially empty on-disk kernel cache per set-up."""

    def __init__(self, scratch: str):
        self.scratch = scratch
        self.count = 0

    def fresh(self) -> None:
        from repro.litho import kernels
        kernels.clear_cache()
        path = os.path.join(self.scratch, f"kernels-{self.count}")
        self.count += 1
        os.makedirs(path)
        os.environ["REPRO_KERNEL_CACHE"] = path


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for
    child (a pool worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _timed_pass(workload, cache, repeats: int):
    """``repeats`` set-ups (median time) and one timed run."""
    setups = []
    for _ in range(repeats):
        workload.close()
        cache.fresh()
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    started = time.perf_counter()
    outcome = workload.run()
    run_s = time.perf_counter() - started
    return setups, run_s, outcome, _problems(workload, outcome)


_IMPORT_PROBE = """\
import time


def loop():
    started = time.perf_counter()
    x = 0
    for i in range({loop}):
        x += i * i % 7
    return time.perf_counter() - started


before = loop()
started = time.perf_counter()
import sys
sys.path.insert(0, {here!r})
import run
run._import_program()
import workloads, spans
import_s = time.perf_counter() - started
print((before + loop()) / 2, import_s)
"""


def _import_times(repeats: int) -> list:
    """Seconds the imports of this run take in ``repeats`` fresh
    interpreters, one after another, as ``(raw, normalized)`` pairs.

    The run's own first import reads the libraries from disk or from
    the page cache, depending on what other processes on the host left
    there; the repeats find them cached.  Import time is interpreter
    work (unmarshalling, module bodies), which the numpy kernel of
    ``speed.py`` does not track, so each probe times a fixed pure-Python
    loop before and after the imports and is normalized by their mean.
    On a host that drifted, a loop timed before the imports followed
    the import time with a correlation of 0.9 over fourteen runs, and
    normalization cut the spread of the import time from 0.49 to 0.04.
    """
    times = []
    code = _IMPORT_PROBE.format(loop=IMPORT_LOOP, here=HERE)
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr[-2000:]}")
        loop_s, import_s = (float(v) for v in proc.stdout.split()[-2:])
        times.append((import_s,
                      import_s * IMPORT_LOOP_REFERENCE_S / loop_s))
    return times


def _problems(workload, outcome):
    """Failed checks plus raised items; returns ``(problems, failed)``
    where ``failed`` counts items, capped at the items attempted."""
    problems = outcome.failures + workload.check(outcome)
    return problems, min(outcome.attempted, len(problems))


def _at_reference_speed(seconds: float, detail: dict) -> float:
    """Scale a pass's wall time by its median calibration sample, so
    the two passes of a traced run compare at one host speed."""
    from speed import REFERENCE_S
    sample = detail.get("speed_sample_s_p50")
    return seconds * REFERENCE_S / sample if sample else seconds


def layer_metrics(recorder, workload, outcome, traced_wall: float,
                  untraced_wall: float, untraced_detail: dict):
    """Per-layer metrics of the traced pass and the accounting
    problems: ``(values, problems)``."""
    import numpy as np
    summary = recorder.summarize()
    extra = outcome.layers

    def get(name, default=0.0):
        return summary.get(name, default)

    values = {name: 0.0 for name, _ in LAYER_METRICS}
    for group in ("forward", "gradient", "condition"):
        key = f"litho.{group}"
        values[f"{key}.calls"] = get(f"{key}.calls") + extra.get(
            f"worker.{key}.calls", 0)
        values[f"{key}.masks"] = get(f"{key}.masks") + extra.get(
            f"worker.{key}.masks", 0)
        values[f"{key}.s"] = get(f"{key}.s") + extra.get(
            f"worker.{key}.s", 0.0)
    calls = sum(values[f"litho.{g}.calls"]
                for g in ("forward", "gradient", "condition"))
    masks = sum(values[f"litho.{g}.masks"]
                for g in ("forward", "gradient", "condition"))
    values["litho.masks_per_call"] = masks / calls if calls else 0.0
    values["litho.kernels.build_s"] = get("litho.kernels.s")
    ilt_calls = get("ilt.optimize.calls") + extra.get(
        "worker.ilt.optimize.calls", 0)
    values["ilt.optimize.calls"] = ilt_calls
    values["ilt.optimize.s"] = get("ilt.optimize.s") + extra.get(
        "worker.ilt.optimize.s", 0.0)
    values["ilt.iterations"] = get("ilt.iterations") + extra.get(
        "worker.ilt.iterations", 0)
    converged = get("ilt.converged") + extra.get("worker.ilt.converged", 0)
    values["ilt.early_stop_frac"] = converged / ilt_calls if ilt_calls \
        else 0.0
    values["core.generate.calls"] = get("core.generate.calls")
    values["core.generate.s"] = get("core.generate.s")
    values["core.pretrain.steps"] = get("core.pretrain.calls")
    values["core.pretrain.s"] = get("core.pretrain.s")
    values["core.pretrain.self_s"] = get("core.pretrain.self_s")
    values["core.gan.steps"] = get("core.gan.generator_step.calls")
    values["core.gan.generator_step.s"] = get("core.gan.generator_step.s")
    values["core.gan.discriminator_step.s"] = get(
        "core.gan.discriminator_step.s")
    for name in ("nn.conv", "nn.backward", "layoutgen.synthesize",
                 "layoutgen.reference_mask", "geometry.rasterize",
                 "metrics.evaluate"):
        values[f"{name}.calls"] = get(f"{name}.calls")
        values[f"{name}.s"] = get(f"{name}.s")
    values["layoutgen.library.s"] = get("layoutgen.library.s")
    values["parallel.map.s"] = get("parallel.map.s")
    values["tiling.stitch.s"] = get("tiling.stitch.s")
    for name in ("parallel.pool.start_s", "parallel.tasks",
                 "parallel.task_s_p50", "parallel.worker_busy_s",
                 "parallel.utilization", "parallel.wait_s",
                 "parallel.stalls", "tiling.tiles", "tiling.tiles_skipped"):
        if name in extra:
            values[name] = extra[name]
    values["parallel.task_failures"] = sum(
        1 for f in outcome.failures if "WorkerTaskError" in f
        or "WorkerCrashError" in f)

    self_total = 0.0
    for layer in ("litho", "ilt", "core", "nn", "layoutgen", "geometry",
                  "metrics", "parallel", "tiling"):
        values[f"{layer}.self_s"] = get(f"{layer}.self_s")
        self_total += values[f"{layer}.self_s"]
    values["traced_wall_s"] = traced_wall
    values["unattributed_s"] = traced_wall - summary["top_level_s"]
    values["trace_overhead_s"] = (
        _at_reference_speed(traced_wall, outcome.detail)
        - _at_reference_speed(untraced_wall, untraced_detail))

    # Layer accounting: self times plus the unattributed rest must be
    # the traced wall time, and the rest must stay small.
    problems = []
    if abs(self_total + values["unattributed_s"] - traced_wall) > \
            1e-6 * traced_wall:
        problems.append(f"layer self times {self_total:.6f} s + "
                        f"unattributed {values['unattributed_s']:.6f} s "
                        f"!= traced wall {traced_wall:.6f} s")
    if not 0.0 <= values["unattributed_s"] <= UNATTRIBUTED_BOUND * \
            traced_wall:
        problems.append(f"unattributed {values['unattributed_s']:.3f} s "
                        f"outside [0, {UNATTRIBUTED_BOUND} x traced wall "
                        f"{traced_wall:.3f} s]")
    # A layer the workload drives that records no call means an entry
    # point moved: fail instead of reporting zero for it.
    missing = [name for name in workload.expected_spans
               if not get(f"{name}.calls")]
    if missing:
        raise BenchError(f"{workload.name}: traced run recorded no call of "
                         f"{', '.join(missing)}")
    for name, value in values.items():
        if not np.isfinite(value):
            problems.append(f"per-layer metric {name} is {value}")
    return values, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        _import_program()
        import workloads
        import spans
        import_s = time.perf_counter() - STARTED
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose "
                             f"from {sorted(workloads.WORKLOADS)}")
        return _run(args, workloads, spans, import_s)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    finally:
        import checks
        checks.end_children()


def _run(args, workloads, spans, import_s: float) -> int:
    import numpy as np

    cls = workloads.WORKLOADS[args.workload]
    # Any integer is a valid workload seed; the synthesizers take
    # non-negative ones.
    seed = args.seed % 2 ** 32
    kwargs = {}
    if cls is workloads.Clip128:
        kwargs["weights"] = verified_weights()
    scratch = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(scratch)
    cache = KernelCache(scratch)
    workload = cls(seed, args.seconds, **kwargs)
    try:
        setups, run_s, outcome, (problems, failed) = _timed_pass(
            workload, cache, 1 if args.trace else SETUP_REPEATS)
        workload.close()
        untraced_wall = setups[-1] + run_s
        outcome.detail["inputs_sha256"] = workload.inputs_sha256()
        attempted = outcome.attempted

        if args.trace:
            recorder = spans.Recorder()
            recorder.install()
            workload = cls(seed, args.seconds, recorder=recorder, **kwargs)
            cache.fresh()
            recorder.active = True
            started = time.perf_counter()
            workload.setup()
            traced = workload.run()
            traced_wall = time.perf_counter() - started
            recorder.active = False
            traced_problems, traced_failed = _problems(workload, traced)
            workload.close()
            attempted += traced.attempted
            failed += traced_failed
            problems += traced_problems
            values, layer_problems = layer_metrics(
                recorder, workload, traced, traced_wall, untraced_wall,
                outcome.detail)
            problems += layer_problems
            recorder.write(os.path.join(
                ROOT, ".perfbench",
                f"spans-{args.workload}-seed{args.seed}.jsonl"))
            metrics = {name: {"value": float(values[name]), "unit": unit}
                       for name, unit in LAYER_METRICS}
        else:
            values = {
                "wall_s": outcome.wall_s,
                # Before the import probes, which would count as children.
                "peak_rss_mb": _peak_rss_mb(),
                "ok_frac": 1.0 - failed / max(attempted, 1),
                "item_s_p50": workloads.p50(outcome.item_s),
                "ilt_s_p50": workloads.p50(outcome.ilt_s),
            }
            probes = _import_times(IMPORT_REPEATS)
            values["setup_s"] = (statistics.median(n for _, n in probes)
                                 + statistics.median(setups))
            outcome.detail.update({
                "import_s": import_s,
                "import_probe_raw_s": [raw for raw, _ in probes],
                "import_probe_s": [n for _, n in probes]})
            for name, value in values.items():
                if not np.isfinite(value):
                    problems.append(f"metric {name} is {value}")
            metrics = {name: {"value": float(values[name]), "unit": unit}
                       for name, unit in END_TO_END}
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in problems[:50]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args)}))
    print(json.dumps({"detail": outcome.detail, "setup_runs_s": setups}))
    print(json.dumps({"correct": not problems, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
