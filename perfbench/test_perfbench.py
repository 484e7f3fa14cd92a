"""Smoke-sized self-tests of the benchmark (about two minutes in total).

Run from the repository root::

    python3 -m pytest perfbench -q

Every run here uses ``--seconds 1``, which scales each workload down
to a handful of items; the metric set, the units and the exact
repetition of work counts do not depend on the size.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("clip128", "train64", "chip_tiled", "pw64")
COUNTS = ("litho.forward.calls", "litho.forward.masks",
          "litho.gradient.calls", "litho.gradient.masks",
          "litho.condition.calls", "litho.condition.masks",
          "ilt.optimize.calls", "ilt.iterations", "core.pretrain.steps",
          "core.gan.steps", "nn.conv.calls", "tiling.tiles",
          "tiling.tiles_skipped", "parallel.tasks")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run(workload, seed, trace, root=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    return result, detail


@pytest.fixture(scope="module")
def runs():
    """Per workload: one untraced run and two traced runs of seed 1,
    and one untraced run of seed 2."""
    return {w: {"plain": run(w, 1, 0), "traced": [run(w, 1, 1),
                                                   run(w, 1, 1)],
                "other_seed": run(w, 2, 0)}
            for w in WORKLOADS}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(runs, workload):
    result, _ = runs[workload]["plain"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, entry in result["metrics"].items():
        assert entry["value"] != 0, name

    traced, _ = runs[workload]["traced"][0]
    assert traced["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_one_seed(runs, workload):
    first, second = (r[0]["metrics"] for r in runs[workload]["traced"])
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["ilt.iterations"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_inputs_not_metric_set(runs, workload):
    (one, detail_one), (two, detail_two) = (runs[workload]["plain"],
                                            runs[workload]["other_seed"])
    assert detail_one["inputs_sha256"] != detail_two["inputs_sha256"]
    assert set(one["metrics"]) == set(two["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_accounting_adds_up(runs, workload):
    metrics = {k: v["value"]
               for k, v in runs[workload]["traced"][0][0]["metrics"].items()}
    self_total = sum(v for k, v in metrics.items()
                     if k.count(".") == 1 and k.endswith(".self_s"))
    assert self_total + metrics["unattributed_s"] == pytest.approx(
        metrics["traced_wall_s"], rel=1e-6)
    assert 0 <= metrics["unattributed_s"] <= 0.1 * metrics["traced_wall_s"]


def test_missing_entry_point_fails_loudly(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import spans
    monkeypatch.setattr(spans, "ENTRY_POINTS", [
        ("repro.litho.engine", "LithoEngine", "no_such_method",
         "litho.forward")])
    with pytest.raises(RuntimeError, match="no longer exists"):
        spans.Recorder().install()


def _session_processes(sid):
    """Processes, zombies included, still in session ``sid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:  # ended while we looked
            continue
        if int(fields[3]) == sid:
            found.append(int(entry))
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("trace", (0, 1))
def test_no_process_outlives_the_run(trace):
    """The pool workers and the shared-memory resource tracker are
    stopped and reaped before the run exits."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "chip_tiled", "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    _, stderr = proc.communicate(timeout=300)
    assert proc.returncode == 0, stderr
    assert _session_processes(proc.pid) == []


def _bench_only_copy(tmp_path, why_edit=None, with_src=False):
    """A directory holding BENCHMARK.json and perfbench/ only (plus,
    optionally, a link to the program sources)."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads(json.dumps(SPEC))
    if why_edit:
        spec["workloads"][0]["why"] = why_edit(spec["workloads"][0]["why"])
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    if with_src:
        os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    return str(tmp_path)


def test_refuses_mismatched_generator_weights(tmp_path):
    root = _bench_only_copy(
        tmp_path, lambda why: why[:-64] + "0" * 64, with_src=True)
    proc = run("clip128", 1, 0, root=root, check=False)
    assert proc.returncode != 0
    assert "sha256" in proc.stderr and '"correct"' not in proc.stdout


def test_fails_without_program_sources(tmp_path):
    proc = run("pw64", 1, 0, root=_bench_only_copy(tmp_path), check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
