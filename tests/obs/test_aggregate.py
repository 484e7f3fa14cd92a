"""Cross-process telemetry aggregation (ISSUE 8 tentpole).

Covers the worker-side condensation (:func:`capture_task`: bounded
span shipping, complete summaries, engine deltas), the parent-side
Chrome conversion (clock rebasing onto the parent epoch, worker
pid/tid lanes), and the fleet merge/reconciliation that backs the
``repro profile`` and ``repro table2`` fleet tables.
"""

import time

import pytest

from repro.obs import profiler, trace
from repro.obs.aggregate import (DEFAULT_SPAN_CAP, SPAN_CAP_ENV,
                                 FleetTelemetry, TaskTelemetry,
                                 capture_task, chrome_events,
                                 format_engine_table,
                                 process_metadata_event, reconcile,
                                 span_cap)


def _traced_task(names=("litho.forward", "litho.adjoint")):
    """Run a tiny traced+profiled workload and capture it."""
    tracer = trace.enable(trace.Tracer())
    prof = profiler.enable()
    for name in names:
        with trace.span(name):
            time.sleep(0.001)
    trace.disable()
    profiler.disable()
    delta = {"forward_calls": 1.0, "gradient_calls": 1.0}
    return capture_task(tracer, prof, delta, seconds=0.5), tracer


class TestSpanCap:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(SPAN_CAP_ENV, raising=False)
        assert span_cap() == DEFAULT_SPAN_CAP

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(SPAN_CAP_ENV, "7")
        assert span_cap() == 7

    def test_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv(SPAN_CAP_ENV, "many")
        assert span_cap() == DEFAULT_SPAN_CAP


class TestCaptureTask:
    def test_without_instrumentation_ships_engine_delta(self):
        telemetry = capture_task(None, None, {"forward_calls": 3.0},
                                 seconds=1.5)
        assert telemetry.engine_delta == {"forward_calls": 3.0}
        assert telemetry.seconds == 1.5
        assert telemetry.spans == [] and telemetry.span_summary == {}

    def test_spans_and_summary_captured(self):
        telemetry, tracer = _traced_task()
        assert telemetry.epoch == tracer.epoch
        names = [name for name, *_ in telemetry.spans]
        assert names == ["litho.forward", "litho.adjoint"]
        assert telemetry.span_summary["litho.forward"]["count"] == 1
        assert telemetry.dropped_spans == 0

    def test_cap_keeps_longest_and_counts_drops(self):
        tracer = trace.enable(trace.Tracer())
        with trace.span("long"):
            time.sleep(0.005)
        for _ in range(5):
            with trace.span("short"):
                pass
        trace.disable()
        telemetry = capture_task(tracer, None, {}, seconds=0.1, cap=2)
        assert len(telemetry.spans) == 2
        assert telemetry.dropped_spans == 4
        assert "long" in [name for name, *_ in telemetry.spans]
        # The summary stays complete even when events are dropped.
        assert telemetry.span_summary["short"]["count"] == 5


class TestTaskTelemetryFields:
    def test_unset_fields_read_as_empty(self):
        telemetry = TaskTelemetry(7, 0.5, {"forward_calls": 1.0})
        assert (telemetry.epoch, telemetry.dropped_spans) == (0.0, 0)
        assert telemetry.spans == [] and telemetry.span_summary == {}
        assert telemetry.op_stats == {} and telemetry.module_stats == {}
        with pytest.raises(AttributeError):
            telemetry.no_such_field

    def test_pickle_round_trip(self):
        import pickle
        bare = pickle.loads(pickle.dumps(
            capture_task(None, None, {"forward_calls": 2.0}, 0.25)))
        assert bare.engine_delta == {"forward_calls": 2.0}
        assert bare.seconds == 0.25 and bare.spans == []
        traced, tracer = _traced_task()
        loaded = pickle.loads(pickle.dumps(traced))
        for name in ("pid", "seconds", "engine_delta", "epoch", "spans",
                     "span_summary", "dropped_spans", "op_stats",
                     "module_stats"):
            assert getattr(loaded, name) == getattr(traced, name), name
        assert loaded.epoch == tracer.epoch


class TestChromeEvents:
    def test_rebase_and_lanes(self):
        telemetry, tracer = _traced_task()
        telemetry.pid = 4242
        parent_epoch = tracer.epoch - 1.0  # parent started 1s earlier
        events = chrome_events(telemetry, parent_epoch)
        assert len(events) == len(telemetry.spans)
        for event, (name, start, duration, tid, depth) in zip(
                events, telemetry.spans):
            assert event["name"] == name
            assert event["ph"] == "X"
            assert event["pid"] == 4242
            assert event["tid"] == tid
            assert event["args"]["depth"] == depth
            assert event["ts"] == pytest.approx((start + 1.0) * 1e6)
            assert event["dur"] == pytest.approx(duration * 1e6)

    def test_process_metadata_event(self):
        event = process_metadata_event(99, "repro worker 99")
        assert event["ph"] == "M" and event["name"] == "process_name"
        assert event["pid"] == 99
        assert event["args"]["name"] == "repro worker 99"

    def test_external_events_round_trip_through_tracer(self):
        telemetry, _ = _traced_task()
        telemetry.pid = 777
        parent = trace.Tracer()
        with parent.span("parallel.map"):
            pass
        parent.add_external_events([process_metadata_event(777, "w")])
        parent.add_external_events(chrome_events(telemetry, parent.epoch))
        chrome = parent.to_chrome()
        pids = {e["pid"] for e in chrome["traceEvents"]}
        assert pids == {parent.pid, 777}


class TestFleetTelemetry:
    def _telemetry(self, pid, forward=2.0):
        return TaskTelemetry(
            pid=pid, seconds=0.25,
            span_summary={"litho.forward": {"count": int(forward),
                                            "seconds": 0.1}},
            engine_delta={"forward_calls": forward, "forward_masks": forward,
                          "forward_seconds": 0.1},
            op_stats={"conv2d": {"calls": 4, "total_seconds": 0.05}},
            dropped_spans=1)

    def test_merge_sums_everything(self):
        fleet = FleetTelemetry()
        fleet.add(self._telemetry(1, forward=2.0))
        fleet.add(self._telemetry(1, forward=3.0))
        fleet.add(self._telemetry(2, forward=4.0))
        fleet.add(None)  # skipped tasks are ignored
        assert fleet.tasks == 3
        assert fleet.dropped_spans == 3
        assert fleet.engine_totals["forward_calls"] == 9.0
        assert fleet.span_summary["litho.forward"]["count"] == 9
        assert fleet.op_stats["conv2d"]["calls"] == 12
        # per-pid breakdowns power the worker_span_summary records
        assert fleet.pid_engine[1]["forward_calls"] == 5.0
        assert fleet.pid_span_summary[2]["litho.forward"]["count"] == 4
        assert fleet.engine_seconds == pytest.approx(0.3)

    def test_merged_summary_includes_parent(self):
        fleet = FleetTelemetry()
        fleet.add(self._telemetry(1, forward=2.0))
        merged = fleet.merged_summary(
            {"litho.forward": {"count": 1, "seconds": 0.2},
             "parallel.map": {"count": 1, "seconds": 0.5}})
        assert merged["litho.forward"]["count"] == 3
        assert merged["parallel.map"]["count"] == 1

    def test_reconcile_matches_and_mismatches(self):
        fleet = FleetTelemetry()
        fleet.add(self._telemetry(1, forward=2.0))
        result = fleet.reconcile()
        assert result["forward_calls"]["match"] is True
        assert result["gradient_calls"] == {"stats": 0, "spans": 0,
                                            "match": True}
        broken = reconcile({"forward_calls": 5},
                           {"litho.forward": {"count": 2, "seconds": 0.1}})
        assert broken["forward_calls"] == {"stats": 5, "spans": 2,
                                           "match": False}


def test_format_engine_table_rows():
    table = format_engine_table({"forward_calls": 4, "forward_masks": 4,
                                 "forward_seconds": 2.0,
                                 "gradient_calls": 8, "gradient_masks": 8,
                                 "gradient_seconds": 4.0})
    lines = table.splitlines()
    assert lines[0].startswith("fleet litho engine")
    assert any("forward" in line and "2.000" in line for line in lines)
    assert any("gradient" in line and "4.000" in line for line in lines)
