"""Workspace arenas: one slot per dtype, and the litho engine's arena.

Regression tests for the composite ``(key, dtype)`` storage keys:
before them, an arena shared by f32 and f64 call paths thrashed one
slot per key (reallocating on every precision switch) — and worse, a
same-shape request could hand an f32 caller a live f64 buffer's
memory reinterpreted.  The engine tests hold the arena's contract at
its main user: a repeated call reuses every buffer, buffers follow the
engine's precision, and no result handed back aliases the arena.
"""

import numpy as np
import pytest

from repro.litho import ConditionSet, LithoEngine
from repro.litho.engine import PRECISION_DTYPES
from repro.workspace import Workspace


class TestDtypeKeying:
    def test_cross_dtype_never_aliases(self):
        ws = Workspace(enabled=True)
        a32 = ws.get("scratch", (8, 8), np.float32)
        a64 = ws.get("scratch", (8, 8), np.float64)
        assert a32.dtype == np.float32
        assert a64.dtype == np.float64
        assert not np.shares_memory(a32, a64)
        # Writing through one slot must not corrupt the other.
        a32.fill(1.0)
        a64.fill(2.0)
        assert float(a32[0, 0]) == 1.0
        assert float(a64[0, 0]) == 2.0

    def test_cross_dtype_does_not_thrash(self):
        ws = Workspace(enabled=True)
        a32 = ws.get("scratch", (4, 4), np.float32)
        a64 = ws.get("scratch", (4, 4), np.float64)
        # Alternating dtypes must hit both slots, not reallocate.
        assert ws.get("scratch", (4, 4), np.float32) is a32
        assert ws.get("scratch", (4, 4), np.float64) is a64
        assert ws.get("scratch", (4, 4), np.float32) is a32
        assert ws.hits == 3 and ws.misses == 2

    def test_complex_dtypes_keyed_separately(self):
        ws = Workspace(enabled=True)
        c64 = ws.get("spec", (4, 4), np.complex64)
        c128 = ws.get("spec", (4, 4), np.complex128)
        assert c64.dtype == np.complex64 and c128.dtype == np.complex128
        assert not np.shares_memory(c64, c128)

    def test_shape_change_reallocates_within_dtype(self):
        ws = Workspace(enabled=True)
        small = ws.get("buf", (2, 2), np.float64)
        big = ws.get("buf", (4, 4), np.float64)
        assert small is not big
        assert ws.get("buf", (4, 4), np.float64) is big

    def test_dtype_spec_normalized(self):
        ws = Workspace(enabled=True)
        a = ws.get("buf", (2, 2), np.float64)
        # "float64", np.float64 and np.dtype(np.float64) are one slot.
        assert ws.get("buf", (2, 2), "float64") is a
        assert ws.get("buf", (2, 2), np.dtype(np.float64)) is a

    def test_storage_key_is_name_and_dtype(self):
        ws = Workspace(enabled=True)
        buffer = ws.get("buf", (2, 2), np.float64)
        assert list(ws._buffers) == [("buf", np.dtype(np.float64))]
        assert ws.get("buf", (2, 2), np.float64) is buffer


class TestDisabled:
    def test_disabled_always_allocates(self):
        ws = Workspace(enabled=False)
        a = ws.get("buf", (2, 2), np.float64)
        b = ws.get("buf", (2, 2), np.float64)
        assert a is not b


# Engine entry points a steady-state ILT/training loop repeats.
ENGINE_CALLS = {
    "aerial": lambda engine, masks, targets: engine.aerial(masks),
    "gradient": lambda engine, masks, targets:
        engine.error_and_gradient_wrt_mask(masks, targets),
    "condition_gradient": lambda engine, masks, targets:
        engine.condition_error_and_gradient_wrt_mask(masks, targets),
}


@pytest.mark.parametrize("call", sorted(ENGINE_CALLS))
@pytest.mark.parametrize("precision", ["f64", "f32"])
class TestEngineArena:
    """The engine's own arena: reused across iterations, held in the
    engine's precision, and never handed back to the caller."""

    @pytest.fixture
    def run(self, kernels32, precision, call):
        engine = LithoEngine(kernels=kernels32, precision=precision,
                             conditions=ConditionSet.parse("window"))
        rng = np.random.default_rng(3)
        masks = rng.random((3, 32, 32))
        targets = (rng.random((3, 32, 32)) > 0.5).astype(float)
        return engine, lambda: ENGINE_CALLS[call](engine, masks, targets)

    def test_repeat_call_allocates_nothing(self, run):
        engine, call = run
        call()
        misses, nbytes = engine.workspace.misses, engine.workspace.nbytes
        call()
        assert engine.workspace.misses == misses
        assert engine.workspace.nbytes == nbytes

    def test_buffers_in_engine_precision(self, run, precision):
        engine, call = run
        call()
        rdtype, cdtype = PRECISION_DTYPES[precision]
        dtypes = {dtype for _, dtype in engine.workspace._buffers}
        assert dtypes and dtypes <= {np.dtype(rdtype), np.dtype(cdtype)}

    def test_results_never_alias_the_arena(self, run):
        engine, call = run
        results = call()
        results = results if isinstance(results, tuple) else (results,)
        buffers = list(engine.workspace._buffers.values())
        for result in results:
            assert not any(np.shares_memory(result, buffer)
                           for buffer in buffers)
