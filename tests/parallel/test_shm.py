"""Shared-memory transport: ownership, attachment, lifetime."""

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.ilt import ILTConfig
from repro.litho import LithoConfig
from repro.parallel import WorkerTaskError, parallel_flow, parallel_ilt
from repro.parallel.shm import SharedArray, ShmSpec

_ILT = ILTConfig(max_iterations=4, eval_interval=2, patience=None)


def _bars(n, grid=32):
    targets = np.zeros((n, grid, grid))
    for i in range(n):
        targets[i, 8 + 4 * i:16 + 4 * i, 4:28] = 1.0
    return targets


class TestSharedArray:
    def test_create_is_zero_filled(self):
        with SharedArray.create((3, 4), np.float64) as shared:
            assert shared.array.shape == (3, 4)
            assert shared.array.dtype == np.float64
            np.testing.assert_array_equal(shared.array, 0.0)

    def test_from_array_roundtrip(self):
        data = np.arange(24.0).reshape(2, 3, 4)
        with SharedArray.from_array(data) as shared:
            np.testing.assert_array_equal(shared.array, data)
            # A copy, not a view: mutating the source does not leak in.
            data[0, 0, 0] = -1.0
            assert shared.array[0, 0, 0] == 0.0

    def test_attach_maps_same_pages(self):
        with SharedArray.create((4,), np.float64) as owner:
            attached = SharedArray.attach(owner.spec)
            try:
                attached.array[2] = 7.5
                assert owner.array[2] == 7.5
                assert not attached.owner
            finally:
                attached.close()

    def test_attached_unlink_refused(self):
        with SharedArray.create((2,), np.float64) as owner:
            attached = SharedArray.attach(owner.spec)
            try:
                with pytest.raises(RuntimeError):
                    attached.unlink()
            finally:
                attached.close()

    def test_owner_exit_unlinks(self):
        with SharedArray.create((2,), np.float64) as shared:
            name = shared.spec.name
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_spec_is_plain_data(self):
        with SharedArray.create((2, 2), np.float32) as shared:
            spec = shared.spec
            assert isinstance(spec, ShmSpec)
            assert spec.shape == (2, 2)
            assert np.dtype(spec.dtype) == np.float32


class TestFanOutLifecycle:
    """Every fan-out unlinks the segments it created, whether it
    returns, fails before dispatch, or a worker task raises."""

    def test_parallel_ilt_unlinks_segments_on_bad_input(self, shm_segments):
        """Segments a fan-out created before failing are unlinked, not
        left in ``/dev/shm`` until interpreter exit."""
        ragged = [np.zeros((32, 32)), np.zeros((16, 16))]
        with pytest.raises(ValueError):
            parallel_ilt(np.zeros((2, 32, 32)), LithoConfig.small(32),
                         workers=2, initial_masks=ragged)
        shm_segments.assert_all_unlinked()

    def test_parallel_ilt_unlinks_segments_after_run(self, shm_segments):
        targets = _bars(2)
        result = parallel_ilt(targets, LithoConfig.small(32), _ILT,
                              workers=2, initial_masks=targets)
        assert len(result.results) == 2
        assert len(shm_segments.specs) == 3  # targets, warm starts, out
        shm_segments.assert_all_unlinked()

    def test_parallel_ilt_unlinks_segments_when_a_task_fails(
            self, shm_segments):
        # 16 px clips on a 32 px litho grid: every worker task raises.
        with pytest.raises(WorkerTaskError):
            parallel_ilt(np.zeros((2, 16, 16)), LithoConfig.small(32), _ILT,
                         workers=2)
        shm_segments.assert_all_unlinked()

    def test_parallel_flow_unlinks_segments_after_run(self, shm_segments):
        from repro.core import GanOpcConfig, MaskGenerator
        generator = MaskGenerator(GanOpcConfig.small(32).generator_channels,
                                  rng=np.random.default_rng(2))
        generator.eval()
        results = parallel_flow(generator, _bars(2), LithoConfig.small(32),
                                _ILT, workers=2)
        assert len(results) == 2
        shm_segments.assert_all_unlinked()

    def test_precompute_parallel_unlinks_segments_after_run(
            self, shm_segments):
        from repro.layoutgen import SyntheticDataset
        dataset = SyntheticDataset(LithoConfig.small(32), size=2, seed=11,
                                   ilt_config=_ILT)
        dataset.precompute(workers=2)
        assert dataset.reference_mask(1).shape == (32, 32)
        shm_segments.assert_all_unlinked()

    def test_tiled_ilt_unlinks_segments_after_run(self, shm_segments):
        from repro.tiling import TilingConfig, tiled_ilt
        chip = np.zeros((64, 64))
        chip[8:20, 4:60] = 1.0
        chip[40:52, 4:60] = 1.0
        result = tiled_ilt(chip, TilingConfig(tile=32, halo=4),
                           LithoConfig.small(32), _ILT, workers=2)
        assert result.mask.shape == chip.shape
        shm_segments.assert_all_unlinked()
