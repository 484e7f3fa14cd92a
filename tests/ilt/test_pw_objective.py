"""Process-window objectives through the ILT optimizer."""

import numpy as np
import pytest

from repro.ilt import ILTConfig, ILTOptimizer
from repro.litho import ConditionSet, LithoEngine


@pytest.fixture(scope="module")
def target32():
    target = np.zeros((32, 32))
    target[12:20, 6:26] = 1.0
    return target


class TestObjectiveResolution:
    def test_config_rejects_unknown_objective(self):
        with pytest.raises(ValueError):
            ILTConfig(pw_objective="best")

    def test_conditions_upgrade_nominal_to_weighted(self, litho32,
                                                    kernels32):
        opt = ILTOptimizer(litho32, ILTConfig(max_iterations=2),
                           kernels=kernels32,
                           conditions=ConditionSet.dose_corners())
        assert opt.pw_objective == "weighted"

    def test_objective_without_conditions_gets_dose_band(self, litho32,
                                                         kernels32):
        opt = ILTOptimizer(litho32,
                           ILTConfig(max_iterations=2, pw_objective="worst"),
                           kernels=kernels32)
        assert opt.conditions is not None
        np.testing.assert_allclose(
            opt.conditions.doses,
            [1.0 - litho32.dose_variation, 1.0,
             1.0 + litho32.dose_variation])

    def test_nominal_stays_nominal(self, litho32, kernels32):
        opt = ILTOptimizer(litho32, ILTConfig(max_iterations=2),
                           kernels=kernels32)
        assert opt.conditions is None
        assert opt.pw_objective == "nominal"


class TestConditionDescent:
    def test_weighted_descent_converges(self, litho32, kernels32, target32):
        opt = ILTOptimizer(
            litho32, ILTConfig(max_iterations=20, pw_objective="weighted"),
            kernels=kernels32,
            conditions=ConditionSet.grid(defocuses=(0.0, 25.0),
                                         doses=(0.98, 1.02)))
        result = opt.optimize(target32)
        assert result.relaxed_history[-1] < result.relaxed_history[0]

    def test_worst_descent_reduces_worst_corner(self, litho32, kernels32,
                                                target32):
        conditions = ConditionSet.dose_corners(0.04)
        engine = LithoEngine.for_conditions(kernels32, conditions)
        opt = ILTOptimizer(
            litho32, ILTConfig(max_iterations=25, pw_objective="worst"),
            kernels=kernels32, conditions=conditions)
        result = opt.optimize(target32)
        before = engine.condition_litho_errors(target32, target32).max()
        after = engine.condition_litho_errors(result.mask, target32).max()
        assert after <= before

    def test_worst_fanned_matches_looped(self, litho32, kernels32, target32,
                                         rng):
        """The worst-corner objective crosses the worker boundary: a
        2-worker ``parallel_ilt`` equals looping the optimizer."""
        from repro.parallel import parallel_ilt
        other = (rng.random((32, 32)) > 0.7).astype(float)
        targets = np.stack([target32, other])
        conditions = ConditionSet.dose_corners()
        cfg = ILTConfig(max_iterations=4, patience=None, pw_objective="worst")
        fanned = parallel_ilt(targets, litho32, cfg, workers=2,
                              conditions=conditions)
        looped = ILTOptimizer(litho32, cfg, kernels=kernels32,
                              conditions=conditions)
        for target, result in zip(targets, fanned.results):
            single = looped.optimize(target)
            np.testing.assert_array_equal(result.mask, single.mask)
            assert result.relaxed_history == single.relaxed_history
