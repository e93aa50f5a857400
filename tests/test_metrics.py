"""Depth and angular-velocity error metrics."""

import math

import numpy as np
import pytest

from evalign import AngularVelocity3
from evalign.errors import ValidationError
from evalign.metrics import angvel_metrics, pool_depth_metrics

RAD = math.pi / 180.0


class TestDepthMetrics:
    def test_perfect_prediction(self):
        m = pool_depth_metrics([(g, g) for g in (0.5, 1.0, 2.2)])
        assert m.rmse_lin == 0.0
        assert m.rmse_log == 0.0
        assert m.ard == 0.0
        assert m.srd == 0.0
        assert (m.delta1, m.delta2, m.delta3) == (100.0, 100.0, 100.0)

    def test_single_region_hand_computed(self):
        m = pool_depth_metrics([(1.2, 1.0)])
        assert m.rmse_lin == pytest.approx(0.2)
        assert m.ard == pytest.approx(0.2)
        assert m.srd == pytest.approx(0.04)
        assert m.rmse_log == pytest.approx(math.log(1.2))
        # 1.2 < 1.25, so every threshold is met
        assert (m.delta1, m.delta2, m.delta3) == (100.0, 100.0, 100.0)

    def test_factor_two_fails_all_thresholds(self):
        # 1.25^3 = 1.953125 < 2, so even the loosest threshold fails
        assert 1.25**3 == pytest.approx(1.953125)
        m = pool_depth_metrics([(2.0, 1.0), (5.0, 2.5)])
        assert (m.delta1, m.delta2, m.delta3) == (0.0, 0.0, 0.0)

    def test_symmetric_ratio(self):
        over = pool_depth_metrics([(1.3, 1.0)])
        under = pool_depth_metrics([(1.0, 1.3)])
        assert over.delta1 == under.delta1 == 0.0
        assert over.delta2 == under.delta2 == 100.0

    def test_threshold_monotonicity_random(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            n = rng.integers(1, 12)
            gt = rng.uniform(0.2, 4.0, size=n)
            pred = gt * rng.uniform(0.5, 2.0, size=n)
            m = pool_depth_metrics(list(zip(pred, gt)))
            assert m.delta1 <= m.delta2 <= m.delta3

    def test_scale_relation(self):
        rng = np.random.default_rng(28)
        gt = rng.uniform(0.3, 3.0, size=8)
        pred = gt * rng.uniform(0.7, 1.4, size=8)
        base = pool_depth_metrics(list(zip(pred, gt)))
        s = 3.7
        scaled = pool_depth_metrics(list(zip(s * pred, s * gt)))
        assert scaled.rmse_lin == pytest.approx(s * base.rmse_lin)
        assert scaled.srd == pytest.approx(s * base.srd)
        assert scaled.rmse_log == pytest.approx(base.rmse_log)
        assert scaled.ard == pytest.approx(base.ard)
        assert scaled.delta1 == base.delta1
        assert scaled.delta2 == base.delta2
        assert scaled.delta3 == base.delta3

    def test_errors(self):
        with pytest.raises(ValidationError):
            pool_depth_metrics([])  # no pairs
        with pytest.raises(ValidationError):
            pool_depth_metrics([(-1.0, 1.0)])  # non-positive


class TestAngVelMetrics:
    def test_perfect_prediction(self):
        seq = [AngularVelocity3(0.1, -0.2, 0.05) for _ in range(10)]
        m = angvel_metrics(seq, list(seq), max_rate=60.0)
        assert m.rms == 0.0
        assert m.sigma_ew == 0.0
        assert (m.e_wx, m.e_wy, m.e_wz) == (0.0, 0.0, 0.0)

    def test_constant_offset(self):
        # constant 1 deg/s error on the x axis
        gt = [AngularVelocity3(0.0, 0.3, -0.1) for _ in range(7)]
        pred = [AngularVelocity3(1.0 * RAD, 0.3, -0.1) for _ in range(7)]
        m = angvel_metrics(pred, gt, max_rate=50.0)
        assert m.e_wx == pytest.approx(1.0)
        assert m.e_wy == pytest.approx(0.0, abs=1e-12)
        assert m.rms == pytest.approx(1.0)
        assert m.sigma_ew == pytest.approx(0.0, abs=1e-12)
        assert m.rms_pct == pytest.approx(2.0)

    def test_norm_decomposition(self):
        rng = np.random.default_rng(29)
        gt = [AngularVelocity3(*rng.normal(scale=0.3, size=3))
              for _ in range(50)]
        pred = [AngularVelocity3(g.wx + rng.normal(scale=0.01),
                                 g.wy + rng.normal(scale=0.01),
                                 g.wz + rng.normal(scale=0.01))
                for g in gt]
        m = angvel_metrics(pred, gt, max_rate=60.0)
        assert m.rms**2 == pytest.approx(
            m.e_wx**2 + m.e_wy**2 + m.e_wz**2, rel=1e-9)

    def test_length_mismatch(self):
        a = [AngularVelocity3(0, 0, 0)]
        with pytest.raises(ValidationError):
            angvel_metrics(a, a * 2, max_rate=10.0)
