"""Depth-accuracy and angular-velocity error metrics.

Depth metrics follow the standard monocular-depth evaluation protocol:
linear and log RMSE, absolute and squared relative distance, and the three
accuracy percentages delta < 1.25^n with the symmetric ratio
max(pred/gt, gt/pred). All depth metrics are unit-agnostic and apply to
relative distances as well as metric depths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .warp import AngularVelocity3

RAD_TO_DEG = 180.0 / math.pi


@dataclass(frozen=True)
class DepthMetrics:
    rmse_lin: float
    rmse_log: float
    ard: float
    srd: float
    delta1: float  # % with max(p/g, g/p) < 1.25
    delta2: float  # % ... < 1.25^2
    delta3: float  # % ... < 1.25^3
    n: int

    def as_row(self) -> list[float]:
        return [self.rmse_lin, self.rmse_log, self.ard, self.srd,
                self.delta1, self.delta2, self.delta3]


@dataclass(frozen=True)
class AngVelMetrics:
    e_wx: float      # per-axis RMS errors, deg/s
    e_wy: float
    e_wz: float
    sigma_ew: float  # std of the error norm, deg/s
    rms: float       # RMS of the error norm, deg/s
    rms_pct: float   # 100 * rms / max_rate


def pool_depth_metrics(pairs: list[tuple[float, float]]) -> DepthMetrics:
    """Depth errors over (pred, gt) pairs, one window's or pooled."""
    if not pairs:
        raise ValidationError("no (pred, gt) pairs to aggregate")
    p, g = (np.array(col, dtype=np.float64) for col in zip(*pairs))
    if np.any(p <= 0) or np.any(g <= 0):
        raise ValidationError("depth values must be positive")
    diff = p - g
    rmse_lin = math.sqrt(float(np.mean(diff**2)))
    rmse_log = math.sqrt(float(np.mean((np.log(p) - np.log(g))**2)))
    ard = float(np.mean(np.abs(diff) / g))
    srd = float(np.mean(diff**2 / g))
    ratio = np.maximum(p / g, g / p)
    d1, d2, d3 = (100.0 * float(np.mean(ratio < 1.25**n)) for n in (1, 2, 3))
    return DepthMetrics(rmse_lin, rmse_log, ard, srd, d1, d2, d3, p.size)


def angvel_metrics(pred: list[AngularVelocity3], gt: list[AngularVelocity3],
                   max_rate: float) -> AngVelMetrics:
    """Angular-velocity errors in deg/s against a time-aligned ground truth.

    max_rate (deg/s) normalizes the RMS percentage. sigma_ew is the
    population standard deviation of the error norm.
    """
    if len(pred) != len(gt):
        raise ValidationError("prediction and ground truth length mismatch")
    if not pred:
        raise ValidationError("empty sequences")
    err = np.array([[a.wx - b.wx, a.wy - b.wy, a.wz - b.wz]
                    for a, b in zip(pred, gt)]) * RAD_TO_DEG
    per_axis = np.sqrt(np.mean(err**2, axis=0))
    norms = np.linalg.norm(err, axis=1)
    rms = math.sqrt(float(np.mean(norms**2)))
    sigma = float(np.std(norms))
    pct = 100.0 * rms / max_rate if max_rate > 0 else float("nan")
    return AngVelMetrics(float(per_axis[0]), float(per_axis[1]),
                         float(per_axis[2]), sigma, rms, pct)
