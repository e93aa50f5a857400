"""Relative distance from compensatory flows and the Kalman tracker."""

import math

import numpy as np
import pytest

from evalign import (
    AngularVelocity2,
    DepthRow,
    DistanceTrack,
    FlowVector,
    RegionMask,
    align_window,
    estimate_window_depth,
    relative_distance,
    rot_flow,
    select_reference,
    track_predict,
    track_update,
)
from evalign.align import AlignmentResult, RegionEstimate
from evalign.depth import coast_tracks
from evalign.errors import DegenerateFlowError, EvalignError


def fake_result(region_specs, phi=0.0):
    """AlignmentResult with direction phi from {rid: (m, centroid,
    converged, n)}."""
    per_region = {
        rid: RegionEstimate(m=m, n_events=n, converged=converged,
                            centroid=centroid)
        for rid, (m, centroid, converged, n) in region_specs.items()}
    return AlignmentResult(phi_global=phi, per_region=per_region)


def mask_with_sizes(intr, sizes):
    """Disjoint rectangular regions with the requested pixel counts."""
    labels = np.zeros((intr.height, intr.width), dtype=np.int32)
    col = 0
    for rid, size in sizes.items():
        rows = size // 10
        labels[0:rows, col:col + 10] = rid
        col += 12
    return RegionMask(labels)


class TestSelectReference:
    def test_largest_converged_wins(self, intr):
        mask = mask_with_sizes(intr, {1: 500, 2: 1200, 3: 300})
        result = fake_result({
            1: (0.1, (5, 5), True, 100),
            2: (0.1, (17, 5), True, 100),
            3: (0.1, (29, 5), True, 100),
        })
        assert select_reference(mask, result) == 2

    def test_unconverged_largest_skipped(self, intr):
        mask = mask_with_sizes(intr, {1: 500, 2: 1200, 3: 300})
        result = fake_result({
            1: (0.1, (5, 5), True, 100),
            2: (0.1, (17, 5), False, 10),
            3: (0.1, (29, 5), True, 100),
        })
        assert select_reference(mask, result) == 1

    def test_tie_breaks_to_smaller_id(self, intr):
        mask = mask_with_sizes(intr, {1: 800, 2: 800})
        result = fake_result({
            1: (0.1, (5, 5), True, 100),
            2: (0.1, (17, 5), True, 100),
        })
        assert select_reference(mask, result) == 1

    def test_no_converged_region_raises(self, intr):
        mask = mask_with_sizes(intr, {1: 500})
        result = fake_result({1: (0.1, (5, 5), False, 10)})
        with pytest.raises(EvalignError):
            select_reference(mask, result)


class TestRelativeDistance:
    def test_self_reference_is_one(self):
        v = FlowVector(3.7, -1.2)
        assert relative_distance(v, v) == pytest.approx(1.0, abs=1e-15)

    def test_double_flow_halves_distance(self):
        ref = FlowVector(10.0, 4.0)
        assert relative_distance(FlowVector(20.0, 8.0), ref) == \
            pytest.approx(0.5, rel=1e-12)

    def test_hand_computed_projection(self):
        # ref=(3,0), v=(4,3): dot=12, |v|^2=25 -> 0.48
        assert relative_distance(FlowVector(4.0, 3.0), FlowVector(3.0, 0.0)) \
            == pytest.approx(0.48, abs=1e-15)

    def test_opposing_flows_negative(self):
        d = relative_distance(FlowVector(-2.0, 0.0), FlowVector(3.0, 0.0))
        assert d < 0

    def test_degenerate_flow_rejected(self):
        with pytest.raises(DegenerateFlowError):
            relative_distance(FlowVector(1e-5, 0.0), FlowVector(1.0, 0.0))

    def test_scale_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            v = FlowVector(*rng.normal(scale=10, size=2))
            ref = FlowVector(*rng.normal(scale=10, size=2))
            if v.magnitude() < 1e-2:
                continue
            s = rng.uniform(0.1, 100.0)
            d1 = relative_distance(v, ref)
            d2 = relative_distance(FlowVector(s * v.u, s * v.v),
                                   FlowVector(s * ref.u, s * ref.v))
            assert d2 == pytest.approx(d1, abs=1e-12)


class TestKalman:
    def test_predict_adds_variance(self):
        tr = DistanceTrack(1, 1.5, 0.04)
        out = track_predict(tr, 0.1)
        assert out.d == 1.5
        assert out.var == pytest.approx(0.05, abs=1e-15)

    def test_predict_zero_noise_identity(self):
        tr = DistanceTrack(1, 1.5, 0.04)
        assert track_predict(tr, 0.0) == tr

    def test_predict_variance_additivity(self):
        tr = DistanceTrack(1, 1.0, 0.01)
        twice = track_predict(track_predict(tr, 0.1), 0.1)
        once = track_predict(tr, math.sqrt(0.02))
        assert twice.var == pytest.approx(once.var, abs=1e-15)

    def test_update_hand_computed(self):
        # d=1.0, var=0.05, z=1.2, |v_r|=2 => R=0.25, K=1/6
        tr = DistanceTrack(1, 1.0, 0.05)
        out = track_update(tr, 1.2, FlowVector(2.0, 0.0))
        assert out.d == pytest.approx(1.0 + (0.2 / 6.0), abs=1e-12)
        assert out.var == pytest.approx(0.05 * 5.0 / 6.0, abs=1e-12)

    def test_zero_gain_limit(self):
        tr = DistanceTrack(1, 1.0, 1e-8)
        out = track_update(tr, 5.0, FlowVector(0.002, 0.0))  # R = 250000
        assert out.d == pytest.approx(1.0, abs=1e-9)

    def test_full_gain_limit(self):
        tr = DistanceTrack(1, 1.0, 1e6)
        out = track_update(tr, 5.0, FlowVector(100.0, 0.0))
        assert out.d == pytest.approx(5.0, rel=1e-6)

    def test_nonpositive_measurement_skipped(self):
        tr = DistanceTrack(1, 1.0, 0.05)
        assert track_update(tr, -0.3, FlowVector(2.0, 0.0)) == tr

    def test_variance_monotonicity(self):
        rng = np.random.default_rng(18)
        tr = DistanceTrack(1, 1.0, 0.5)
        for _ in range(200):
            pred = track_predict(tr, rng.uniform(0, 0.3))
            assert pred.var >= tr.var
            upd = track_update(pred, rng.uniform(0.1, 3.0),
                               FlowVector(rng.uniform(0.5, 30.0), 0.0))
            assert upd.var <= pred.var
            tr = upd

    def test_convergence_to_constant_measurement(self):
        tr = DistanceTrack(1, 3.0, 1.0)
        z_star = 0.7
        flow = FlowVector(2.0, 0.0)
        gaps = []
        for _ in range(40):
            tr = track_predict(tr, 0.1)
            tr = track_update(tr, z_star, flow)
            gaps.append(abs(tr.d - z_star))
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.05

    def test_against_straight_line_oracle(self):
        """1000 random predict/update sequences against an independently
        written scalar Kalman filter."""
        rng = np.random.default_rng(19)
        for _ in range(1000):
            d = rng.uniform(0.2, 3.0)
            var = rng.uniform(0.01, 2.0)
            tr = DistanceTrack(1, d, var)
            for _ in range(rng.integers(1, 8)):
                sig = rng.uniform(0.0, 0.3)
                tr = track_predict(tr, sig)
                var = var + sig * sig  # oracle predict
                if rng.random() < 0.7:
                    z = rng.uniform(0.1, 4.0)
                    mag = rng.uniform(0.1, 20.0)
                    tr = track_update(tr, z, FlowVector(mag, 0.0))
                    r_meas = 1.0 / mag**2  # oracle update
                    k = var / (var + r_meas)
                    d = d + k * (z - d)
                    var = (1.0 - k) * var
                assert tr.d == pytest.approx(d, abs=1e-10)
                assert tr.var == pytest.approx(var, abs=1e-10)


class TestEstimateWindowDepth:
    def test_planar_scene_single_depth(self, intr):
        """Regions sharing one omega: d equals the pseudo-inverse ratio of
        the flow vectors at the two centroids, close to 1 for similar
        eccentricity."""
        mask = mask_with_sizes(intr, {1: 1200, 2: 800})
        om = AngularVelocity2.from_cartesian(0.0, 0.4)
        c1, c2 = (30.0, 40.0), (150.0, 70.0)
        result = fake_result({
            1: (om.m, c1, True, 500),
            2: (om.m, c2, True, 400),
        }, phi=om.phi)
        tracks = {}
        reports = estimate_window_depth(result, mask, intr, tracks)
        by_id = {r.region_id: r for r in reports}
        assert by_id[1].is_reference and by_id[1].d_track == 1.0
        v1 = rot_flow(om.as_3dof(), c1, intr)
        v2 = rot_flow(om.as_3dof(), c2, intr)
        expected = relative_distance(v2, v1)
        assert by_id[2].d_meas == pytest.approx(expected, rel=1e-12)
        assert abs(expected - 1.0) < 0.15

    def test_reference_only_scene(self, intr):
        mask = mask_with_sizes(intr, {1: 900})
        result = fake_result({1: (0.3, (20.0, 20.0), True, 300)}, phi=1.0)
        reports = estimate_window_depth(result, mask, intr, {})
        assert len(reports) == 1
        assert reports[0].is_reference
        assert reports[0].d_track == 1.0

    def test_no_converged_region_coasts(self, intr):
        mask = mask_with_sizes(intr, {1: 900, 2: 500})
        tracks = {2: DistanceTrack(2, 0.7, 0.02)}
        result = fake_result({
            1: (0.1, (5.0, 5.0), False, 3),
            2: (0.1, (17.0, 5.0), False, 4),
        })
        reports = estimate_window_depth(result, mask, intr, tracks)
        by_id = {r.region_id: r for r in reports}
        assert not by_id[2].converged
        assert tracks[2].d == 0.7
        assert tracks[2].var == pytest.approx(0.03)  # one predict step

    def test_rows_carry_window_and_alignment(self, intr):
        mask = mask_with_sizes(intr, {1: 900, 2: 500, 3: 300})
        result = fake_result({
            1: (0.3, (20.0, 20.0), True, 300),
            2: (0.5, (40.0, 30.0), True, 200),
            3: (0.0, None, False, 0),
        }, phi=1.0)
        rows = estimate_window_depth(result, mask, intr, {}, t=0.35)
        assert [r.region_id for r in rows] == [1, 2, 3]
        for r in rows:
            assert (r.t_start, r.phi) == (0.35, 1.0)
            assert r.m == result.per_region[r.region_id].m
        assert rows[0] == DepthRow(0.35, 1, 1.0, 0.3, 1.0, 1.0, 1e-4,
                                   True, True)
        assert rows[1].converged and not rows[1].is_reference
        assert not rows[2].converged and math.isnan(rows[2].d_track)

    def test_coasting_rows_predict_every_track(self):
        tracks = {2: DistanceTrack(2, 0.7, 0.02),
                  1: DistanceTrack(1, 1.0, 1e-4)}
        rows = coast_tracks(tracks, t=0.4)
        assert [r.region_id for r in rows] == [1, 2]
        assert tracks[2].var == pytest.approx(0.03)
        for r in rows:
            assert r.t_start == 0.4 and not r.converged
            assert math.isnan(r.phi) and math.isnan(r.m)
            assert math.isnan(r.d_meas)
            assert (r.d_track, r.var) == (tracks[r.region_id].d,
                                          tracks[r.region_id].var)

    def test_two_plane_track_converges(self, intr, two_plane_run):
        """Depth ratio 2 with the far plane as reference: the near plane's
        tracked distance reaches 0.5 +/- 0.05 within 10 windows."""
        _, _, res, windows = two_plane_run
        tracks = {}
        for k, w in enumerate(windows[:10]):
            mask = res.windows[k].mask
            result = align_window(w, mask, None, intr)
            estimate_window_depth(result, mask, intr, tracks, t=w.t_start)
        assert tracks[1].d == pytest.approx(0.5, abs=0.05)
        assert tracks[2].d == 1.0  # pinned reference
