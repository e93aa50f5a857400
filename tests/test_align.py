"""Two-step alignment: direction, per-region magnitude, and composition."""

import math

import numpy as np
import pytest

from evalign import (
    AngularVelocity2,
    Events,
    EventWindow,
    MagnitudeGrid,
    MotionSpec,
    PlaneSpec,
    RegionMask,
    SceneSpec,
    align_window,
    align_window_3dof,
    analytic_compensation,
    estimate_direction,
    estimate_magnitude,
    generate,
    slice_windows,
)
from evalign import align
from evalign.errors import InsufficientEventsError
from evalign.likelihood import (
    MMAX_CAP,
    MMAX_FACTOR,
    MMAX_FLOOR,
    Drift,
    WindowObjective,
    auto_m_max,
    marginals_from_objective,
    window_drift,
)


def angdiff_deg(a, b):
    return math.degrees(abs((a - b + math.pi) % (2 * math.pi) - math.pi))


@pytest.fixture(scope="module")
def symmetric_two_plane(intr):
    """Planes mirrored about the principal point so the true magnitude
    ratio is exactly the depth ratio."""
    near = PlaneSpec(polygon=np.array([[24, 20], [94, 20],
                                       [94, 100], [24, 100]]),
                     depth=1.0, edge_density=30.0)
    far = PlaneSpec(polygon=np.array([[97, 20], [167, 20],
                                      [167, 100], [97, 100]]),
                    depth=2.0, edge_density=30.0)
    scene = SceneSpec(planes=(near, far))
    motion = MotionSpec(v=[0.5, 0.0, 0.0], duration=0.05)
    res = generate(scene, motion, intr, seed=21)
    return scene, motion, res


class TestEstimateDirection:
    def test_pure_x_translation(self, intr, two_plane_run):
        scene, motion, _, windows = two_plane_run
        w = windows[0]
        grid = MagnitudeGrid(m_max=1.5, n=50)
        phi = estimate_direction(w, grid, intr)
        phi_true = analytic_compensation(scene, motion, 1, intr).phi
        assert angdiff_deg(phi, phi_true) <= 3.0

    def test_deterministic(self, intr, two_plane_run):
        _, _, _, windows = two_plane_run
        w = windows[0]
        grid = MagnitudeGrid(m_max=1.5, n=50)
        a = estimate_direction(w, grid, intr)
        b = estimate_direction(w, grid, intr)
        assert a == b  # bitwise

    def test_mirrored_stream_reflects_direction(self, intr, two_plane_run):
        _, _, _, windows = two_plane_run
        w = windows[0]
        grid = MagnitudeGrid(m_max=1.5, n=50)
        phi = estimate_direction(w, grid, intr)
        ev = w.events
        mirrored = Events(intr.width - 1 - ev.x, ev.y, ev.t, ev.p)
        wm = EventWindow(mirrored, w.t_start, w.t_end)
        phi_m = estimate_direction(wm, grid, intr)
        assert angdiff_deg(phi_m, math.pi - phi) <= 3.0

    @pytest.mark.parametrize("phi_samples", [36, 2, 1])
    def test_pooled_scan_matches_serial(self, intr, two_plane_run,
                                        serial_scan, phi_samples):
        # the drift-bracketed search, then the coarse-scan search of a grid
        # without a drift; on 2 CPUs the coarse scans of 36 and 2 split at
        # a direction boundary, that of 1 inside its ray, like every
        # refinement probe
        _, _, _, windows = two_plane_run
        w = windows[3]
        grid = MagnitudeGrid.for_window(w, intr)
        bare = MagnitudeGrid(grid.m_max, grid.n)

        def both():
            return (estimate_direction(w, grid, intr, phi_samples=phi_samples),
                    estimate_direction(w, bare, intr, phi_samples=phi_samples))
        pooled = both()
        serial_scan()
        assert both() == pooled

    def test_insufficient_events(self, intr):
        ev = Events(np.array([5.0]), np.array([5.0]), np.array([0.01]),
                    np.array([1], dtype=np.int8))
        w = EventWindow(ev, 0.0, 0.05)
        with pytest.raises(InsufficientEventsError, match="insufficient"):
            estimate_direction(w, MagnitudeGrid(1.0, 10), intr)


def two_motion_window():
    """Two event groups moving 90 degrees apart: a few points firing 50
    events each move along +x, many points firing 5 each along +y. The
    first dominate the halves' cross-correlation, the second the
    likelihood."""
    rng = np.random.default_rng(0)
    xs, ys, ts = [], [], []
    for k, n, lo, hi, v in ((6, 50, [20, 20], [80, 100], (400.0, 0.0)),
                            (120, 5, [100, 20], [170, 80], (0.0, 400.0))):
        pts = rng.uniform(lo, hi, size=(k, 2))
        t = rng.uniform(0.0, 0.05, size=(k, n))
        xs.append((pts[:, :1] + v[0] * t).ravel())
        ys.append((pts[:, 1:] + v[1] * t).ravel())
        ts.append(t.ravel())
    x, y, t = np.concatenate(xs), np.concatenate(ys), np.concatenate(ts)
    order = np.argsort(t)
    ev = Events(x[order], y[order], t[order],
                np.ones(order.size, dtype=np.int8))
    return EventWindow(ev, 0.0, 0.05)


class TestDriftBracket:
    """estimate_direction searches around the FFT drift's angle and falls
    back to the coarse-scan search when that cannot hold."""

    @staticmethod
    def coarse(w, grid, intr):
        return align._coarse_direction(WindowObjective(w, intr), grid,
                                       align.DEFAULT_PHI_SAMPLES)

    @pytest.mark.parametrize("n_first, n_second", [(7, 8), (7, 20), (20, 7)])
    def test_no_drift_falls_back(self, intr, two_plane_run, n_first,
                                 n_second):
        # fewer than 16 events, or a half with fewer than 8
        _, _, _, windows = two_plane_run
        ev = windows[0].events
        idx = np.r_[0:n_first, len(ev) - n_second:len(ev)]
        w = EventWindow(ev.select(idx), windows[0].t_start, windows[0].t_end)
        assert window_drift(w, intr) is None
        grid = MagnitudeGrid.for_window(w, intr)
        assert grid.drift is None and grid.m_max == MMAX_FLOOR
        assert estimate_direction(w, grid, intr, min_events=0) == \
            self.coarse(w, grid, intr)

    def test_zero_shift_falls_back(self, intr, two_plane_run):
        _, _, _, windows = two_plane_run
        w = windows[0]
        grid = MagnitudeGrid(1.0, drift=Drift(0, 0, 0.025))
        assert estimate_direction(w, grid, intr) == \
            self.coarse(w, grid, intr)

    def test_optimum_on_bracket_edge_falls_back(self, intr, two_plane_run,
                                                monkeypatch):
        # a drift 60 degrees off the true direction (about pi): the
        # bracketed optimum ends on the bracket's edge nearest the truth
        scene, motion, _, windows = two_plane_run
        w = windows[0]
        phi_true = analytic_compensation(scene, motion, 1, intr).phi
        grid = MagnitudeGrid(1.0, drift=Drift(-1, 2, 0.025))  # 116.6 deg
        refined = []
        refine = align._refine_direction
        monkeypatch.setattr(align, "_refine_direction",
                            lambda *a: refined.append(refine(*a))
                            or refined[-1])
        phi = estimate_direction(w, grid, intr)
        edge = math.atan2(2, -1) + align.DRIFT_BRACKET
        assert abs(refined[0] - edge) <= 2.0 * align.PHI_TOL
        assert len(refined) == 2  # the bracket, then the coarse scan's
        monkeypatch.undo()
        assert phi == self.coarse(w, grid, intr)
        assert angdiff_deg(phi, phi_true) <= 3.0

    def test_drift_bracket_replaces_the_scan(self, intr, two_plane_run,
                                             monkeypatch):
        scene, motion, _, windows = two_plane_run
        w = windows[0]
        grid = MagnitudeGrid.for_window(w, intr)
        monkeypatch.setattr(align, "_coarse_direction", None)
        phi = estimate_direction(w, grid, intr)
        phi_true = analytic_compensation(scene, motion, 1, intr).phi
        assert angdiff_deg(phi, phi_true) <= 3.0

    def test_misleading_drift_gives_local_maximum(self, intr):
        """Where the cross-correlation and the likelihood prefer different
        motions, the bracketed search returns the local maximum in the
        drift's basin; only the coarse scan of a grid without a drift
        finds the global one. This is the price of the bracket."""
        w = two_motion_window()
        grid = MagnitudeGrid.for_window(w, intr)
        assert (grid.drift.dx, grid.drift.dy) == (10, 0)  # along +x
        local = estimate_direction(w, grid, intr)
        assert angdiff_deg(local, 0.0) <= 3.0
        bare = MagnitudeGrid(grid.m_max, grid.n)
        best = estimate_direction(w, bare, intr)
        assert angdiff_deg(best, math.pi / 2) <= 3.0
        obj = WindowObjective(w, intr)
        marg = marginals_from_objective(obj, np.array([local, best]), bare)
        assert marg[1] > marg[0] + 10.0

    def test_auto_m_max_is_factor_times_drift_speed(self, intr,
                                                    two_plane_run,
                                                    rotation_run):
        windows = two_plane_run[3] + rotation_run[3]
        f = 0.5 * (intr.fx + intr.fy)
        unclamped = 0
        for w in windows:
            d = window_drift(w, intr)
            speed = math.hypot(d.dx, d.dy) / (f * d.dt)  # rad/s
            m = MMAX_FACTOR * speed
            unclamped += MMAX_FLOOR < m < MMAX_CAP
            assert auto_m_max(w, intr) == min(max(m, MMAX_FLOOR), MMAX_CAP)
            assert MagnitudeGrid.for_window(w, intr) == \
                MagnitudeGrid(auto_m_max(w, intr), drift=d)
        assert unclamped == len(windows)


class TestEstimateMagnitude:
    def test_matches_analytic_flow(self, intr, symmetric_two_plane):
        scene, motion, res = symmetric_two_plane
        w = slice_windows(res.events, 0.05)[0]
        mask = res.windows[0].mask
        grid = MagnitudeGrid(m_max=1.5, n=50)
        phi_true = analytic_compensation(scene, motion, 1, intr).phi
        for rid in (1, 2):
            m, _ = estimate_magnitude(w, phi_true, mask.bool_mask(rid),
                                      grid, intr)
            truth = analytic_compensation(scene, motion, rid, intr).m
            assert m == pytest.approx(truth, rel=0.05)

    def test_noise_only_window_estimates_zero(self, intr):
        scene = SceneSpec(planes=(), noise_rate=0.06)
        res = generate(scene, MotionSpec(v=[0, 0, 0], duration=0.05), intr,
                       seed=3)
        w = slice_windows(res.events, 0.05)[0]
        assert len(w) >= 50
        grid = MagnitudeGrid(m_max=1.0, n=50)
        m, _ = estimate_magnitude(w, 1.0, None, grid, intr)
        assert m <= grid.values[1]

    def test_agrees_with_brute_force_grid(self, intr, symmetric_two_plane):
        scene, motion, res = symmetric_two_plane
        w = slice_windows(res.events, 0.05)[0]
        grid = MagnitudeGrid(m_max=1.5, n=50)
        phi_true = analytic_compensation(scene, motion, 1, intr).phi
        m, _ = estimate_magnitude(w, phi_true, None, grid, intr)
        # independent exhaustive search at step m_max/5000
        obj = WindowObjective(w, intr, None, None)
        fine = np.linspace(0.0, grid.m_max, 5001)
        lls = obj.log_likelihood_ray(phi_true, fine)
        m_brute = fine[int(np.argmax(lls))]
        assert abs(m - m_brute) <= 2.0 * grid.m_max / 5000.0

    def test_insufficient_region_events(self, intr, symmetric_two_plane):
        _, _, res = symmetric_two_plane
        w = slice_windows(res.events, 0.05)[0]
        region = np.zeros((intr.height, intr.width), dtype=bool)
        region[0:8, 0:8] = True  # corner without events
        with pytest.raises(InsufficientEventsError):
            estimate_magnitude(w, 0.0, region, MagnitudeGrid(1.0, 10), intr)


class TestAlignWindow:
    def test_two_plane_magnitude_ratio(self, intr, symmetric_two_plane):
        scene, motion, res = symmetric_two_plane
        w = slice_windows(res.events, 0.05)[0]
        result = align_window(w, res.windows[0].mask, None, intr)
        m_near = result.per_region[1].m
        m_far = result.per_region[2].m
        assert m_near / m_far == pytest.approx(2.0, abs=0.1)

    def test_shared_direction_exact(self, intr, symmetric_two_plane):
        # every region's magnitude is the one found along the shared
        # direction, bit for bit
        _, _, res = symmetric_two_plane
        w = slice_windows(res.events, 0.05)[0]
        mask = res.windows[0].mask
        result = align_window(w, mask, None, intr)
        grid = MagnitudeGrid.for_window(w, intr)  # align_window's grid
        for rid, est in result.per_region.items():
            m, _ = estimate_magnitude(w, result.phi_global,
                                      mask.bool_mask(rid), grid, intr)
            assert est.m == m

    def test_full_frame_region_matches_estimate_magnitude(self, intr,
                                                          two_plane_run):
        _, _, _, windows = two_plane_run
        w = windows[0]
        mask = RegionMask(np.ones((intr.height, intr.width), dtype=np.int32))
        result = align_window(w, mask, None, intr)
        grid = MagnitudeGrid.for_window(w, intr)  # align_window's grid
        m, _ = estimate_magnitude(w, result.phi_global, None, grid, intr)
        assert result.per_region[1].m == pytest.approx(m, abs=1e-12)

    def test_empty_region_isolated(self, intr, two_plane_run):
        _, _, res, windows = two_plane_run
        w = windows[0]
        labels = res.windows[0].mask.labels.copy()
        labels[0:6, 0:6] = 3  # corner region without events
        result = align_window(w, RegionMask(labels), None, intr)
        assert not result.per_region[3].converged
        assert result.per_region[3].n_events < 50
        assert result.per_region[1].converged
        assert result.per_region[2].converged

    def test_off_sensor_events_belong_to_no_region(self, intr,
                                                   symmetric_two_plane):
        """A region holds the events whose rounded positions are its
        pixels, for align_window's counts as for the objective it scores:
        an event that rounds off the sensor, such as (56.74, -0.51), next
        to a region's edge pixel (57, 0), is in neither."""
        _, _, res = symmetric_two_plane
        w = slice_windows(res.events, 0.05)[0]
        mask = res.windows[0].mask
        ev = w.events
        # moved up by 30 px: the planes' top rows round above row 0
        x = np.append(ev.x, 56.74)
        y = np.append(ev.y - 30.0, -0.51)
        t = np.append(ev.t, ev.t[-1])
        shifted = EventWindow(Events(x, y, t, np.append(ev.p, 1)),
                              w.t_start, w.t_end)
        labels = mask.labels.copy()
        labels[0, 57] = 1
        mask = RegionMask(labels)
        assert mask.label_at(56.74, -0.51) == 0
        off = np.rint(y) < 0
        assert off.sum() > 50
        result = align_window(shifted, mask, None, intr)
        for rid, est in result.per_region.items():
            obj = WindowObjective(shifted, intr, mask.bool_mask(rid))
            assert est.n_events == obj.n_events_in_region
            assert est.n_events == np.count_nonzero(
                mask.label_at(x[~off], y[~off]) == rid)

    def test_local_maximum_dominance(self, intr, symmetric_two_plane):
        scene, motion, res = symmetric_two_plane
        w = slice_windows(res.events, 0.05)[0]
        mask = res.windows[0].mask
        result = align_window(w, mask, None, intr)
        phi = result.phi_global
        for rid, est in result.per_region.items():
            obj = WindowObjective(w, intr, mask.bool_mask(rid), None)
            ll_best = obj.log_likelihood(AngularVelocity2(est.m, phi))
            for dphi in (math.radians(5), -math.radians(5)):
                other = AngularVelocity2(est.m, phi + dphi)
                assert ll_best >= obj.log_likelihood(other)
            for dm in (1.1, 0.9):
                other = AngularVelocity2(est.m * dm, phi)
                assert ll_best >= obj.log_likelihood(other)

    def test_pooled_scan_matches_serial(self, intr, symmetric_two_plane,
                                        serial_scan):
        _, _, res = symmetric_two_plane
        w = slice_windows(res.events, 0.05)[0]
        mask = res.windows[0].mask
        pooled = align_window(w, mask, None, intr)
        serial_scan()
        assert align_window(w, mask, None, intr) == pooled


class TestAlignWindow3Dof:
    def test_pooled_scan_matches_serial(self, intr, rotation_run,
                                        serial_scan):
        # a reduced search keeps the ~15 nested direction searches cheap
        _, _, _, windows = rotation_run
        kw = dict(phi_samples=12, grid_n=15, wz_samples=3)
        pooled = align_window_3dof(windows[0], intr, **kw)
        serial_scan()
        assert align_window_3dof(windows[0], intr, **kw) == pooled
