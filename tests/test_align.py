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
from evalign.errors import InsufficientEventsError
from evalign.likelihood import WindowObjective


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
        # on 2 CPUs the coarse scans of 36 and 2 split at a direction
        # boundary, that of 1 inside its ray, like every refinement probe
        _, _, _, windows = two_plane_run
        w = windows[3]
        grid = MagnitudeGrid.for_window(w, intr)
        pooled = estimate_direction(w, grid, intr, phi_samples=phi_samples)
        serial_scan()
        assert estimate_direction(w, grid, intr,
                                  phi_samples=phi_samples) == pooled

    def test_insufficient_events(self, intr):
        ev = Events(np.array([5.0]), np.array([5.0]), np.array([0.01]),
                    np.array([1], dtype=np.int8))
        w = EventWindow(ev, 0.0, 0.05)
        with pytest.raises(InsufficientEventsError, match="insufficient"):
            estimate_direction(w, MagnitudeGrid(1.0, 10), intr)


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
