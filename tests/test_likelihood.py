"""Negative-binomial objective: pmf correctness, window likelihood
semantics, and the magnitude-marginalized direction objective."""

import math
import os
import pickle
import sys
import threading
import time
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import nbinom

from evalign import (
    AngularVelocity2,
    Events,
    EventWindow,
    MagnitudeGrid,
    NBParams,
    WindowObjective,
    analytic_compensation,
    marginal_from_objective,
    nb_log_pmf,
)
from evalign import likelihood
from evalign.core import _splat
from evalign.errors import ValidationError
from evalign.likelihood import (
    SCORE_CHUNK,
    _nb_log_density,
    auto_m_max,
    pool_map,
)
from evalign.warp import warp_positions

N_CPU = len(os.sched_getaffinity(0))


class TestNbLogPmf:
    def test_geometric_special_case_at_zero(self):
        # r=1 reduces to the geometric distribution, pmf(0) = q
        assert nb_log_pmf(0, NBParams(1.0, 0.5)) == pytest.approx(
            math.log(0.5), abs=1e-12)

    def test_geometric_series_sums_to_one(self):
        params = NBParams(1.0, 0.5)
        ks = np.arange(61)
        total = np.exp(nb_log_pmf(ks, params)).sum()
        # pmf(k) = 0.5^(k+1); the partial sum converges to 1
        assert total == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(np.exp(nb_log_pmf(ks, params)),
                                   0.5 ** (ks + 1.0), rtol=1e-12)

    def test_direct_product_form(self):
        # r=2, q=0.3, k=5: Gamma(7)/(5! Gamma(2)) * 0.3^2 * 0.7^5
        expected = math.log(
            math.gamma(7.0) / (math.factorial(5) * math.gamma(2.0))
            * 0.3**2 * 0.7**5)
        assert nb_log_pmf(5, NBParams(2.0, 0.3)) == pytest.approx(
            expected, abs=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            r = rng.uniform(0.05, 5.0)
            q = rng.uniform(0.05, 0.95)
            ks = rng.integers(0, 50, size=8)
            ours = nb_log_pmf(ks, NBParams(r, q))
            ref = nbinom.logpmf(ks, r, q)
            np.testing.assert_allclose(ours, ref, rtol=1e-10)

    def test_normalization_monotone_to_one(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            r = rng.uniform(0.05, 5.0)
            q = rng.uniform(0.1, 0.95)
            params = NBParams(r, q)
            kmax = int(nbinom.isf(1e-13, r, q)) + 10
            partial = np.cumsum(np.exp(nb_log_pmf(np.arange(kmax + 1),
                                                  params)))
            assert np.all(np.diff(partial) >= 0)
            assert partial[-1] == pytest.approx(1.0, abs=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            nb_log_pmf(-1, NBParams(1.0, 0.5))
        with pytest.raises(ValidationError):
            nb_log_pmf(0.5, NBParams(1.0, 0.5))
        with pytest.raises(ValidationError):
            NBParams(0.0, 0.5)
        with pytest.raises(ValidationError, match="finite"):
            NBParams(math.inf)
        with pytest.raises(ValidationError, match="finite"):
            NBParams(math.nan, 0.5)
        with pytest.raises(ValidationError):
            NBParams(1.0, 1.0)

    def test_unresolved_q_rejected(self):
        # q=None means "moment-match per window"; there is no pmf yet
        with pytest.raises(ValidationError, match="not resolved"):
            nb_log_pmf(0, NBParams(1.0))

    def test_moment_match_mean(self):
        p = NBParams.moment_match(0.37, r=0.25)
        assert p.r * (1 - p.q) / p.q == pytest.approx(0.37, rel=1e-9)


def uniform_window(rng, n=200, t_end=0.05):
    ev = Events(rng.uniform(5, 185, n), rng.uniform(5, 115, n),
                np.sort(rng.uniform(0, t_end, n)), np.ones(n, dtype=np.int8))
    return EventWindow(ev, 0.0, t_end)


class TestWindowLogLikelihood:
    def test_zero_events_gives_region_times_logpmf0(self, intr):
        w = EventWindow(Events(*np.empty((4, 0))), 0.0, 0.05)
        region = np.zeros((intr.height, intr.width), dtype=bool)
        region[10:20, 10:30] = True
        params = NBParams(0.5, 0.8)
        ll = WindowObjective(w, intr, region, params).log_likelihood(
            AngularVelocity2(0.0, 0.0))
        assert ll == pytest.approx(region.sum() * nb_log_pmf(0, params))

    def test_empty_region_rejected(self, intr):
        w = EventWindow(Events(*np.empty((4, 0))), 0.0, 0.05)
        region = np.zeros((intr.height, intr.width), dtype=bool)
        with pytest.raises(ValidationError):
            WindowObjective(w, intr, region, NBParams(0.5, 0.8))

    def test_permutation_invariance(self, intr):
        rng = np.random.default_rng(15)
        w = uniform_window(rng)
        perm = rng.permutation(len(w))
        ev = w.events
        shuffled = Events(ev.x[perm], ev.y[perm],
                          ev.t[perm], ev.p[perm])
        # shuffled stream is no longer time sorted; build the window fields
        # directly to keep the same contents
        w2 = EventWindow.__new__(EventWindow)
        object.__setattr__(w2, "events", shuffled)
        object.__setattr__(w2, "t_start", w.t_start)
        object.__setattr__(w2, "t_end", w.t_end)
        object.__setattr__(w2, "derotated", False)
        om = AngularVelocity2(0.4, 1.0)
        params = NBParams(0.5, 0.9)
        a = WindowObjective(w, intr, None, params).log_likelihood(om)
        b = WindowObjective(w2, intr, None, params).log_likelihood(om)
        assert a == pytest.approx(b, abs=1e-9)

    def test_compensating_omega_beats_zero(self, intr, two_plane_run):
        scene, motion, res, windows = two_plane_run
        w = windows[0]
        mask = res.windows[0].mask
        comp = analytic_compensation(scene, motion, 1, intr)
        obj = WindowObjective(w, intr, mask.bool_mask(1), None)
        ll_comp = obj.log_likelihood(comp)
        ll_zero = obj.log_likelihood(AngularVelocity2(0.0, comp.phi))
        assert ll_comp > ll_zero

    def test_moment_matched_params_fixed_across_omega(self, intr,
                                                      two_plane_run):
        _, _, _, windows = two_plane_run
        w = windows[0]
        a = WindowObjective(w, intr, None, NBParams(0.25))
        b = WindowObjective(w, intr, None, NBParams(0.25))
        assert a.params == b.params
        assert a.params == NBParams.moment_match(
            len(w) / (intr.width * intr.height), r=0.25)
        # None is the default request, NBParams()
        assert WindowObjective(w, intr).params == \
            WindowObjective(w, intr, None, NBParams()).params

    def test_smoothness_along_ray(self, intr, two_plane_run):
        """Second differences along a fine omega ray stay bounded: no

        NaN/Inf and no isolated jumps far above the local scale."""
        _, _, _, windows = two_plane_run
        w = windows[0]
        obj = WindowObjective(w, intr, None, None)
        ms = np.arange(0.3, 0.7, 1e-3)
        lls = obj.log_likelihood_ray(math.pi, ms)
        assert np.all(np.isfinite(lls))
        jumps = np.abs(np.diff(lls, n=2))
        med = np.median(jumps)
        assert jumps.max() <= 10.0 * max(med, 1e-9)


def dense_ray(obj, phi, m_values, pad=200):
    """log_likelihood_ray recomputed over every pixel of one fixed canvas
    that extends pad pixels past the sensor on each side."""
    w_c, h_c = obj.width + 2 * pad, obj.height + 2 * pad
    out = []
    for m in m_values:
        pos = obj.positions_for(AngularVelocity2(m, phi)) + pad
        assert pos.min() >= 0 and pos[:, 0].max() < w_c - 1 \
            and pos[:, 1].max() < h_c - 1
        counts = _splat(pos[None], w_c, h_c)[0]
        dense = float(_nb_log_density(counts, obj.params).sum())
        # the objective's base term counts n_region_px empty pixels, not
        # every pixel of the padded canvas
        out.append(dense - (w_c * h_c - obj.n_region_px) * obj._log_pmf0)
    return np.array(out)


class TestRayAgainstDenseReference:
    def test_chunked_ray_matches_full_canvas(self, intr, two_plane_run):
        _, _, res, windows = two_plane_run
        w = windows[0]
        region = res.windows[0].mask.bool_mask(1)
        obj = WindowObjective(w, intr, region, None)
        # 20 rows (five 4-row chunks) with warped extents from none to
        # ~90 px, out of order so chunks mix small and large extents; the
        # large ones push events off the sensor
        m_values = np.array([0.0, 9.0, 0.05, 4.0, 0.3, 1.2, 7.5, 0.01, 2.0,
                             6.0, 0.6, 3.3, 8.8, 0.2, 5.1, 0.9, 2.7, 0.0,
                             7.0, 1.6])
        phi = 0.7
        far = obj.positions_for(AngularVelocity2(9.0, phi))
        assert np.any((far[:, 0] < 0) | (far[:, 0] > intr.width - 1)
                      | (far[:, 1] < 0) | (far[:, 1] > intr.height - 1))
        ray = obj.log_likelihood_ray(phi, m_values)
        np.testing.assert_allclose(ray, dense_ray(obj, phi, m_values),
                                   rtol=1e-10, atol=0)


def fresh_canvas_scores(obj, pos, bincount_splat):
    """_score_positions with a freshly allocated bincount canvas per chunk:
    the scorer that the reused canvas must reproduce bit for bit."""
    b = pos.shape[0]
    scores = np.full(b, obj._base_term)
    if pos.shape[1] == 0:
        return scores
    for lo in range(0, b, SCORE_CHUNK):
        part = pos[lo:lo + SCORE_CHUNK]
        nb = part.shape[0]
        x_lo = math.floor(float(part[..., 0].min())) - 1
        y_lo = math.floor(float(part[..., 1].min())) - 1
        w_c = math.floor(float(part[..., 0].max())) + 4 - x_lo
        h_c = math.floor(float(part[..., 1].max())) + 4 - y_lo
        shifted = part - np.array([x_lo, y_lo], dtype=np.float64)
        flat = bincount_splat(shifted, w_c, h_c).ravel()
        nz = np.flatnonzero(flat)
        if nz.size:
            diff = _nb_log_density(flat[nz], obj.params) - obj._log_pmf0
            scores[lo:lo + SCORE_CHUNK] += np.bincount(
                nz // (h_c * w_c), weights=diff, minlength=nb)
    return scores


def canvas_is_zero():
    """This thread's scorer canvas holds no count."""
    canvas = getattr(likelihood._workspace, "canvas", np.zeros(0))
    return not canvas.any()


# one batch: rows, events per row, spread (px), centre x and y, lattice
# (integer positions), rng seed
BATCH = st.tuples(st.integers(1, 20), st.integers(0, 40),
                  st.floats(0.5, 300.0), st.floats(-150.0, 350.0),
                  st.floats(-150.0, 250.0), st.booleans(),
                  st.integers(0, 2**32 - 1))


class TestReusedCanvas:
    """_score_positions scores every chunk on one reused, zeroed canvas
    per thread and resets only the pixels it touched."""

    @pytest.fixture(scope="class")
    def obj(self, intr, two_plane_run):
        _, _, _, windows = two_plane_run
        return WindowObjective(windows[0], intr)

    @given(batches=st.lists(BATCH, min_size=1, max_size=4))
    @example(batches=[(20, 40, 300.0, 100.0, 60.0, False, 1),
                      (3, 5, 0.5, 10.0, 10.0, True, 2),
                      (17, 40, 300.0, -100.0, 200.0, False, 3)])
    @settings(max_examples=60, deadline=None)
    def test_equals_fresh_canvas(self, obj, bincount_splat, batches):
        """Positions below 0 and beyond the sensor, row counts off the
        chunk size, no events, and canvases that grow and shrink between
        calls all score bit for bit as on a fresh canvas, and leave the
        canvas all zero."""
        for b, n, spread, cx, cy, lattice, seed in batches:
            rng = np.random.default_rng(seed)
            pos = rng.uniform(-0.5, 0.5, size=(b, n, 2)) * spread + [cx, cy]
            if lattice:
                pos = np.round(pos)
            got = obj._score_positions(pos)
            assert got.tobytes() == fresh_canvas_scores(
                obj, pos, bincount_splat).tobytes()
            assert canvas_is_zero()

    def test_error_mid_chunk_resets_canvas(self, intr, two_plane_run, obj,
                                           monkeypatch):
        """An error after the second chunk's splat leaves the canvas zero,
        so the next score is a fresh objective's."""
        ms = np.linspace(0.0, 2.0, 20)
        want = WindowObjective(two_plane_run[3][0], intr).log_likelihood_ray(
            0.7, ms)
        splat = likelihood._splat
        calls = []

        def splat_then_fail(*args, **kwargs):
            splat(*args, **kwargs)
            calls.append(1)
            if len(calls) == 2:
                raise KeyboardInterrupt
        monkeypatch.setattr(likelihood, "_splat", splat_then_fail)
        with pytest.raises(KeyboardInterrupt):
            obj.log_likelihood_ray(0.7, ms)
        monkeypatch.undo()
        assert canvas_is_zero()
        assert obj.log_likelihood_ray(0.7, ms).tobytes() == want.tobytes()

    def test_threads_get_serial_results(self, intr, two_plane_run,
                                        rotation_run):
        """More threads than CPUs, each scoring its own objective over and
        over with frequent thread switches, get the serial scores: each
        thread has its own canvas."""
        windows = (two_plane_run[3][0], two_plane_run[3][9],
                   rotation_run[3][1], rotation_run[3][4])
        objs = [WindowObjective(w, intr) for w in windows]
        ms = np.linspace(0.0, 3.0, 20)
        serial = [o.log_likelihood_ray(1.1, ms).tobytes() for o in objs]
        results = [[] for _ in objs]

        def score(i):
            for _ in range(5):
                results[i].append(objs[i].log_likelihood_ray(1.1, ms))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=score, args=(i,))
                       for i in range(len(objs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for want, got in zip(serial, results):
            assert [r.tobytes() for r in got] == [want] * 5

    def test_pickle_does_not_grow(self, intr, two_plane_run):
        # the canvas belongs to the thread, not to the objective
        obj = WindowObjective(two_plane_run[3][0], intr)
        size = len(pickle.dumps(obj))
        obj.log_likelihood_ray(0.7, np.linspace(0.0, 3.0, 20))
        assert len(pickle.dumps(obj)) == size


def test_auto_m_max_unchanged_by_splat(intr, two_plane_run, rotation_run,
                                       bincount_splat, monkeypatch):
    """auto_m_max picks the bound that the weighted-bincount splat gives
    on every window of both scenes."""
    windows = two_plane_run[3] + rotation_run[3]
    got = [auto_m_max(w, intr) for w in windows]
    monkeypatch.setattr(likelihood, "_splat", bincount_splat)
    assert got == [auto_m_max(w, intr) for w in windows]


class TestMarginal:
    def test_constant_integrand(self, intr):
        # zero events: the inner likelihood is a constant L, so the
        # marginal is L + log(m_max) under trapezoid quadrature
        w = EventWindow(Events(*np.empty((4, 0))), 0.0, 0.05)
        params = NBParams(0.5, 0.8)
        grid = MagnitudeGrid(m_max=2.0, n=2)
        ll = marginal_from_objective(WindowObjective(w, intr, None, params),
                                     0.3, grid)
        const = intr.width * intr.height * nb_log_pmf(0, params)
        assert ll == pytest.approx(const + math.log(2.0), abs=1e-9)

    def test_marginal_within_band(self, intr, two_plane_run):
        _, _, _, windows = two_plane_run
        w = windows[0]
        grid = MagnitudeGrid(m_max=1.5, n=50)
        obj = WindowObjective(w, intr, None, None)
        for phi in (0.0, 1.0, math.pi):
            inner = obj.log_likelihood_ray(phi, grid.values)
            marg = marginal_from_objective(obj, phi, grid)
            width = math.log(grid.m_max)
            assert inner.min() + width - 1e-9 <= marg <= inner.max() + width + 1e-9

    def test_direction_peak_near_truth(self, intr, two_plane_run):
        scene, motion, _, windows = two_plane_run
        w = windows[0]
        grid = MagnitudeGrid(m_max=1.5, n=50)
        obj = WindowObjective(w, intr, None, None)
        phis = np.linspace(0, 2 * math.pi, 72, endpoint=False)
        vals = [marginal_from_objective(obj, p, grid) for p in phis]
        phi_hat = phis[int(np.argmax(vals))]
        phi_true = analytic_compensation(scene, motion, 1, intr).phi
        err = abs((phi_hat - phi_true + math.pi) % (2 * math.pi) - math.pi)
        assert math.degrees(err) <= 5.0

    def test_point_reflection_symmetry(self, intr):
        """Reflecting the event pattern through the principal point and
        rotating phi by pi leaves the marginal unchanged (the flow basis is
        even under the reflection)."""
        rng = np.random.default_rng(16)
        n = 400
        x = rng.uniform(20, 170, n)
        y = rng.uniform(15, 100, n)
        t = np.sort(rng.uniform(0, 0.05, n))
        ev = Events(x, y, t, np.ones(n, dtype=np.int8))
        w = EventWindow(ev, 0.0, 0.05)
        evr = Events(2 * intr.cx - x, 2 * intr.cy - y, t,
                     np.ones(n, dtype=np.int8))
        wr = EventWindow(evr, 0.0, 0.05)
        grid = MagnitudeGrid(m_max=1.0, n=25)
        params = NBParams(0.25, 0.9)
        for phi in (0.2, 1.1, 4.0):
            a = marginal_from_objective(
                WindowObjective(w, intr, None, params), phi, grid)
            b = marginal_from_objective(
                WindowObjective(wr, intr, None, params), phi + math.pi, grid)
            assert a == pytest.approx(b, abs=1e-6)


class TestMarginalsFromObjective:
    """Marginals mapped over directions by pool_map against the plain
    loop, compared exactly."""

    @staticmethod
    def loop(obj, phis, grid):
        return [marginal_from_objective(obj, p, grid) for p in phis]

    @staticmethod
    def pooled(obj, phis, grid):
        return pool_map(functools.partial(marginal_from_objective, obj,
                                          grid=grid),
                        list(phis))

    def test_two_plane_window(self, intr, two_plane_run):
        _, _, _, windows = two_plane_run
        w = windows[0]
        grid = MagnitudeGrid.for_window(w, intr)
        obj = WindowObjective(w, intr)
        phis = np.arange(36) * (2.0 * math.pi / 36)
        assert self.pooled(obj, phis, grid) == self.loop(obj, phis, grid)
        if N_CPU > 1:
            assert likelihood._scan_pool is not None

    def test_warped_3dof_window(self, intr, rotation_run):
        # the window as align_window_3dof scores it for one wz candidate
        _, _, _, windows = rotation_run
        w = windows[1]
        pos = warp_positions(w.events, np.array([0.0, 0.0, 0.2]), w.t_start,
                             intr)
        ev = Events(pos[:, 0], pos[:, 1], w.events.t, w.events.p)
        wd = EventWindow(ev, w.t_start, w.t_end)
        grid = MagnitudeGrid.for_window(wd, intr)
        obj = WindowObjective(wd, intr)
        phis = np.arange(11) * (2.0 * math.pi / 11)
        assert self.pooled(obj, phis, grid) == self.loop(obj, phis, grid)

    def test_worker_exception_reaches_caller(self, intr, two_plane_run):
        # a NaN direction fails inside the scorer; placed last, a worker
        # scores it when there is a pool
        _, _, _, windows = two_plane_run
        w = windows[0]
        grid = MagnitudeGrid(m_max=1.5, n=20)
        obj = WindowObjective(w, intr)
        phis = np.append(np.linspace(0.0, 3.0, 7), np.nan)
        with pytest.raises(ValueError,
                           match="cannot convert float NaN to integer") as exc:
            self.pooled(obj, phis, grid)
        if N_CPU > 1:
            assert type(exc.value.__cause__).__name__ == "_RemoteTraceback"
        # the pool survives a failed task
        ok = phis[:-1]
        assert self.pooled(obj, ok, grid) == self.loop(obj, ok, grid)


def _sleep_or_fail(seconds):
    if seconds < 0:
        raise ValueError("negative sleep")
    time.sleep(seconds)
    return seconds


def _interrupt(_):
    raise KeyboardInterrupt


@pytest.mark.skipif(N_CPU < 2, reason="pool_map runs a plain loop")
class TestPoolMapInterrupted:
    def test_error_cancels_queued_items(self):
        # only the items already handed to a worker run on after the
        # error; the 40 queued behind them would hold a later call for
        # about 40 * 0.1 / N_CPU seconds
        with pytest.raises(ValueError, match="negative sleep"):
            pool_map(_sleep_or_fail, [-1.0] + [0.1] * 40)
        t0 = time.perf_counter()
        assert pool_map(_sleep_or_fail, [0.0, 0.0]) == [0.0, 0.0]
        assert time.perf_counter() - t0 < 1.0

    def test_interrupt_drops_the_pool(self):
        pool_map(_sleep_or_fail, [0.0, 0.0])
        first = likelihood._scan_pool
        workers = list(first._processes.values())
        with pytest.raises(KeyboardInterrupt):
            pool_map(_interrupt, [0, 1, 2])
        assert likelihood._scan_pool is None
        assert not any(p.is_alive() for p in workers)
        assert threading.active_count() == 1
        # the next call forks a fresh pool
        assert pool_map(_sleep_or_fail, [0.0, 0.0]) == [0.0, 0.0]
        assert likelihood._scan_pool not in (None, first)
