"""File formats, honeycomb masks, and hot-pixel filtering."""

import math

import numpy as np
import pytest

from evalign import Events, MotionSpec, RegionMask, SceneSpec, generate
from evalign.dataio import (
    filter_hot_pixels,
    honeycomb_mask,
    read_events,
    read_gt_depth,
    read_imu,
    read_masks,
    write_events,
    write_gt_depth,
    write_imu,
    write_masks,
)
from evalign.errors import ParseError, ValidationError
from evalign.warp import ImuTrace
from tests.test_synth import plain_scene


def random_events(rng, n=500, width=64, height=48):
    return Events(
        np.round(rng.uniform(0, width - 1, n), 3),
        np.round(rng.uniform(0, height - 1, n), 3),
        np.sort(rng.uniform(0, 1.0, n)),
        rng.choice(np.array([-1, 1], dtype=np.int8), n),
    )


class TestEventFile:
    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(23)
        ev = random_events(rng)
        p1, p2 = tmp_path / "a.evt", tmp_path / "b.evt"
        write_events(p1, ev, 64, 48)
        back, w, h = read_events(p1)
        assert (w, h) == (64, 48)
        np.testing.assert_array_equal(back.t, ev.t)
        np.testing.assert_array_equal(back.x, ev.x)
        np.testing.assert_array_equal(back.p, ev.p)
        write_events(p2, back, w, h)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_only(self, tmp_path):
        p = tmp_path / "empty.evt"
        p.write_text("evt1 32 24\n")
        ev, w, h = read_events(p)
        assert len(ev) == 0 and (w, h) == (32, 24)

    def test_bad_polarity_reports_line(self, tmp_path):
        p = tmp_path / "bad.evt"
        p.write_text("evt1 32 24\n0.1 3 4 1\n0.5 3 4 2\n")
        with pytest.raises(ParseError, match="line 3.*polarity"):
            read_events(p)

    def test_non_monotone_reports_line(self, tmp_path):
        p = tmp_path / "bad.evt"
        p.write_text("evt1 32 24\n0.5 3 4 1\n0.1 3 4 1\n")
        with pytest.raises(ParseError, match="line 3"):
            read_events(p)

    def test_out_of_bounds_rejected(self, tmp_path):
        p = tmp_path / "bad.evt"
        p.write_text("evt1 32 24\n0.5 40 4 1\n")
        with pytest.raises(ParseError, match="bounds"):
            read_events(p)

    @pytest.mark.parametrize("line", ["nan 3 4 1", "inf 3 4 1",
                                      "0.2 nan 4 1", "0.2 3 -inf 1"])
    def test_non_finite_reports_line(self, tmp_path, line):
        p = tmp_path / "bad.evt"
        p.write_text(f"evt1 32 24\n0.1 3 4 1\n{line}\n")
        with pytest.raises(ParseError, match="line 3: t, x and y must be "
                                             "finite"):
            read_events(p)


class TestMaskFile:
    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(24)
        masks = [(0.05 * k, RegionMask(rng.integers(0, 4, (24, 32))))
                 for k in range(3)]
        p1, p2 = tmp_path / "a.msk", tmp_path / "b.msk"
        write_masks(p1, masks, 32, 24)
        back, w, h = read_masks(p1)
        assert (w, h) == (32, 24)
        for (t0, m0), (t1, m1) in zip(masks, back):
            assert t0 == t1
            np.testing.assert_array_equal(m0.labels, m1.labels)
        write_masks(p2, back, w, h)
        assert p1.read_bytes() == p2.read_bytes()


    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_window_start_reports_line(self, tmp_path, t):
        p = tmp_path / "bad.msk"
        p.write_text(f"msk1 2 1 2\nwin 0.0\n1 1\nwin {t}\n1 1\n")
        with pytest.raises(ParseError, match="line 4: .*finite"):
            read_masks(p)

    @pytest.mark.parametrize("text, line", [
        ("msk1 2 1 1\nwin zz\n1 1\n", 2),
        ("msk1 2 1 2\nwin 0.0\n1 1\nwin 0.05\n1 q\n", 5),
    ])
    def test_malformed_number_reports_line(self, tmp_path, text, line):
        p = tmp_path / "bad.msk"
        p.write_text(text)
        with pytest.raises(ParseError, match=f"line {line}: malformed"):
            read_masks(p)

    @pytest.mark.parametrize("header", ["msk1 192 120 0", "msk1 0 0 1",
                                        "msk1 2 -1 1"])
    def test_non_positive_header_field_rejected(self, tmp_path, header):
        p = tmp_path / "bad.msk"
        p.write_text(header + "\nwin 0.0\n1 1\n")
        with pytest.raises(ParseError, match="line 1: .*positive"):
            read_masks(p)


class TestImuFile:
    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(25)
        imu = ImuTrace(np.sort(rng.uniform(0, 1, 50)),
                       rng.normal(size=(50, 3)))
        p1, p2 = tmp_path / "a.imu", tmp_path / "b.imu"
        write_imu(p1, imu)
        back = read_imu(p1)
        np.testing.assert_array_equal(back.t, imu.t)
        np.testing.assert_array_equal(back.omega, imu.omega)
        write_imu(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_non_increasing_rejected(self, tmp_path):
        p = tmp_path / "bad.imu"
        p.write_text("imu1\n0.1 0 0 0\n0.1 0 0 0\n")
        with pytest.raises(ParseError, match="line 3"):
            read_imu(p)

    @pytest.mark.parametrize("line", ["nan 0 0 0", "0.2 inf 0 0",
                                      "0.2 0 nan 0", "0.2 0 0 -inf"])
    def test_non_finite_reports_line(self, tmp_path, line):
        p = tmp_path / "bad.imu"
        p.write_text(f"imu1\n0.1 0 0 0\n{line}\n")
        with pytest.raises(ParseError, match="line 3: .*finite"):
            read_imu(p)


class TestGtDepthFile:
    def test_round_trip_byte_identical(self, tmp_path):
        windows = [(0.0, {1: 1.0, 2: 2.0}), (0.05, {1: 0.99, 2: 1.98})]
        p1, p2 = tmp_path / "a.gtd", tmp_path / "b.gtd"
        write_gt_depth(p1, windows)
        back = read_gt_depth(p1)
        assert back == windows
        write_gt_depth(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_nonpositive_depth_rejected(self, tmp_path):
        p = tmp_path / "bad.gtd"
        p.write_text("gtd1 1\nwin 0.0\n1 -2.0\n")
        with pytest.raises(ParseError, match="positive"):
            read_gt_depth(p)

    @pytest.mark.parametrize("body", ["win 0.0\n1 1.0\n2 nan\n",
                                      "win 0.0\n1 1.0\n2 inf\n",
                                      "win 0.0\n1 1.0\nwin nan\n"])
    def test_non_finite_reports_line(self, tmp_path, body):
        p = tmp_path / "bad.gtd"
        p.write_text("gtd1 2\n" + body)
        with pytest.raises(ParseError, match="line 4: .*finite"):
            read_gt_depth(p)

    @pytest.mark.parametrize("text, line", [
        ("gtd1 x\nwin 0.0\n1 1.0\n", 1),
        ("gtd1 1\nwin 0.0\n1 abc\n", 3),
        ("gtd1 1\nwin 0.0\nr 1.0\n", 3),
        ("gtd1 1\nwin t0\n1 1.0\n", 2),
    ])
    def test_malformed_number_reports_line(self, tmp_path, text, line):
        p = tmp_path / "bad.gtd"
        p.write_text(text)
        with pytest.raises(ParseError, match=f"line {line}: malformed"):
            read_gt_depth(p)

    @pytest.mark.parametrize("text", ["gtd1 0\n", "gtd1 -1\n"])
    def test_no_window_rejected(self, tmp_path, text):
        p = tmp_path / "bad.gtd"
        p.write_text(text)
        with pytest.raises(ParseError, match="line 1: .*positive"):
            read_gt_depth(p)


class TestHoneycomb:
    def test_full_coverage_no_background(self):
        mask = honeycomb_mask(160, 120, 12.0)
        assert mask.labels.min() >= 1

    def test_partition_sums_to_area(self):
        mask = honeycomb_mask(160, 120, 12.0)
        assert sum(mask.size(r) for r in mask.region_ids) == 160 * 120

    def test_interior_cell_area(self):
        r = 10.0
        mask = honeycomb_mask(320, 240, r)
        ideal = 1.5 * math.sqrt(3.0) * r * r
        interior = 0
        for rid in mask.region_ids:
            ys, xs = np.unravel_index(mask.region_index[rid],
                                      mask.labels.shape)
            if (xs.min() > 2 * r and xs.max() < 320 - 2 * r
                    and ys.min() > 2 * r and ys.max() < 240 - 2 * r):
                interior += 1
                assert abs(mask.size(rid) - ideal) <= 6.0 * r
        assert interior >= 10

    def test_deterministic(self):
        a = honeycomb_mask(160, 120, 15.0)
        b = honeycomb_mask(160, 120, 15.0)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_minimum_radius_enforced(self):
        with pytest.raises(Exception):
            honeycomb_mask(160, 120, 2.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, r):
        # an infinite radius would make the whole sensor one cell
        with pytest.raises(ValidationError, match="finite"):
            honeycomb_mask(160, 120, r)


class TestHotPixelFilter:
    def test_noop_below_threshold(self):
        rng = np.random.default_rng(26)
        ev = random_events(rng, n=400)
        out = filter_hot_pixels(ev, 64, 48, rate_threshold=1e6)
        assert len(out) == len(ev)

    def test_injected_hot_pixel_removed(self, intr):
        scene = SceneSpec(planes=plain_scene(density=10.0).planes,
                          hot_pixels=((70, 60, 1000.0),))
        res = generate(scene, MotionSpec(v=[0.25, 0, 0], duration=0.5),
                       intr, seed=31)
        before_hot = np.sum((res.events.x == 70) & (res.events.y == 60))
        assert before_hot >= 500
        out = filter_hot_pixels(res.events, intr.width, intr.height,
                                rate_threshold=200.0)
        assert np.sum((out.x == 70) & (out.y == 60)) == 0
        # non-hot events retained
        assert len(out) == len(res.events) - before_hot

    def test_empty_stream(self):
        out = filter_hot_pixels(Events(*np.empty((4, 0))), 64, 48, rate_threshold=10.0)
        assert len(out) == 0

    def test_idempotent(self, intr):
        scene = SceneSpec(planes=plain_scene(density=10.0).planes,
                          hot_pixels=((70, 60, 1000.0),))
        res = generate(scene, MotionSpec(v=[0.25, 0, 0], duration=0.5),
                       intr, seed=31)
        once = filter_hot_pixels(res.events, intr.width, intr.height, 200.0)
        twice = filter_hot_pixels(once, intr.width, intr.height, 200.0)
        assert len(once) == len(twice)
