"""Accuracy gates against the synthetic oracle on every scene that the
benchmark renders, at its default and its check seed."""

import pytest

from conftest import bench_scenes

# seed 8, scene 1 (1008): the one full-frame direction is a compromise
# between the two planes' depths (ROADMAP item 3, per-region direction)
SWAY = [pytest.param(*s, marks=pytest.mark.xfail(
            strict=True, reason="full-frame direction compromise"))
        if s[1] == 1008 else s for s in bench_scenes("sway-2plane")]


@pytest.mark.parametrize("name, seed", SWAY)
def test_sway_2plane_ard(bench_scene, name, seed):
    assert bench_scene(name, seed)["ard"] <= 0.03


@pytest.mark.parametrize("name, seed", bench_scenes("honeycomb-davis"))
def test_honeycomb_davis_ard_and_delta1(bench_scene, name, seed):
    acc = bench_scene(name, seed)
    assert acc["ard"] <= 0.10
    assert acc["delta1"] >= 90.0


@pytest.mark.parametrize("name, seed", bench_scenes("angvel-offaxis"))
def test_angvel_offaxis_rms(bench_scene, name, seed):
    assert bench_scene(name, seed)["rms"] <= 2.0


@pytest.mark.parametrize("name, seed", bench_scenes("sway-2plane")
                         + bench_scenes("honeycomb-davis")
                         + bench_scenes("angvel-offaxis"))
def test_drift_bracket_holds_without_fallback(bench_scene, name, seed):
    """Every direction search of every scene ends inside the bracket
    around the window's FFT drift, so the coarse scan never runs."""
    assert bench_scene(name, seed)["fallbacks"] == 0
