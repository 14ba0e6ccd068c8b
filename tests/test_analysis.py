import math

import numpy as np
import pytest

from dampedwave.analysis import (
    MAX_WINDOWS,
    band_outliers,
    cluster_histogram,
    counting,
    format_band_table,
    strip_outliers,
    weyl_prediction,
    weyl_report,
)
from dampedwave.damping import DampingField, one_plus_cos
from dampedwave.geometry import Manifold
from dampedwave.spectrum import SpectrumSet, solve

CIRCLE = Manifold("circle", 1)


@pytest.fixture(scope="module")
def spec_zero():
    return solve(DampingField.zero(1, 1), CIRCLE, 20)


@pytest.fixture(scope="module")
def spec_const():
    return solve(DampingField.constant([[0.7]]), CIRCLE, 64)


@pytest.fixture(scope="module")
def spec_cos():
    return solve(one_plus_cos(), CIRCLE, 64)


def test_counting_undamped(spec_zero):
    # tau = 0 once (self-paired double at the origin), tau = k twice for k = 1..10
    assert counting(spec_zero, 10.0) == 21


def test_counting_empty_spectrum():
    empty = SpectrumSet(np.zeros(0, dtype=complex), 8, 4.0, {"manifold": "circle", "d": 1, "n": 1})
    assert counting(empty, 2.0) == 0


def test_counting_block_diagonal_is_sum():
    s1 = solve(DampingField.constant([[0.4]]), CIRCLE, 24)
    s2 = solve(DampingField.constant([[1.1]]), CIRCLE, 24)
    s12 = solve(DampingField.constant(np.diag([0.4, 1.1])), CIRCLE, 24)
    lam = 12.0
    assert counting(s12, lam) == counting(s1, lam) + counting(s2, lam)


def test_counting_rejects_beyond_reliable(spec_zero):
    with pytest.raises(ValueError):
        counting(spec_zero, 11.0)


def test_weyl_prediction_closed_forms():
    assert weyl_prediction(1, CIRCLE, 100.0) == pytest.approx(200.0)
    assert weyl_prediction(3, CIRCLE, 50.0) == pytest.approx(300.0)
    torus = Manifold("flat_torus", 2)
    assert weyl_prediction(1, torus, 10.0) == pytest.approx(100.0 * math.pi)


def test_weyl_ratio_near_one(spec_zero, spec_const, spec_cos):
    for spec in (spec_zero, spec_const, spec_cos):
        rep = weyl_report(spec)
        assert 0.95 <= rep["ratio"] <= 1.05


def test_strip_outliers_constant(spec_const):
    assert strip_outliers(spec_const, 0.7, 0.7, margin=0.01, re_min=1.0).size == 0
    assert strip_outliers(spec_const, 0.7, 0.7, margin=1e9, re_min=0.0).size == 0
    with pytest.raises(ValueError):
        strip_outliers(spec_const, 0.7, 0.7, margin=0.0)


def test_band_outliers_constant(spec_const):
    rep = band_outliers(spec_const, -0.7, -0.7, epsilon=0.1)
    beyond = [w for w in rep.windows if w.re_min >= 0.7]
    assert sum(w.outliers for w in beyond) == 0
    assert rep.weyl["ratio"] == pytest.approx(1.0, abs=0.05)


def test_band_outliers_totals_consistent(spec_cos):
    rep = band_outliers(spec_cos, -1.0, -1.0, epsilon=0.1)
    # windows tile [0, reliable_limit] without overlap
    assert rep.windows[0].re_min == 0.0
    assert rep.windows[-1].re_max == pytest.approx(spec_cos.reliable_limit)
    for a, b in zip(rep.windows, rep.windows[1:]):
        assert a.re_max == pytest.approx(b.re_min)
    for w in rep.windows:
        assert w.outliers <= w.total


def test_band_outliers_decay_signature(spec_cos):
    rep = band_outliers(spec_cos, -1.0, -1.0, epsilon=0.1)
    outl = [w.outliers for w in rep.windows]
    half = len(outl) // 2
    assert np.mean(outl[half:]) <= 0.5 * np.mean(outl[:half]) + 1e-12
    assert all(o == 0 for o in outl[-5:])


def test_band_outliers_rejects_a_width_with_too_many_windows(spec_cos):
    # at 1e-300 the tiling loop adds 1e-300 per window and never returns
    limit = spec_cos.reliable_limit
    for width in (1e-300, 5e-324, limit / (MAX_WINDOWS + 10)):
        with pytest.raises(ValueError, match=r"window_width=.* windows, more than 100000"):
            band_outliers(spec_cos, -1.0, -1.0, epsilon=0.1, window_width=width)
    assert len(band_outliers(spec_cos, -1.0, -1.0, 0.1, window_width=limit / 1000).windows) == 1000


def test_band_widening_monotone(spec_cos):
    tight = band_outliers(spec_cos, -1.0, -1.0, epsilon=0.1)
    # the looser C-based band contains the Lyapunov band
    loose = band_outliers(spec_cos, -1.2, -0.8, epsilon=0.1)
    assert sum(w.outliers for w in loose.windows) <= sum(w.outliers for w in tight.windows)


def test_band_outliers_huge_epsilon(spec_cos):
    rep = band_outliers(spec_cos, -1.0, -1.0, epsilon=4.0)
    assert sum(w.outliers for w in rep.windows) == 0


def test_cluster_histogram_two_clusters():
    spec = solve(DampingField.constant(np.diag([1.0, 2.0])), CIRCLE, 48)
    hist = cluster_histogram(spec, (16.0, 24.0), bins=12, exponents=[-1.0, -2.0], epsilon=0.1)
    assert hist.cluster_masses[-1.0] == pytest.approx(0.5)
    assert hist.cluster_masses[-2.0] == pytest.approx(0.5)


def test_cluster_histogram_single_cluster():
    spec = solve(DampingField.constant(0.5 * np.eye(3)), CIRCLE, 24)
    hist = cluster_histogram(spec, (4.0, 12.0), bins=8, exponents=[-0.5, -0.5, -0.5], epsilon=0.1)
    assert all(v == pytest.approx(1.0) for v in hist.cluster_masses.values())


def test_cluster_histogram_spread_of_ulps():
    # Im tau spread over one ulp once raised "Too many bins for data range"
    spec = SpectrumSet(np.array([1 + 0.5j, 2 + 1j * np.nextafter(0.5, 1)]), 8, 4.0)
    hist = cluster_histogram(spec, (0.0, 3.0), bins=8)
    assert hist.total == 2 and len(hist.edges) == 9


def test_cluster_histogram_empty_window(spec_const):
    hist = cluster_histogram(spec_const, (31.9, 31.95), bins=4)
    assert hist.total == 0
    with pytest.raises(ValueError):
        cluster_histogram(spec_const, (0.0, 1e9))


def test_cluster_fraction_trend_reports(spec_cos):
    # with one exponent the cluster mass is the fraction of the window near -lambda
    fractions = [cluster_histogram(spec_cos, (start, start + 1.0), exponents=[-1.0],
                                   epsilon=0.1).cluster_masses[-1.0]
                 for start in (5.0, 10.0, 20.0)]
    assert all(0.0 <= f <= 1.0 for f in fractions)
    assert fractions[-1] > 0.9


def test_format_band_table(spec_const):
    rep = band_outliers(spec_const, -0.7, -0.7, epsilon=0.1)
    table = format_band_table(rep)
    assert "re_min" in table and "weyl" in table
    assert len(table.splitlines()) == 3 + len(rep.windows)
