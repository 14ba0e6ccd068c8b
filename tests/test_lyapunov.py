import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampedwave import cocycle, lyapunov
from dampedwave.cocycle import (line_integral, plan_steps, propagate, propagate_many,
                                window_products)
from dampedwave.damping import DampingField, one_plus_cos, random_field
from dampedwave.geometry import PhasePoint, phase_array, sample_shell
from dampedwave.lyapunov import (
    DEFAULT_RENORM_EVERY,
    _bound_orders,
    _log_sigma_extremes,
    _stream,
    band_estimates,
    exterior_sums,
    finite_time_bounds,
    floquet_exponents,
    lyapunov_spectrum,
    safe_cadence,
)

SQRT2 = math.sqrt(2.0)
POINT = PhasePoint((0.4,), (1.0 / SQRT2,))


def diag_one_plus_cos_two():
    A0 = np.diag([1.0 + 0j, 2.0])
    A1 = np.array([[0.5 + 0j, 0.0], [0.0, 0.0]])
    return DampingField(2, 1, {(0,): A0, (1,): A1, (-1,): A1})


def test_constant_bounds_exact_for_every_horizon():
    f = DampingField.constant(0.7 * np.eye(2))
    for T in (0.5, 3.0, 11.0):
        fb = finite_time_bounds(f, T, sample_shell(6, 0.5, seed=2), dt=1e-3)
        assert fb.c_minus == pytest.approx(0.7, abs=1e-10)
        assert fb.c_plus == pytest.approx(0.7, abs=1e-10)


def test_zero_damping_bounds():
    fb = finite_time_bounds(DampingField.zero(2, 1), 4.0, sample_shell(4, 0.5, seed=0), dt=1e-2)
    assert fb.c_minus == pytest.approx(0.0, abs=1e-12)
    assert fb.c_plus == pytest.approx(0.0, abs=1e-12)


def test_one_plus_cos_bounds_match_extremal_line_integral():
    # sup/inf over x0 of (1/T) int (1 + cos(x0 + sqrt2 s)) ds
    f = one_plus_cos()
    T = 10.0
    grid = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    pts = [PhasePoint((x,), (s / SQRT2,)) for x in grid for s in (+1.0, -1.0)]
    fb = finite_time_bounds(f, T, pts, dt=1e-3)
    dev = SQRT2 * abs(math.sin(T / SQRT2)) / T
    assert fb.c_minus == pytest.approx(1.0 - dev, abs=1e-3)
    assert fb.c_plus == pytest.approx(1.0 + dev, abs=1e-3)


def test_spectrum_zero_field():
    sp = lyapunov_spectrum(DampingField.zero(3, 1), POINT, 5.0, dt=1e-2)
    assert np.allclose(sp.exponents, 0.0, atol=1e-12)


def test_spectrum_constant_diagonal():
    sp = lyapunov_spectrum(DampingField.constant(np.diag([1.0, 2.0])), POINT, 40.0, dt=1e-3)
    assert sp.exponents[0] == pytest.approx(-2.0, abs=1e-9)
    assert sp.exponents[1] == pytest.approx(-1.0, abs=1e-9)
    assert sp.rank_ok


@pytest.mark.parametrize("T", [175.0, 200.0])
def test_exponents_of_a_split_field_with_the_faster_coordinate_first(T):
    # the first column of G_T falls e^{-4T} below its second, past the float
    # range, so it must be folded at its own scale and not read off one product
    f = DampingField.constant(np.diag([5.0, 1.0]))
    sp = lyapunov_spectrum(f, POINT, T, dt=1e-2)
    assert np.max(np.abs(np.array(sp.exponents) - [-5.0, -1.0])) < 1e-6
    assert sp.rank_ok
    est = band_estimates(DampingField.constant(np.diag([5.0, 1.0]), d=2), T=T, m=2, dt=1e-2)
    assert abs(est.lambda_minus + 5.0) < 1e-6 and abs(est.lambda_plus + 1.0) < 1e-6
    assert est.diagnostics["rank_ok"]


def test_spectrum_scalar_birkhoff_mean():
    T = 60.0
    sp = lyapunov_spectrum(one_plus_cos(), POINT, T, dt=1e-3)
    assert sp.exponents[0] == pytest.approx(-1.0, abs=2.0 / T)


def test_exterior_sums_match_det_and_top():
    f = DampingField.constant(np.diag([1.0, 2.0]))
    T = 40.0
    assert exterior_sums(f, POINT, T, 1e-3, 1) == pytest.approx(-1.0, abs=1e-9)
    assert exterior_sums(f, POINT, T, 1e-3, 2) == pytest.approx(-3.0, abs=1e-9)
    assert exterior_sums(DampingField.zero(2, 1), POINT, 5.0, 1e-2, 1) == pytest.approx(0.0, abs=1e-12)


def test_exterior_sums_match_qr_partial_sums():
    f = random_field(3, 1, amplitude=0.6, seed=19)
    T = 50.0
    sp = lyapunov_spectrum(f, POINT, T, dt=1e-3)
    descending = sorted(sp.exponents, reverse=True)
    for i in range(1, 4):
        ext = exterior_sums(f, POINT, T, 1e-3, i)
        assert abs(ext - sum(descending[:i])) < 5.0 / T


#: the two orbits of the E = 1/2 circle shell; both close after pi / |xi|
ORBITS = [PhasePoint((0.0,), (1.0 / SQRT2,)), PhasePoint((0.0,), (-1.0 / SQRT2,))]
PERIOD = math.pi * SQRT2


def stiff_field():
    # a(x) = diag(1, 20) + cos x [[0, 1], [1, 0]]: the monodromy's eigenvalues
    # differ by a factor of about e^-84, far below machine precision
    A1 = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return DampingField(2, 1, {(0,): np.diag([1.0 + 0j, 20.0]), (1,): A1, (-1,): A1})


def test_floquet_closed_forms():
    exps = floquet_exponents(diag_one_plus_cos_two(), ORBITS, PERIOD)
    assert exps.shape == (2, 2)
    assert np.max(np.abs(exps - [-2.0, -1.0])) < 1e-10
    for c in (0.0, 0.7, 2.3):
        f = DampingField.constant(np.array([[c + 0j]]))
        assert np.max(np.abs(floquet_exponents(f, ORBITS, PERIOD) + c)) < 1e-10
    f = random_field(3, 1, amplitude=0.6, seed=19)
    batch = floquet_exponents(f, ORBITS, PERIOD)
    for b, orbit in enumerate(ORBITS):
        assert np.max(np.abs(floquet_exponents(f, [orbit], PERIOD)[0] - batch[b])) < 1e-12
    with pytest.raises(ValueError):
        floquet_exponents(f, ORBITS, 0.0)


@pytest.mark.parametrize("field", [stiff_field(), random_field(2, 1, 0.6, seed=5),
                                   random_field(3, 1, 0.6, seed=19)],
                         ids=["stiff", "n2_seed5", "n3_seed19"])
def test_floquet_matches_qr_oracle(field):
    exps = floquet_exponents(field, ORBITS[:1], PERIOD)[0]
    for T in (50.0, 100.0, 200.0):
        qr = np.array(lyapunov_spectrum(field, ORBITS[0], T, dt=1e-3).exponents)
        assert np.max(np.abs(qr - exps)) <= 3.0 / T


def test_floquet_keeps_what_raw_eig_loses():
    f = stiff_field()
    exps = floquet_exponents(f, ORBITS, PERIOD)
    units, logs = propagate_many(f, phase_array(ORBITS), PERIOD, 1e-3)
    raw = np.sort(np.log(np.abs(np.linalg.eigvals(units))) + logs[:, None], axis=1) / PERIOD
    assert np.max(np.abs(raw[:, 0] - exps[:, 0])) > 1.0
    assert np.max(np.abs(raw[:, 1] - exps[:, 1])) < 1e-10


def test_c_bounds_do_not_depend_on_chunk_budget_or_sample_order(monkeypatch):
    # One trajectory at the default budget runs 80 time units per chunk; the
    # chunk product is then singular to working precision, and c_plus must
    # not depend on where the chunks end.
    f = random_field(3, 1, amplitude=0.6, seed=19)
    T = 60.0
    one = sample_shell(1, 0.5, d=1, seed=0)
    three = sample_shell(3, 0.5, d=1, seed=0)
    results = []
    for budget in (80_000, 7_000, 2_000):
        monkeypatch.setattr(cocycle, "_CHUNK_BUDGET", budget)
        for pts in (one, three, three[::-1]):
            fb = finite_time_bounds(f, T, pts, dt=1e-3)
            results.append((len(pts), fb.c_minus, fb.c_plus))
    for size in (1, 3):
        c_minus = [cm for k, cm, _ in results if k == size]
        c_plus = [cp for k, _, cp in results if k == size]
        assert max(c_minus) - min(c_minus) < 1e-9
        assert max(c_plus) - min(c_plus) < 1e-9
        assert min(c_minus) <= min(c_plus)
    monkeypatch.undo()
    est = band_estimates(f, T=T, m=1, dt=1e-3, seed=0)
    assert -est.lambda_minus <= est.c_plus + 3.0 / T


def direct_svd_bounds(field, points, T, dt):
    # c_minus/c_plus from one SVD of each materialized G_T
    Gs = [propagate(field, p, T, dt) for p in points]
    svals = np.array([np.linalg.svd(np.exp(G.log_scale) * G.unit, compute_uv=False) for G in Gs])
    return -np.max(np.log(svals[:, 0])) / T, -np.min(np.log(svals[:, -1])) / T


@pytest.mark.parametrize("budget", [80_000, 500])
def test_c_bounds_match_direct_svd(monkeypatch, budget):
    # non-commuting field; at budget 500 the compound products span
    # several chunks per trajectory
    f = random_field(2, 1, amplitude=0.8, seed=31)
    pts = sample_shell(4, 0.5, seed=9)
    T = 6.0
    monkeypatch.setattr(cocycle, "_CHUNK_BUDGET", budget)
    fb = finite_time_bounds(f, T, pts, dt=1e-3)
    c_minus, c_plus = direct_svd_bounds(f, pts, T, 1e-3)
    assert abs(fb.c_minus - c_minus) < 1e-12
    assert abs(fb.c_plus - c_plus) < 1e-12


def test_rates_never_invert(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    f = random_field(3, 1, amplitude=0.6, seed=19)
    pts = sample_shell(3, 0.5, seed=0)
    fb = finite_time_bounds(f, 4.0, pts, dt=1e-2)
    est = band_estimates(f, T=4.0, m=3, dt=1e-2, seed=0)
    assert abs(est.c_minus - fb.c_minus) < 1e-12
    assert abs(est.c_plus - fb.c_plus) < 1e-12
    lyapunov_spectrum(f, POINT, 4.0, dt=1e-2)


def rk4_rate(c, h):
    # one RK4 step multiplies e^{-ct} by p(-ch), p the degree-4 Taylor polynomial of exp
    z = -c * h
    return -math.log(1.0 + z + z * z / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0) / h


@pytest.mark.parametrize("rates", [(1.0, 20.0), (0.5, 3.0, 20.0)])
def test_c_bounds_past_the_svd_floor(rates):
    # sigma_min / sigma_max is about e^-1170 at T = 60, far below what one SVD of G_T resolves
    f = DampingField.constant(np.diag(rates))
    T, dt = 60.0, 1e-3
    _, h = plan_steps(T, dt)
    fb = finite_time_bounds(f, T, sample_shell(2, 0.5, seed=4), dt=dt)
    assert abs(fb.c_minus - rk4_rate(min(rates), h)) < 1e-11
    assert abs(fb.c_plus - rk4_rate(max(rates), h)) < 1e-11


@pytest.mark.parametrize("n", [2, 3])
def test_top_compound_obeys_liouville(n):
    # |det G_T| = exp(-Re tr int a), so the order-n rate is the mean trace
    f = random_field(n, 1, amplitude=0.6, seed=7 + n)
    T = 50.0
    mean_tr = np.real(np.trace(line_integral(f, POINT, T))) / T
    assert abs(exterior_sums(f, POINT, T, 1e-3, n) + mean_tr) < 1e-9


def test_step_outside_rk4_stability_is_rejected():
    # h * 400 = 200: RK4 would report exponent +36 where the truth is -400
    f = DampingField.constant([[400.0]])
    with pytest.raises(ValueError, match="stability"):
        lyapunov_spectrum(f, POINT, 64.0, dt=0.5)
    with pytest.raises(ValueError, match="stability"):
        finite_time_bounds(f, 64.0, [POINT], dt=0.5)
    # the guard lives in the window rule that every fold reads
    with pytest.raises(ValueError, match="stability"):
        safe_cadence(f, 0.5)
    # just inside the limit (h * 400 = 2.76) the step still damps
    assert lyapunov_spectrum(f, POINT, 1.0, dt=6.9e-3).exponents[0] < 0.0
    sp = lyapunov_spectrum(f, POINT, 1.0, dt=1e-3)
    assert sp.exponents[0] == pytest.approx(-400.0, rel=1e-3)


def stream_rates(field, points, T, dt, renorm_every):
    # per-point rates, stacked in the order of `points`
    s = _stream(field, points, T, dt, _bound_orders(field.n), renorm_every)
    top, bottom = _log_sigma_extremes(s.compounds, field.n)
    return {
        "top": top / T,
        "bottom": bottom / T,
        "exponents": np.sort(s.diag_logs / T, axis=1),
        "half": np.sort(s.diag_half / s.half_time, axis=1),
        "half_time": np.full(len(points), s.half_time),
    }


def joined(parts):
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 1000), m=st.integers(1, 4),
       T=st.floats(0.05, 5.0), dt=st.sampled_from([1e-2, 4e-3]),
       renorm_every=st.sampled_from([1, 7, 10]), budget=st.integers(1, 3000))
def test_stream_stats_do_not_depend_on_budget_batching_or_order(n, seed, m, T, dt,
                                                                renorm_every, budget):
    f = random_field(n, 1, amplitude=0.8, seed=seed)
    pts = sample_shell(m, 0.5, seed=seed)
    ref = stream_rates(f, pts, T, dt, renorm_every)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cocycle, "_CHUNK_BUDGET", budget)
        variants = [
            stream_rates(f, pts, T, dt, renorm_every),
            joined([stream_rates(f, [p], T, dt, renorm_every) for p in pts]),
            {k: v[::-1] for k, v in stream_rates(f, pts[::-1], T, dt, renorm_every).items()},
        ]
    for var in variants:
        assert -np.max(var["top"]) == pytest.approx(-np.max(ref["top"]), abs=1e-9)
        assert -np.min(var["bottom"]) == pytest.approx(-np.min(ref["bottom"]), abs=1e-9)
        for key in ref:
            assert np.max(np.abs(var[key] - ref[key])) < 1e-9, key
    # the snapshot is taken at the first window end at or after T/2, and
    # equals the full-horizon exponents of a run stopped there
    steps, h = plan_steps(T, dt)
    ends = np.minimum(renorm_every * np.arange(1, steps // renorm_every + 2), steps) * h
    half_time = float(ends[np.argmax(ends >= 0.5 * T)])
    assert ref["half_time"][0] == half_time
    stopped = stream_rates(f, pts, half_time, h, renorm_every)
    assert np.max(np.abs(stopped["exponents"] - ref["half"])) < 1e-9


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 1000), m=st.integers(1, 3),
       T=st.floats(0.05, 5.0), dt=st.sampled_from([1e-2, 4e-3]))
def test_stream_stats_do_not_depend_on_cadence(n, seed, m, T, dt):
    # the compounds of successive windows multiply, so the cadence is a numerical knob only
    f = random_field(n, 1, amplitude=0.8, seed=seed)
    pts = sample_shell(m, 0.5, seed=seed)
    ref = stream_rates(f, pts, T, dt, 1)
    h = plan_steps(T, dt)[1]
    for renorm_every in (7, 10, 250, 10**6):
        var = stream_rates(f, pts, T, dt, renorm_every)
        for key in ("top", "bottom", "exponents"):
            assert np.max(np.abs(var[key] - ref[key])) < 1e-10, (renorm_every, key)
        # half-horizon exponents against a cadence-1 run stopped at the same snapshot
        stopped = stream_rates(f, pts, var["half_time"][0], h, 1)
        assert np.max(np.abs(var["half"] - stopped["exponents"])) < 1e-10, renorm_every


def stiff_coupled_field():
    # a(x) = diag(1, 300) + 0.5 cos x [[0, 1], [1, 0]]: sum_k ||A_k||_2 = 300.5
    A1 = 0.25 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return DampingField(2, 1, {(0,): np.diag([1.0 + 0j, 300.0]), (1,): A1, (-1,): A1})


def test_cadence_is_clamped_to_the_safe_group_length(monkeypatch):
    # 250 steps of h = 5e-3 on this field form a product with log-condition
    # near 2 * 300 * 1.25; its small direction is lost before the fold sees it
    f = stiff_coupled_field()
    assert safe_cadence(f, 5e-3) == 5 == math.floor(9.0 / (5e-3 * 300.5))
    small = [lyapunov_spectrum(f, POINT, 20.0, 5e-3, r).exponents[0] for r in (10, 10**6)]
    assert abs(small[0] - small[1]) < 1e-9
    for r, ran in ((None, 5), (3, 3), (10**6, 5)):
        kw = {} if r is None else {"renorm_every": r}
        est = band_estimates(f, T=1.0, m=2, dt=5e-3, seed=0, **kw)
        assert est.diagnostics["renorm_every"] == ran
        if r is None:
            c_plus_cadence = est.c_plus
    # the folds without a cadence are clamped too: the order-2 compound
    # rate is the mean log |det| of the step matrices, the C bound does not
    # depend on whether a cadence is given, and the Floquet exponents are
    # those of one-step windows
    steps = np.concatenate(list(window_products(f, phase_array([POINT]), 20.0, 5e-3, window=1)),
                           axis=1)[0]
    log_det = np.sum(np.log(np.abs(np.linalg.det(steps)))) / 20.0
    assert abs(exterior_sums(f, POINT, 20.0, 5e-3, 2) - log_det) < 1e-9
    assert abs(finite_time_bounds(f, 1.0, sample_shell(2, 0.5, seed=0), 5e-3).c_plus
               - c_plus_cadence) < 1e-9
    floquet = floquet_exponents(f, ORBITS, PERIOD, 5e-3)
    monkeypatch.setattr(lyapunov, "_DEFAULT_GROUP", 1)
    assert np.max(np.abs(floquet_exponents(f, ORBITS, PERIOD, 5e-3) - floquet)) < 1e-9
    mild = band_estimates(random_field(2, 1, 0.6, seed=5), T=1.0, m=2, dt=1e-3, seed=0)
    assert mild.diagnostics["renorm_every"] == DEFAULT_RENORM_EVERY == 250
    assert safe_cadence(DampingField.zero(2, 1), 1e-3) == math.inf


def test_window_products_clamp_every_window_to_the_safe_cadence():
    # a caller asking for 250 steps gets the field's 5-step windows, not one
    # 200-step product whose small direction is lost
    f = stiff_coupled_field()
    start = phase_array([POINT])
    asked = np.concatenate(list(window_products(f, start, 1.0, 5e-3, window=250)), axis=1)
    safe = np.concatenate(list(window_products(f, start, 1.0, 5e-3, window=5)), axis=1)
    assert asked.shape[1] == 40 and np.array_equal(asked, safe)


@pytest.mark.parametrize("field, dt", [(random_field(3, 1, 0.6, seed=19), 1e-3),
                                       (random_field(2, 1, 0.6, seed=1, d=2), 1e-3),
                                       (stiff_coupled_field(), 5e-3)])
def test_propagate_many_is_the_order_one_stream(field, dt):
    # both folds take one window rule, so G_T is the same float for float
    pts = sample_shell(3, 0.5, d=field.d, seed=4)
    units, logs = propagate_many(field, phase_array(pts), 2.0, dt)
    ref_units, ref_logs = _stream(field, pts, 2.0, dt, (1,)).compounds[1]
    assert np.array_equal(units, ref_units) and np.array_equal(logs, ref_logs)


def compound_columns(field, points, T, dt, cadence):
    # the minors oracle: |R_11 ... R_ii| of G_T = QR is the norm of the first
    # column of C_i(G_T) (combinations list (0, ..., i - 1) first).  Each
    # order's column is folded through the window compounds of the clamped
    # cadence at its own unit norm, since on diag(5, 1) G_T e_1 falls e^{-4T}
    # below G_T e_2; log |R_ii| = log vol_i - log vol_{i-1}, and the half
    # snapshot is at the first window end at or after T/2
    M, h = plan_steps(T, dt)
    window = min(cadence, safe_cadence(field, h))
    n, B = field.n, len(points)
    combos = [list(itertools.combinations(range(n), i)) for i in range(1, n + 1)]
    cols = [np.repeat(np.eye(1, len(c), dtype=complex), B, axis=0) for c in combos]
    logs, half, steps = np.zeros((B, n)), None, 0
    for W in window_products(field, phase_array(points), T, dt, window=window):
        comps = [lyapunov._compound_batch(W, c) for c in combos]
        for j in range(W.shape[1]):
            vols = np.empty((B, n))
            for i, C in enumerate(comps):
                v = np.einsum("bij,bj->bi", C[:, j], cols[i])
                vols[:, i] = np.linalg.norm(v, axis=-1)
                cols[i] = v / vols[:, i, None]
            logs = logs + np.diff(np.log(vols), axis=1, prepend=0.0)
            steps = min(steps + window, M)
            if half is None and steps * h >= 0.5 * T:
                half = (logs, steps * h)
    return np.sort(logs / T, axis=1), np.sort(half[0] / half[1], axis=1), half[1]


QR_CASES = [pytest.param(random_field(n, 1, 0.8, seed=s, d=d), d, T, dt, cadence,
                         id=f"n{n}_d{d}_seed{s}_T{T:g}_every{cadence}")
            for n in range(1, 7) for d in (1, 2) for s in (1, 7)
            for T, dt, cadence in ((5.0, 4e-3, 250), (3.0, 1e-2, 7))]
QR_CASES.append(pytest.param(stiff_coupled_field(), 1, 20.0, 5e-3, DEFAULT_RENORM_EVERY,
                             id="stiff"))


@pytest.mark.parametrize("field, d, T, dt, cadence", QR_CASES)
def test_exponents_match_the_qr_frame(field, d, T, dt, cadence):
    # the QR frame's R-diagonals against the compound minors, an algorithm
    # that shares no Householder step with it
    pts = sample_shell(3, 0.5, d=d, seed=11)
    exps, half, half_time = compound_columns(field, pts, T, dt, cadence)
    got = stream_rates(field, pts, T, dt, cadence)
    assert np.max(np.abs(got["exponents"] - exps)) < 1e-12
    assert np.max(np.abs(got["half"] - half)) < 1e-12
    assert got["half_time"][0] == half_time


def test_readers_build_only_the_compounds_they_read(monkeypatch):
    # the exponents come from the QR frame, so no reader pays for the
    # compound orders it does not read
    f = random_field(4, 1, amplitude=0.6, seed=3)
    built = []
    compound_batch = lyapunov._compound_batch

    def recording(A, combos):
        built.append(len(combos[0]))
        return compound_batch(A, combos)

    monkeypatch.setattr(lyapunov, "_compound_batch", recording)
    lyapunov_spectrum(f, POINT, 1.0, 1e-2)
    assert built == []
    band_estimates(f, T=1.0, m=2, dt=1e-2)
    assert set(built) == {1, 3, 4}
    built.clear()
    exterior_sums(f, POINT, 1.0, 1e-2, i=2)
    assert set(built) == {2}


def test_zero_cadence_is_rejected():
    # None is the stream's "no R-diagonals", which would read exponents of 0.0;
    # a cadence is a window of >= 1 steps
    f = random_field(2, 1, amplitude=0.5, seed=3)
    for cadence in (0, None):
        with pytest.raises(ValueError):
            lyapunov_spectrum(f, POINT, 1.0, 1e-2, renorm_every=cadence)
        with pytest.raises(ValueError):
            band_estimates(f, T=1.0, m=2, dt=1e-2, renorm_every=cadence)


def test_rates_reject_nonpositive_horizon():
    f = random_field(2, 1, amplitude=0.5, seed=3)
    for T in (0.0, -1.0):
        with pytest.raises(ValueError):
            band_estimates(f, T=T, m=2)
        with pytest.raises(ValueError):
            exterior_sums(f, POINT, T)


def test_sum_rule_against_symbolic_trace():
    f = random_field(2, 1, amplitude=0.8, seed=23)
    T = 50.0
    sp = lyapunov_spectrum(f, POINT, T, dt=1e-3)
    mean_tr = np.real(np.trace(line_integral(f, POINT, T))) / T
    assert abs(sum(sp.exponents) + mean_tr) < 5.0 / T


def test_essential_bounds_decoupled_field():
    f = diag_one_plus_cos_two()
    T = 60.0
    eb = band_estimates(f, T=T, m=12, dt=2e-3, seed=5)
    assert eb.lambda_minus == pytest.approx(-2.0, abs=2.0 / T)
    assert eb.lambda_plus == pytest.approx(-1.0, abs=2.0 / T)
    assert eb.diagnostics["rank_ok"]


def test_essential_bounds_constant_and_zero():
    eb = band_estimates(DampingField.constant(0.5 * np.eye(2)), T=10.0, m=10, dt=1e-3, seed=1)
    assert eb.lambda_minus == pytest.approx(-0.5, abs=1e-9)
    assert eb.lambda_plus == pytest.approx(-0.5, abs=1e-9)
    eb0 = band_estimates(DampingField.zero(2, 1), T=5.0, m=10, dt=1e-2, seed=1)
    assert eb0.lambda_minus == pytest.approx(0.0, abs=1e-12)
    assert eb0.lambda_plus == pytest.approx(0.0, abs=1e-12)


def test_ordering_chain_finite_horizon():
    T = 50.0
    for seed in (1, 2):
        f = random_field(2, 1, amplitude=0.7, seed=40 + seed)
        est = band_estimates(f, T=T, m=12, dt=2e-3, seed=seed)
        slack = 3.0 / T
        assert est.c_minus <= -est.lambda_plus + slack
        assert -est.lambda_minus <= est.c_plus + slack


def test_band_report_fragment_keys():
    est = band_estimates(one_plus_cos(), T=10.0, m=4, dt=2e-3, seed=0)
    doc = dataclasses.asdict(est)
    assert set(doc) >= {"T", "m", "c_minus", "c_plus", "lambda_minus", "lambda_plus", "diagnostics"}
