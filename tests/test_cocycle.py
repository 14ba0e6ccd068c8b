import math
import re

import numpy as np
import pytest

from dampedwave import cocycle
from dampedwave.cocycle import (
    _compose,
    cocycle_residual,
    line_integral,
    log_norm2,
    propagate,
    propagate_many,
    scalar_closed_form,
    window_products,
)
from dampedwave.damping import DampingField, one_plus_cos, random_field
from dampedwave.geometry import PhasePoint, phase_array, sample_shell

SQRT2 = math.sqrt(2.0)
SHELL_POINT = PhasePoint((1.0,), (1.0 / SQRT2,))


def exact_one_plus_cos(x0, T):
    # closed-form line integral of 1 + cos along x0 + sqrt(2) s
    return math.exp(-(T + (math.sin(x0 + SQRT2 * T) - math.sin(x0)) / SQRT2))


def test_zero_damping_gives_identity():
    G = propagate(DampingField.zero(2, 1), SHELL_POINT, 7.0, 1e-2)
    assert G.log_scale == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(G.unit, np.eye(2), atol=1e-14)


def test_constant_scalar_exponential():
    G = propagate(DampingField.constant([[0.8]]), SHELL_POINT, 10.0, 1e-3)
    val = math.exp(G.log_scale) * G.unit[0, 0].real
    assert abs(val - math.exp(-8.0)) / math.exp(-8.0) < 1e-8


def test_one_plus_cos_matches_closed_form():
    f = one_plus_cos()
    for x0 in (0.0, 1.3, 4.0):
        p = PhasePoint((x0,), (1.0 / SQRT2,))
        G = propagate(f, p, 6.0, 1e-3)
        val = math.exp(G.log_scale) * G.unit[0, 0].real
        assert abs(val - exact_one_plus_cos(x0, 6.0)) / exact_one_plus_cos(x0, 6.0) < 1e-10


def test_scalar_closed_form_values():
    f = one_plus_cos()
    assert scalar_closed_form(DampingField.zero(1, 1), SHELL_POINT, 5.0) == pytest.approx(1.0)
    assert scalar_closed_form(DampingField.constant([[0.5]]), SHELL_POINT, 4.0) == \
        pytest.approx(math.exp(-2.0), rel=1e-14)
    p0 = PhasePoint((0.0,), (1.0 / SQRT2,))
    assert scalar_closed_form(f, p0, SQRT2 * math.pi) == \
        pytest.approx(math.exp(-SQRT2 * math.pi), rel=1e-12)


def test_scalar_closed_form_rejects_matrix_fields():
    with pytest.raises(ValueError):
        scalar_closed_form(DampingField.zero(2, 1), SHELL_POINT, 1.0)


def test_propagate_matches_closed_form_invariant():
    f = one_plus_cos()
    for T in (1.0, 5.0, 20.0):
        G = propagate(f, SHELL_POINT, T, 1e-3)
        exact = scalar_closed_form(f, SHELL_POINT, T)
        val = math.exp(G.log_scale) * G.unit[0, 0].real
        assert abs(val - exact) / abs(exact) < 1e-8


def test_step_halving_is_fourth_order():
    f = one_plus_cos()
    T = 5.0
    exact = scalar_closed_form(f, SHELL_POINT, T)

    def err(dt):
        G = propagate(f, SHELL_POINT, T, dt)
        return abs(math.exp(G.log_scale) * G.unit[0, 0].real - exact)

    ratio = err(0.02) / err(0.01)
    assert 12.0 <= ratio <= 20.0


def test_unit_norm_invariant():
    f = random_field(2, 1, amplitude=1.1, seed=2)
    for p in sample_shell(5, 0.5, seed=3):
        G = propagate(f, p, 30.0, 1e-3)
        nrm = np.linalg.norm(G.unit, ord=2)
        assert 0.5 <= nrm <= 2.0


def test_long_horizon_stays_finite():
    # e^{-cT} underflows far beyond float range without rescaling
    G = propagate(DampingField.constant([[2.0]]), SHELL_POINT, 600.0, 1e-2)
    assert G.log_scale == pytest.approx(-1200.0, abs=1e-4)
    assert np.isfinite(G.unit).all()


def test_cocycle_residual_trivial_factor():
    f = one_plus_cos()
    assert cocycle_residual(f, SHELL_POINT, 0.0, 3.0, 1e-3) < 1e-12
    assert cocycle_residual(f, SHELL_POINT, 3.0, 0.0, 1e-3) < 1e-12


def test_cocycle_residual_commuting_case():
    f = DampingField.constant(0.6 * np.eye(2))
    assert cocycle_residual(f, SHELL_POINT, 2.0, 5.0, 1e-3) < 1e-10


def test_cocycle_residual_random_fields():
    rng = np.random.default_rng(17)
    for i in range(10):
        f = random_field(2, 1, amplitude=0.7, seed=100 + i)
        p = sample_shell(1, 0.5, seed=i)[0]
        s, t = rng.uniform(0.5, 3.0, 2)
        assert cocycle_residual(f, p, float(s), float(t), 1e-3) < 1e-6


def test_determinant_identity():
    f = random_field(2, 1, amplitude=0.9, seed=21)
    T = 10.0
    G = propagate(f, SHELL_POINT, T, 1e-3)
    trace_integral = np.real(np.trace(line_integral(f, SHELL_POINT, T)))
    log_abs_det = np.linalg.slogdet(G.unit)[1] + 2 * G.log_scale
    assert abs(log_abs_det + trace_integral) < 1e-6


def test_line_integral_against_quadrature():
    f = random_field(2, 2, amplitude=0.8, seed=6)
    T = 3.0
    ts = np.linspace(0.0, T, 20001)
    vals = np.stack([f.at(np.array(SHELL_POINT.x) + 2 * np.array(SHELL_POINT.xi) * t)
                     for t in ts])
    simpson = np.trapezoid(vals, ts, axis=0)
    assert np.max(np.abs(simpson - line_integral(f, SHELL_POINT, T))) < 1e-6


def test_propagate_many_matches_single():
    f = random_field(2, 1, amplitude=0.5, seed=30)
    pts = sample_shell(4, 0.5, seed=5)
    units, logs = propagate_many(f, phase_array(pts), 8.0, 1e-3)
    assert units.shape == (4, 2, 2) and logs.shape == (4,)
    norms = log_norm2(units, logs)
    for b, p in enumerate(pts):
        G = propagate(f, p, 8.0, 1e-3)
        assert abs(norms[b] - G.log_scale - np.log(np.linalg.svd(G.unit, compute_uv=False)[0])) < 1e-10
        assert np.allclose(np.exp(logs[b]) * units[b], math.exp(G.log_scale) * G.unit,
                           rtol=0, atol=1e-10)


@pytest.mark.parametrize("bad", [0.0, np.inf])
def test_compose_rejects_lost_scale(bad):
    eye = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2))
    stack = np.full((3, 2, 2), bad, dtype=complex)
    with pytest.raises(FloatingPointError, match="under/overflow"):
        _compose(stack, np.zeros(3), eye, np.zeros(3))


def test_propagate_rejects_bad_steps():
    f = one_plus_cos()
    with pytest.raises(ValueError):
        propagate(f, SHELL_POINT, 1.0, 0.0)
    with pytest.raises(ValueError):
        propagate(f, SHELL_POINT, -1.0, 1e-3)
    with pytest.raises(ValueError):
        propagate(f, SHELL_POINT, math.nan, 1e-3)


@pytest.mark.parametrize("T, dt, count", [(1e308, 1e-3, "inf"), (1e300, 1e-2, "1e+302"),
                                          (2.0**53 + 2.0, 1.0, "9.01e+15")])
def test_plan_steps_rejects_a_step_count_past_float64_indices(T, dt, count):
    # step times are h times an index, exact in float64 only up to 2**53
    with pytest.raises(ValueError, match=rf"^horizon T=.* at step dt=.* needs {re.escape(count)} steps"):
        cocycle.plan_steps(T, dt)
    assert cocycle.plan_steps(2.0**53, 1.0) == (2**53, 1.0)


def expanded_rk4_steps(A_half, h):
    # the classical RK4 transfer polynomial, expanded, with `@` on C-contiguous copies
    B1 = np.ascontiguousarray(A_half[:, 0:-1:2])
    B2 = np.ascontiguousarray(A_half[:, 1::2])
    B3 = np.ascontiguousarray(A_half[:, 2::2])
    P21, P22, P32 = B2 @ B1, B2 @ B2, B3 @ B2
    eye = np.eye(A_half.shape[-1])
    return (eye - (h / 6.0) * (B1 + 4.0 * B2 + B3)
            + (h * h / 6.0) * (P21 + P22 + P32)
            - (h**3 / 12.0) * (P22 @ B1 + P32 @ B2)
            + (h**4 / 24.0) * (P32 @ P21))


def half_step_samples(field, starts, steps, h):
    # a(x_t) on the half-step grid by its own Fourier sum: (B, 2 steps + 1, n, n)
    ks, As = field.modes()
    ts = 0.5 * h * np.arange(2 * steps + 1)
    x = starts[:, None, 0] + 2.0 * ts[:, None] * starts[:, None, 1]
    return np.einsum("bqj,jmn->bqmn", np.exp(1j * (x @ ks.T)), As)


def rk4_polynomial(A, h):
    # RK4's transfer polynomial of G' = -A G for a constant A: sum_{p <= 4} (-hA)^p / p!
    term, total = np.eye(len(A), dtype=complex), np.eye(len(A), dtype=complex)
    for p in range(1, 5):
        term = term @ (-h * A) / p
        total = total + term
    return total


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rk4_step_matrices_match_expanded_polynomial(n):
    # window=1 yields the step matrices themselves; on the circle, T^2 and T^3,
    # up to F = 289 (K = 2 on T^2) and F = 729 (K = 1 on T^3) coefficients
    h = 0.2  # large enough that the h^3 and h^4 terms are far above round-off
    for d, K, amplitude in ((1, 0, 1.3), (1, 2, 1.3), (2, 1, 0.9), (2, 2, 0.6), (3, 1, 0.4)):
        f = random_field(n, K, amplitude=amplitude, seed=40 + n, d=d)
        starts = phase_array(sample_shell(3, 0.5, d=d, seed=n))
        ref = expanded_rk4_steps(half_step_samples(f, starts, 150, h), h)
        S = np.concatenate(list(window_products(f, starts, 150 * h, h, window=1)), axis=1)
        assert S.shape == ref.shape
        bound = 1e-14 * (1.0 + np.linalg.norm(ref, axis=(-2, -1)))
        assert np.all(np.linalg.norm(S - ref, axis=(-2, -1)) <= bound), (d, K)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_step_polynomial_rows_are_the_single_start_builds(d):
    f = random_field(2, 1, amplitude=0.7, seed=9, d=d)
    xis = phase_array(sample_shell(5, 0.5, d=d, seed=d))[:, 1]
    C = cocycle._step_polynomial(f, xis, 0.05)
    for b in range(len(xis)):
        assert np.max(np.abs(C[b] - cocycle._step_polynomial(f, xis[b:b + 1], 0.05)[0])) <= 1e-15


@pytest.mark.parametrize("d", [1, 2])
def test_starts_sharing_a_momentum_match_their_single_start_runs(d):
    # three positions per momentum: one step build each, the positions in the phase table
    f = random_field(2, 1, amplitude=0.8, seed=11, d=d)
    starts = np.repeat(phase_array(sample_shell(2, 0.5, d=d, seed=3)), 3, axis=0)
    starts[:, 0] = np.random.default_rng(d).uniform(0.0, 2.0 * math.pi, (6, d))
    got = np.concatenate(list(window_products(f, starts, 1.0, 1e-2, window=7)), axis=1)
    for b in range(len(starts)):
        one = np.concatenate(list(window_products(f, starts[b:b + 1], 1.0, 1e-2, window=7)), axis=1)
        assert np.max(np.abs(got[b] - one[0])) <= 1e-14


@pytest.mark.parametrize("budget", [50, 200])
def test_window_products_split_the_batch_to_keep_the_budget(monkeypatch, budget):
    # F = 9 phases and n^2 = 4 step entries per start and step: one window
    # of the batch, 40 * 13 * 10 entries, is far over both budgets, and each
    # table holds one window of one start.  The unsplit run holds one window
    # of the whole batch per chunk, so only the batch split differs.
    f = random_field(2, 1, amplitude=0.9, seed=12)
    starts = phase_array(sample_shell(40, 0.5, seed=2))
    monkeypatch.setattr(cocycle, "_CHUNK_BUDGET", 40 * 13 * 10)
    whole = np.concatenate(list(window_products(f, starts, 1.0, 1e-2, window=10)), axis=1)
    sizes, phase_table = [], cocycle._phase_table

    def spy(*args):
        table = phase_table(*args)
        sizes.append(table.size)
        return table

    monkeypatch.setattr(cocycle, "_phase_table", spy)
    monkeypatch.setattr(cocycle, "_CHUNK_BUDGET", budget)
    got = np.concatenate(list(window_products(f, starts, 1.0, 1e-2, window=10)), axis=1)
    assert len(sizes) >= 10 * 40 * 90 // max(budget, 90)
    assert max(sizes) <= max(budget, 90)
    assert np.array_equal(got, whole)


@pytest.mark.parametrize("B", [1, 4])
@pytest.mark.parametrize("window", [1, 7, 32])
def test_window_products_match_plain_loop(monkeypatch, B, window):
    # 100 steps: windows of 7 and 32 leave a shorter final window, and the
    # small budget splits the run into several chunks
    monkeypatch.setattr(cocycle, "_CHUNK_BUDGET", 96)
    f = random_field(3, 1, amplitude=0.9, seed=12)
    starts = phase_array(sample_shell(B, 0.5, seed=7))
    T, dt = 1.0, 1e-2
    steps = expanded_rk4_steps(half_step_samples(f, starts, 100, dt), dt)
    ref = []
    for s0 in range(0, 100, window):
        W = steps[:, s0]
        for j in range(s0 + 1, min(s0 + window, 100)):
            W = steps[:, j] @ W
        ref.append(W)
    got = np.concatenate(list(window_products(f, starts, T, dt, window=window)), axis=1)
    assert got.shape == (B, len(ref), 3, 3)
    assert np.allclose(got, np.stack(ref, axis=1), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("d", [1, 2])
def test_zero_field_windows_are_exactly_identity(d):
    starts = phase_array(sample_shell(3, 0.5, d=d, seed=4))
    for field in (DampingField.zero(2, d), DampingField(2, d, {})):
        for W in window_products(field, starts, 2.0, 1e-2, window=7):
            assert np.array_equal(W, np.broadcast_to(np.eye(2), W.shape))


@pytest.mark.parametrize("window", [1, 6, 25])
def test_constant_field_windows_are_powers_of_the_rk4_polynomial(window):
    # K = 0: one frequency, so every step matrix is p(-hA) with p RK4's degree-4 polynomial
    A = random_field(3, 0, amplitude=2.0, seed=8).coeffs[(0,)]
    h = 0.05
    starts = phase_array(sample_shell(2, 0.5, seed=1))
    got = np.concatenate(list(window_products(DampingField.constant(A), starts, 100 * h, h,
                                              window=window)), axis=1)
    P = rk4_polynomial(A, h)
    for i in range(got.shape[1]):
        ref = np.linalg.matrix_power(P, min(window, 100 - i * window))
        err = np.linalg.norm(got[:, i] - ref, axis=(-2, -1)) / np.linalg.norm(ref)
        assert np.all(err <= 1e-14), (i, err)


def test_window_products_take_one_start_array():
    f = one_plus_cos()
    with pytest.raises(ValueError, match="shape"):
        next(window_products(f, np.zeros((2, 2, 2)), 1.0, 1e-2))
    with pytest.raises(TypeError):
        next(window_products(f, [SHELL_POINT], 1.0, 1e-2))


def test_window_products_rejects_a_box_past_the_budget():
    # T^2 with K = 300: (8K + 1)^2 = 5 764 801 coefficients per step, above
    # what one chunk holds; the arrays would be built before anything is checked
    A = 0.1 * np.eye(2, dtype=complex)
    f = DampingField(2, 2, {(0, 0): np.eye(2, dtype=complex), (300, 0): A, (-300, 0): A})
    with pytest.raises(ValueError, match=r"K=300 on d=2 .* = 5\.76e\+6 above 720000"):
        next(window_products(f, phase_array(sample_shell(1, 0.5, d=2, seed=0)), 1.0, 1e-2))
