import math
import warnings

import numpy as np
import pytest

from dampedwave.quantize import (
    NODE_SPACING,
    TAIL_CUT,
    CircleGrid,
    GridSpec,
    Symbol,
    _aw_nodes,
    _lag_table,
    _midpoints,
    antiwick_build,
    antiwick_build_circle,
    certified_compressor,
    coherent_state,
    identity_error,
    mollified_weyl_residual,
    symbol_cos_x,
    symbol_harmonic,
    symbol_one,
    symbol_xi,
    weyl_build,
)
from dampedwave.evolution import suggest_modes

H = 0.1
L = 5.0


@pytest.fixture(scope="module")
def grid():
    return GridSpec.build(L, H)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(L, 16, H)  # spacing too coarse for sqrt(h)/4
    with pytest.raises(ValueError):
        GridSpec.build(L, H, xi_max=1.0)


def test_identity_error_needs_room_for_its_probes():
    # L = 1 at h = 0.05 leaves L - 6 sqrt(h) < 0 for the probe centers
    with pytest.raises(ValueError, match="identity probes"):
        identity_error(GridSpec.build(1.0, 0.05))


def test_identity_error_fails_on_a_nan_residual(grid, monkeypatch):
    import dampedwave.quantize as quantize

    monkeypatch.setattr(quantize, "antiwick_build",
                        lambda sym, g: np.full((g.points, g.points), np.nan))
    with pytest.raises(FloatingPointError, match="not finite"):
        identity_error(grid)


def test_coherent_state_norm_and_phase(grid):
    e0 = coherent_state(0.0, 0.0, grid)
    assert abs(np.sum(np.abs(e0) ** 2) * grid.dx - 1.0) < 1e-10
    e1 = coherent_state(0.0, 1.7, grid)
    assert np.allclose(np.abs(e0), np.abs(e1), atol=1e-15)


def test_coherent_state_overlap_gaussian(grid):
    x0 = 0.8
    e0 = coherent_state(0.0, 0.0, grid)
    e1 = coherent_state(x0, 0.0, grid)
    overlap = np.vdot(e0, e1) * grid.dx
    assert abs(overlap - math.exp(-x0 * x0 / (4 * H))) < 1e-12


def test_coherent_state_edge_warning(grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coherent_state(0.0, 0.0, grid)  # interior: silent
    with pytest.warns(UserWarning):
        coherent_state(L - 0.05, 0.0, grid)


def test_antiwick_identity_and_linearity(grid):
    assert identity_error(grid) < 1e-6
    A1 = antiwick_build(symbol_one(), grid)
    c = 2.7
    Ac = antiwick_build(Symbol(lambda x, xi: c * np.ones(np.broadcast(x, xi).shape)), grid)
    assert np.allclose(Ac, c * A1, atol=1e-12)


def test_antiwick_harmonic_rayleigh(grid):
    A = antiwick_build(symbol_harmonic(), grid)
    e0 = coherent_state(0.0, 0.0, grid)
    val = float(np.real(np.vdot(e0, A @ e0) * grid.dx))
    assert val == pytest.approx(2 * H, rel=0.05)


def test_weyl_identity_and_harmonic(grid):
    W1 = weyl_build(symbol_one(), grid)
    assert np.linalg.norm(W1 - np.eye(grid.points), ord=2) < 1e-6
    Wh = weyl_build(symbol_harmonic(), grid)
    e0 = coherent_state(0.0, 0.0, grid)
    val = float(np.real(np.vdot(e0, Wh @ e0) * grid.dx))
    assert val == pytest.approx(H, rel=0.05)


def test_weyl_momentum_observable(grid):
    W = weyl_build(symbol_xi(), grid)
    for xi0 in (0.6, -1.4):
        f = coherent_state(0.3, xi0, grid)
        val = float(np.real(np.vdot(f, W @ f) * grid.dx))
        assert val == pytest.approx(xi0, abs=1e-8)


def test_weyl_generic_path_matches_separable(grid):
    # oracle: for a(x, xi) = sum f(x) g(xi), entry (p, q) is
    # sum f((y_p + y_q)/2) * pref sum_k g(xi_k) e^{i (p - q) dx xi_k / h}
    h, P = grid.h, grid.points
    s_rep = 2.0 * math.pi * h / (4.0 * grid.L + 1.0)
    xis, sxi = _midpoints(grid.nyquist, min(NODE_SPACING * math.sqrt(h), s_rep))
    pref = grid.dx * sxi / (2.0 * math.pi * h)
    tphase = np.exp(1j * np.outer(np.arange(1 - P, P) * grid.dx, xis) / h)
    p = np.arange(P)
    lag = p[:, None] - p[None, :] + (P - 1)
    mids = 0.5 * (grid.x[:, None] + grid.x[None, :])
    one = np.ones_like
    cases = [(symbol_one(), [(one, one)]),
             (symbol_harmonic(), [(lambda x: x * x, one), (one, lambda xi: xi * xi)]),
             (symbol_cos_x(), [(np.cos, one)]),
             (symbol_xi(), [(one, lambda xi: xi)])]
    for sym, parts in cases:
        ref = sum(fx(mids) * (tphase @ (pref * gxi(xis)))[lag] for fx, gxi in parts)
        W = weyl_build(sym, grid)
        assert np.max(np.abs(W - ref)) < 1e-12 * np.max(np.abs(ref)), sym.label


def test_weyl_matrix_symbol_blocks(grid):
    # diag(cos x, xi): the diagonal blocks are the scalar operators, the off-diagonal ones vanish
    def diag(x, xi):
        m = np.zeros(np.broadcast(x, xi).shape + (2, 2))
        m[..., 0, 0] = np.cos(x) + 0.0 * xi
        m[..., 1, 1] = xi + 0.0 * x
        return m

    P = grid.points
    W = weyl_build(Symbol(diag, 2), grid)
    assert W.shape == (2 * P, 2 * P)
    scale = np.max(np.abs(W))
    for (a, b), ref in {(0, 0): weyl_build(symbol_cos_x(), grid),
                        (1, 1): weyl_build(symbol_xi(), grid),
                        (0, 1): 0.0, (1, 0): 0.0}.items():
        block = W[a * P:(a + 1) * P, b * P:(b + 1) * P]
        assert np.max(np.abs(block - ref)) < 1e-12 * scale


def test_positivity_of_psd_symbols(grid):
    sym_list = [
        symbol_one(),
        symbol_harmonic(),
        Symbol(lambda x, xi: np.cos(x) ** 2 + 0.0 * xi, 1),
        Symbol(lambda x, xi: np.exp(-(xi ** 2)) + 0.0 * x, 1),
    ]
    for sym in sym_list:
        A = antiwick_build(sym, grid)
        w = np.linalg.eigvalsh(0.5 * (A + A.conj().T))
        assert w[0] >= -1e-8


def test_matrix_symbol_positivity_and_norm(grid):
    def mat(x, xi):
        s = np.sin(x) * np.exp(-0.5 * xi ** 2)
        m = np.empty(np.broadcast(x, xi).shape + (2, 2), dtype=complex)
        m[..., 0, 0] = 1.5 + np.cos(x) + 0.0 * xi
        m[..., 1, 1] = 1.0 + 0.0 * (x + xi)
        m[..., 0, 1] = 0.3 * s
        m[..., 1, 0] = 0.3 * s
        return m

    A = antiwick_build(Symbol(mat, 2), grid)
    w = np.linalg.eigvalsh(0.5 * (A + A.conj().T))
    assert w[0] >= -1e-8
    xs = np.linspace(-L, L, 41)
    xis = np.linspace(-3, 3, 41)
    sup = max(np.linalg.norm(mat(x, xi), ord=2) for x in xs for xi in xis)
    assert np.linalg.norm(A, ord=2) <= sup + 1e-6


def test_norm_bound_scalar(grid):
    A = antiwick_build(symbol_cos_x(), grid)
    assert np.linalg.norm(A, ord=2) <= 1.0 + 1e-6


def test_mollified_residuals(grid):
    for sym in (symbol_one(), symbol_harmonic(), symbol_cos_x()):
        assert mollified_weyl_residual(sym, grid) < 1e-4


def test_mollified_requires_symbolic_form(grid):
    plain = Symbol(lambda x, xi: np.cos(x) + 0.0 * xi, 1)
    with pytest.raises(ValueError):
        mollified_weyl_residual(plain, grid)


def test_aw_weyl_gap_is_order_h():
    def gap(symbol, grid):
        # compressed ||Op_AW(a) - Op_W(a)||, the O(h) mollification gap
        C = certified_compressor(grid)
        D = antiwick_build(symbol, grid) - weyl_build(symbol, grid)
        return np.linalg.norm(C.conj().T @ D @ C, ord=2)

    for sym_fn in (symbol_cos_x, symbol_harmonic):
        g1 = GridSpec.build(L, 0.08)
        g2 = GridSpec.build(L, 0.04)
        ratio = gap(sym_fn(), g1) / gap(sym_fn(), g2)
        assert 1.6 <= ratio <= 2.6


def test_circle_antiwick_identity():
    grid = CircleGrid(2 * suggest_modes(0.05), 0.05)
    A = antiwick_build_circle(symbol_one(), grid)
    assert np.linalg.norm(A - np.eye(grid.points), ord=2) < 1e-6


def test_circle_antiwick_matrix_blocks():
    grid = CircleGrid(2 * suggest_modes(0.1), 0.1)

    def mat(x, xi):
        m = np.zeros(np.broadcast(x, xi).shape + (2, 2), dtype=complex)
        m[..., 0, 0] = 1.0 + 0.0 * (x + xi)
        m[..., 1, 1] = 2.0 + 0.0 * (x + xi)
        return m

    A = antiwick_build_circle(Symbol(mat, 2), grid)
    P = grid.points
    assert np.linalg.norm(A[:P, :P] - np.eye(P), ord=2) < 1e-6
    assert np.linalg.norm(A[P:, P:] - 2 * np.eye(P), ord=2) < 1e-6
    assert np.linalg.norm(A[:P, P:], ord=2) < 1e-12


def _scalar_sym(x, xi):
    return np.cos(x) * np.exp(-xi**2) + 0.3j * np.sin(x) * xi


def _mat_sym(x, xi):
    x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
    m = np.empty(x.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = np.cos(x) * np.exp(-xi**2)
    m[..., 0, 1] = 0.3j * np.sin(2 * x) + xi
    m[..., 1, 0] = 0.1 * xi**2
    m[..., 1, 1] = 1.0 + 0.5 * np.sin(x + xi)
    return m


GENERIC = [Symbol(_scalar_sym, 1), Symbol(_mat_sym, 2)]


@pytest.mark.parametrize("sym", GENERIC, ids=["n1", "n2"])
def test_lag_table_is_the_direct_momentum_sum(grid, sym):
    # one FFT per center against sum_k w a(c, xi_k) e^{i m dx xi_k / h}, over
    # lags up to two periods of the K nodes either way
    xs, xis, w = _aw_nodes(grid)
    K = len(xis)
    lags = np.arange(-2 * K, 2 * K + 1)
    centers = xs[::17]
    vals = np.stack([np.asarray(sym(c, xis)).reshape(K, -1) for c in centers])
    direct = np.einsum("mk,ckj->mcj", np.exp(1j * np.outer(lags * grid.dx, xis) / grid.h), w * vals)
    assert _rel_err(_lag_table(sym, centers, lags, xis, w), direct) < 1e-12


def _projector_loop(symbol, centers, windows, offsets, xis, w, h, dx, P):
    """Reference anti-Wick sum: per center an explicit phase table E, the
    matmul E diag(w a) E^H per (a, b) block and a scatter onto its window."""
    n = symbol.n
    op = np.zeros((P * n, P * n), dtype=complex)
    for x0, idx, u in zip(centers, windows, offsets):
        g = (h * math.pi) ** (-0.25) * np.exp(-(u**2) / (2.0 * h))
        E = np.exp(1j * np.outer(u, xis) / h)
        vals = np.asarray(symbol(x0, xis)).reshape(len(xis), n, n)
        for a in range(n):
            for b in range(n):
                M = (E * (w * vals[:, a, b])[None, :]) @ E.conj().T
                op[np.ix_(a * P + idx, b * P + idx)] += dx * np.outer(g, g) * M
    return op


def _rel_err(A, ref):
    return np.linalg.norm(A - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("Lbox", [2.0, L])
@pytest.mark.parametrize("sym", GENERIC, ids=["n1", "n2"])
def test_antiwick_build_matches_projector_loop(Lbox, sym):
    grid = GridSpec.build(Lbox, H)
    y = grid.x
    xs, xis, w = _aw_nodes(grid)
    cut = TAIL_CUT * math.sqrt(H)
    lo = np.searchsorted(y, xs - cut)
    hi = np.searchsorted(y, xs + cut, side="right")
    assert np.all(hi > lo) and np.min(hi - lo) < np.max(hi - lo)  # edge windows clipped
    windows = [np.arange(a, b) for a, b in zip(lo, hi)]
    ref = _projector_loop(sym, xs, windows, [y[i] - x0 for x0, i in zip(xs, windows)],
                          xis, w, H, grid.dx, grid.points)
    assert _rel_err(antiwick_build(sym, grid), ref) < 1e-12


@pytest.mark.parametrize("P,h", [(96, 0.1), (132, 0.06)])
@pytest.mark.parametrize("sym", GENERIC, ids=["n1", "n2"])
def test_antiwick_build_circle_matches_projector_loop(P, h, sym):
    # at h = 0.1 the 79-point windows of neighbouring centers overlap across
    # the wrap, so a lag taken mod P would alias
    grid = CircleGrid(P, h)
    dx = grid.dx
    halfw = int(math.ceil(TAIL_CUT * math.sqrt(h) / dx))
    Xi = grid.nyquist
    nxi = int(math.ceil(2.0 * Xi / (NODE_SPACING * math.sqrt(h))))
    xis = -Xi + (np.arange(nxi) + 0.5) * (2.0 * Xi / nxi)
    rel = np.arange(-halfw, halfw + 1)
    ref = _projector_loop(sym, grid.x, [(i0 + rel) % P for i0 in range(P)], [rel * dx] * P,
                          xis, dx * (2.0 * Xi / nxi) / (2.0 * math.pi * h), h, dx, P)
    assert _rel_err(antiwick_build_circle(sym, grid), ref) < 1e-12


@pytest.mark.parametrize("sym", GENERIC, ids=["n1", "n2"])
def test_circle_shifted_symbol_rolls_operator(sym):
    grid = CircleGrid(96, 0.1)
    n, P = sym.n, grid.points
    A = antiwick_build_circle(sym, grid).reshape(n, P, n, P)
    shifted = Symbol(lambda x, xi: sym(x - grid.dx, xi), n)
    As = antiwick_build_circle(shifted, grid).reshape(n, P, n, P)
    assert _rel_err(As, np.roll(A, (1, 1), axis=(1, 3))) < 1e-12


def test_circle_hermitian_symbol_gives_hermitian_operator():
    def herm(x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        m = np.empty(x.shape + (2, 2), dtype=complex)
        m[..., 0, 0] = 1.5 + np.cos(x) * xi
        m[..., 1, 1] = np.exp(-xi**2)
        m[..., 0, 1] = 0.3 * np.sin(x) + 0.2j * np.cos(2 * x) * xi
        m[..., 1, 0] = np.conj(m[..., 0, 1])
        return m

    for h in (0.1, 0.06):
        grid = CircleGrid(2 * suggest_modes(h), h)
        A = antiwick_build_circle(Symbol(herm, 2), grid)
        assert np.linalg.norm(A - A.conj().T) < 1e-12 * np.linalg.norm(A)
