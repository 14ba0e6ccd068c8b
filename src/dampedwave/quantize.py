"""Anti-Wick and Weyl quantization on 1-d grids, plus a periodized variant.

States are samples on a uniform grid with the inner product
<u, v> = dx * sum(conj(u) v).  The anti-Wick operator is a phase-space
quadrature of rank-one coherent-state projectors,

    Op_AW(a) = (2 pi h)^{-1} sum_{x0, xi0} dx0 dxi0 a(x0, xi0) Pi_(x0,xi0);

the momentum nodes tile exactly one Nyquist period of the grid, so for
a = 1 the aliased Gaussian tiling reproduces the identity to quadrature
accuracy, and Gaussians are truncated at 8 sqrt(h), which keeps the
assembled operator banded.  The nodes make dx xi_k / h = pi (2k + 1 - K) / K,
so every momentum sum sum_k a(c, xi_k) e^{i m dx xi_k / h} at an integer lag
m is a length-K DFT of the symbol values of center c: one FFT per center
gives every lag (``_lag_table``).  The xi-sum of the x0 term at entry (p, q)
depends only on the lag p - q, so each lag diagonal of the anti-Wick
operator is one gemm over the centers.  The Weyl operator is built from
K(x, y) = (2 pi h)^{-1} int a((x+y)/2, xi) e^{i(x-y)xi/h} dxi with momentum
nodes dense enough that the discrete kernel has no replica within the box;
entry (p, q) reads the same sums at lag p - q and midpoint index p + q only.

Matrix-valued symbols quantize entrywise against the scalar projector
weights.  A periodized circle variant backs the propagator-factorization
experiment; coherent states are wrapped by summing nearby periodic images
(a single image survives the tail truncation for h <= 0.15), and it runs
the same core on the grid unrolled by one window past each end, then folds.
Fourier multipliers on a periodic grid are ``circulant`` gathers; the module
runs on numpy alone and never loads scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import KW_ONLY, dataclass

import numpy as np

TAIL_CUT = 8.0  # Gaussian tails kept out to TAIL_CUT * sqrt(h)
NODE_SPACING = 0.25  # phase-space quadrature spacing in units of sqrt(h)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-L, L] with semiclassical parameter h.

    Spacing must resolve the coherent-state width (dx <= sqrt(h)/4) and the
    momentum cutoff must cover the symbols of interest (xi_max >= 3 covers
    supports within |xi| <= 3/2 with room for Gaussian tails).
    """

    L: float
    points: int
    h: float
    xi_max: float = 3.0

    def __post_init__(self):
        if not (self.h > 0 and self.L > 0) or self.points < 8:
            raise ValueError("need h > 0, L > 0 and a non-trivial grid")
        if self.dx > math.sqrt(self.h) / 4.0 + 1e-12:
            raise ValueError(
                f"grid spacing {self.dx:.4g} does not resolve sqrt(h)/4 = "
                f"{math.sqrt(self.h)/4:.4g}")
        if not self.xi_max >= 3.0:
            raise ValueError("xi_max must be at least 3")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.points

    @property
    def x(self) -> np.ndarray:
        return -self.L + (np.arange(self.points) + 0.5) * self.dx

    @property
    def nyquist(self) -> float:
        """Half-width of the momentum band the grid represents, pi h / dx."""
        return math.pi * self.h / self.dx

    @classmethod
    def build(cls, L: float, h: float, xi_max: float = 3.0) -> "GridSpec":
        """Choose the point count so the Nyquist band clears xi_max + tails."""
        for name, value in (("h", h), ("L", L), ("xi_max", xi_max)):
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        dx = min(math.sqrt(h) / 4.0, math.pi * h / (xi_max + TAIL_CUT * math.sqrt(h)))
        if not math.isfinite(2.0 * L / dx):
            raise ValueError(f"the grid point count 2L/dx overflows at h={h}, L={L}, xi_max={xi_max}")
        return cls(L, int(math.ceil(2.0 * L / dx)), h, xi_max)


@dataclass(frozen=True)
class Symbol:
    """A phase-space symbol (x, xi) -> scalar or n x n matrix.

    ``fn`` must broadcast over numpy arrays.  The keyword-only ``mollified``
    optionally maps h to the Gaussian-mollified symbol (variance h/2 per
    phase-space coordinate), which is what anti-Wick quantization sees.
    """

    fn: callable
    n: int = 1
    _: KW_ONLY
    mollified: callable = None
    label: str = ""

    def __call__(self, x, xi):
        return self.fn(x, xi)


def symbol_one() -> Symbol:
    return Symbol(lambda x, xi: np.ones(np.broadcast(x, xi).shape), 1,
                  mollified=lambda h: symbol_one(), label="1")


def symbol_harmonic() -> Symbol:
    """x^2 + xi^2; its mollification is exactly x^2 + xi^2 + h."""
    return Symbol(lambda x, xi: x * x + xi * xi, 1, label="x^2+xi^2",
                  mollified=lambda h: Symbol(lambda x, xi: x * x + xi * xi + h, 1,
                                             label="x^2+xi^2+h"))


def symbol_cos_x() -> Symbol:
    """cos x; Gaussian x-mollification scales it by exp(-h/4)."""
    return Symbol(lambda x, xi: np.cos(x) + 0.0 * xi, 1, label="cos x",
                  mollified=lambda h: Symbol(lambda x, xi: math.exp(-h / 4.0) * np.cos(x) + 0.0 * xi,
                                             1, label="exp(-h/4)cos x"))


def symbol_xi() -> Symbol:
    return Symbol(lambda x, xi: xi + np.zeros_like(x), 1,
                  mollified=lambda h: symbol_xi(), label="xi")


def coherent_state(x0: float, xi0: float, grid: GridSpec) -> np.ndarray:
    """Sampled Gaussian wave packet (h pi)^{-1/4} e^{-(x0-y)^2/2h} e^{i y xi0/h}.

    Warns when the Gaussian mass inside the box drops below 1 - 1e-12,
    i.e. when the center sits too close to a boundary.
    """
    h = grid.h
    y = grid.x
    g = (h * math.pi) ** (-0.25) * np.exp(-((y - x0) ** 2) / (2.0 * h))
    state = g * np.exp(1j * y * xi0 / h)
    mass = float(np.sum(g * g) * grid.dx)
    if mass < 1.0 - 1e-12:
        warnings.warn(f"coherent state at x0={x0:.3f} loses mass {1.0 - mass:.2e} "
                      "outside the box", stacklevel=2)
    return state


def _midpoints(half: float, s: float):
    """Midpoint nodes tiling [-half, half] at spacing at most s, and the spacing."""
    num = int(math.ceil(2.0 * half / s))
    step = 2.0 * half / num
    return -half + (np.arange(num) + 0.5) * step, step


def _aw_nodes(grid: GridSpec):
    """Phase-space quadrature nodes: x beyond the box by the tail cut, xi
    tiling exactly one Nyquist period (alias tiling makes Op_AW(1) = Id)."""
    h = grid.h
    s = NODE_SPACING * math.sqrt(h)
    xs, wx = _midpoints(grid.L + TAIL_CUT * math.sqrt(h), s)
    if grid.nyquist < grid.xi_max:
        raise ValueError("grid Nyquist band does not cover xi_max; refine the grid")
    xis, sxi = _midpoints(grid.nyquist, s)
    return xs, xis, wx * sxi / (2.0 * math.pi * h)


def _lag_table(symbol: Symbol, centers, lags, xis, weight: float, at=None) -> np.ndarray:
    """weight * sum_k a(c, xi_k) e^{i m dx xi_k / h} for every integer lag m and center c,
    or, with center indices ``at`` broadcasting against ``lags``, at (lags[j], centers[at[j]]).

    Precondition: ``xis`` are the K nodes ``_midpoints(nyquist, s)`` of the grid,
    so dx xi_k / h = pi (2k + 1 - K) / K and the sum is
    (-1)^m e^{i pi m / K} K ifft(a(c, xi))[m mod K]: one length-K FFT per
    center, exact for every integer m, also beyond one period.  One symbol call
    per build, on the whole (momentum, center) grid, lands in the array the FFT
    runs on.  Returns (len(lags), len(centers), n*n), or (*shape, n*n) with ``at``.
    """
    K, nn = len(xis), symbol.n ** 2
    m = np.arange(2 * K)  # the phase factor has period 2K in m
    phase = (weight * K) * np.where(m % 2, -1.0, 1.0) * np.exp(1j * math.pi * m / K)
    r = np.asarray(lags) % (2 * K)
    if at is None:
        r, at = r[:, None], np.arange(len(centers))
    vals = np.asarray(symbol(centers, xis[:, None]), dtype=complex).reshape(K, len(centers), nn)
    T = np.fft.ifft(vals, axis=0, out=vals)[r % K, at]  # in place: one (K, C, nn) array
    T *= phase[r][..., None]
    return T


def _aw_core(symbol: Symbol, y, centers, lo, hi, xis, w, h, dx) -> np.ndarray:
    """sum_c dx (g_c g_c^T) o Toeplitz(t_c), term c on the window [lo_c, hi_c) of y.

    g_c is the Gaussian of center c and t_c(m) = w sum_k a(x_c, xi_k)
    e^{i m dx xi_k / h} its momentum sum at lag m, read from ``_lag_table``.
    Returns (n, len(y), n, len(y)): block (a, b) at [a, :, b, :].
    """
    N, n = len(y), symbol.n
    j = np.arange(N)[:, None]
    g = (h * math.pi) ** (-0.25) * np.exp(-((y[:, None] - centers) ** 2) / (2.0 * h))
    G = np.where((j >= lo) & (j < hi), g, 0.0)
    span = int(np.max(hi - lo))
    T = _lag_table(symbol, centers, np.arange(1 - span, span), xis, w * dx)
    # lags +m and -m side by side, as reals so each lag is one real gemm
    Tpm = np.concatenate([T[span - 1:], T[span - 1::-1]], axis=2).view(np.float64)
    op = np.zeros((n, N, n, N), dtype=complex)
    for m in range(span):
        i = np.arange(m, N)
        both = ((G[m:] * G[:N - m]) @ Tpm[m]).view(complex).reshape(N - m, 2, n, n)
        op[:, i, :, i - m] = both[:, 0]
        op[:, i - m, :, i] = both[:, 1]
    return op


def antiwick_build(symbol: Symbol, grid: GridSpec) -> np.ndarray:
    """Dense anti-Wick operator matrix (side points*n) by projector quadrature.

    Gaussians keep their continuum normalization, so centers near or beyond
    the box edge contribute only their small in-box tail.
    """
    y = grid.x
    xs, xis, w = _aw_nodes(grid)
    cut = TAIL_CUT * math.sqrt(grid.h)
    lo = np.searchsorted(y, xs - cut)
    hi = np.searchsorted(y, xs + cut, side="right")
    keep = hi > lo
    op = _aw_core(symbol, y, xs[keep], lo[keep], hi[keep], xis, w, grid.h, grid.dx)
    return op.reshape(symbol.n * grid.points, -1)


def weyl_build(symbol: Symbol, grid: GridSpec) -> np.ndarray:
    """Dense Weyl operator matrix from midpoint kernel quadrature."""
    h, dx = grid.h, grid.dx
    P, n = grid.points, symbol.n
    s_rep = 2.0 * math.pi * h / (4.0 * grid.L + 1.0)  # no kernel replica within the box
    xis, sxi = _midpoints(grid.nyquist, min(NODE_SPACING * math.sqrt(h), s_rep))
    mids = -grid.L + (np.arange(2 * P - 1) + 1) * (0.5 * dx)  # (y_p + y_q)/2 at p + q
    p = np.arange(P)[:, None]
    K = _lag_table(symbol, mids, p - p.T, xis, dx * sxi / (2.0 * math.pi * h), at=p + p.T)
    return K.reshape(P, P, n, n).transpose(2, 0, 3, 1).reshape(n * P, n * P)


def circulant(c: np.ndarray) -> np.ndarray:
    """The matrix with first column c, entry (i, j) = c[(i - j) mod P]: a Fourier
    multiplier on a periodic grid of P points is circulant(ifft(multiplier)).
    Gathers the same entries as ``scipy.linalg.circulant``."""
    i = np.arange(len(c))
    return c[(i[:, None] - i) % len(c)]


def certified_compressor(grid: GridSpec) -> np.ndarray:
    """Projector-like cutoff onto the phase-space region the grid certifies.

    Smooth position window inside the box and smooth momentum window inside
    [-xi_max, xi_max]; quantization comparisons are made on this range,
    away from box edges and the Nyquist band edge where any discrete
    quantization degrades.
    """
    h = grid.h
    y = grid.x
    r = 2.0 * math.sqrt(h)

    def window(u, lo, hi):
        w = np.ones_like(u)
        w = np.where(u < lo, 0.0, w)
        w = np.where(u > hi, 0.0, w)
        ramp_lo = (u >= lo) & (u < lo + r)
        ramp_hi = (u > hi - r) & (u <= hi)
        w[ramp_lo] = np.sin(0.5 * math.pi * (u[ramp_lo] - lo) / r) ** 2
        w[ramp_hi] = np.sin(0.5 * math.pi * (hi - u[ramp_hi]) / r) ** 2
        return w

    margin = (TAIL_CUT + 2.0) * math.sqrt(h)
    wx = window(y, -grid.L + margin, grid.L - margin)
    eta = 2.0 * math.pi * h * np.fft.fftfreq(grid.points, d=grid.dx)
    xi_cut = min(grid.xi_max, grid.nyquist - margin)
    weta = window(eta, -xi_cut, xi_cut)
    return wx[:, None] * circulant(np.fft.ifft(weta)) * wx[None, :]


def mollified_weyl_residual(symbol: Symbol, grid: GridSpec) -> float:
    """Relative gap ||Op_AW(a) - Op_W(a * eps)|| on the certified region.

    a * eps is the symbolically mollified symbol (symbols without one are
    rejected).  The difference is compressed away from box and momentum-band
    edges before taking the spectral norm; the denominator is the full
    ||Op_AW(a)||.
    """
    if symbol.mollified is None:
        raise ValueError("symbol has no symbolic mollification")
    if symbol.n != 1:
        raise ValueError("mollified comparison is implemented for scalar symbols")
    A = antiwick_build(symbol, grid)
    Wm = weyl_build(symbol.mollified(grid.h), grid)
    C = certified_compressor(grid)
    diff = C.conj().T @ (A - Wm) @ C
    denom = np.linalg.norm(A, ord=2)
    return float(np.linalg.norm(diff, ord=2) / denom)


def identity_error(grid: GridSpec) -> float:
    """Worst relative error of Op_AW(1) f = f over interior test states.

    The probes are coherent states placed 5 sqrt(h) or more inside the box
    with momenta across the covered band, and one smooth oscillating bump.
    """
    span = grid.L - 6.0 * math.sqrt(grid.h)
    if not span > 0.0:
        raise ValueError(f"no room for identity probes: L={grid.L} <= 6 sqrt(h), h={grid.h}")
    A = antiwick_build(symbol_one(), grid)
    ximax = grid.xi_max - 0.2
    probes = [coherent_state(x0, xi0, grid)
              for x0 in np.linspace(-span, span, 5)
              for xi0 in np.linspace(-ximax, ximax, 5)]
    y = grid.x
    probes.append(np.exp(-0.5 * (y / span) ** 2) * np.cos(3.0 * y))
    errors = np.array([np.linalg.norm(A @ f - f) / np.linalg.norm(f) for f in probes])
    if not np.all(np.isfinite(errors)):
        raise FloatingPointError("identity residual is not finite")
    return float(np.max(errors))


# ---------------------------------------------------------------------------
# periodized (circle) variant


@dataclass(frozen=True)
class CircleGrid:
    """Uniform grid on the circle [0, 2pi) for the periodized quantization."""

    points: int
    h: float

    def __post_init__(self):
        if self.points < 8 or not self.h > 0:
            raise ValueError("need points >= 8 and h > 0")
        if self.dx > math.sqrt(self.h) / 4.0 + 1e-12:
            raise ValueError("circle grid spacing does not resolve sqrt(h)/4")

    @property
    def dx(self) -> float:
        return 2.0 * math.pi / self.points

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.points) * self.dx

    @property
    def nyquist(self) -> float:
        return math.pi * self.h / self.dx  # = h * points / 2


def _fold(a: np.ndarray, P: int) -> np.ndarray:
    """Fold the last axis of a, the circle grid unrolled by W points, mod P."""
    W = (a.shape[-1] - P) // 2
    out = a[..., W:W + P].copy()
    out[..., P - W:] += a[..., :W]
    out[..., :W] += a[..., W + P:]
    return out


def antiwick_build_circle(symbol: Symbol, grid: CircleGrid) -> np.ndarray:
    """Periodized anti-Wick operator for scalar or matrix symbols.

    Coherent states are wrapped by summing periodic images; with tails
    truncated at 8 sqrt(h) < pi a single image reaches each grid point, so
    the wrapped Gaussian reduces to the Gaussian of the wrapped distance.
    The centers sit on the grid points; the grid is unrolled by one window
    on each side, so lags never alias, and the result is folded back mod P.
    """
    h, P, dx = grid.h, grid.points, grid.dx
    cut = TAIL_CUT * math.sqrt(h)
    if cut >= math.pi:
        raise ValueError("h too large for single-image periodization")
    xis, sxi = _midpoints(grid.nyquist, NODE_SPACING * math.sqrt(h))
    W = int(math.ceil(cut / dx))
    i0 = np.arange(P)
    op = _aw_core(symbol, np.arange(-W, P + W) * dx, grid.x, i0, i0 + 2 * W + 1, xis,
                  dx * sxi / (2.0 * math.pi * h), h, dx)
    return _fold(_fold(op, P).swapaxes(1, 3), P).swapaxes(1, 3).reshape(symbol.n * P, -1)
