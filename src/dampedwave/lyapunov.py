"""Finite-time cocycle bounds, Lyapunov spectra and essential band edges.

Two families of rates are estimated from the same trajectories, rays at the
wave speed 1 (the shell |xi|^2 = SHELL_ENERGY = 1/4 of the flow x + 2 xi t):

* uniform bounds: c_minus = -(1/T) max log ||G_T||_2 and
  c_plus = -(1/T) min log sigma_min(G_T) over energy-shell samples, whose
  T -> infinity limits confine all but finitely many eigenfrequencies;
* Lyapunov exponents via discrete QR (the log R-diagonals of G_T = QR over
  T), whose essential range over the shell gives the band that carries the
  spectral density.

All of them read one pass, ``_stream``, over the window transfer matrices
(``cocycle.window_products``, which clamps every window to
``cocycle.safe_cadence``).  The C bounds read the norms of the folded
compounds C_1, C_{n-1} and C_n of G_T, since
log sigma_min(G_T) = log |det G_T| - log ||C_{n-1}(G_T)||_2; the exponents
read one QR frame per window.  Nothing is inverted.  The essential inf/sup
are min/max over Monte-Carlo shell samples at finite horizon; half-horizon
values are carried along as a convergence diagnostic.  Everything is
sample-parallel and deterministic given the seed.  On a periodic orbit
``floquet_exponents`` reads the exponents off one monodromy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .cocycle import (_DEFAULT_GROUP, _compose, _mm, _scaled_reduce, log_norm2, plan_steps,
                      safe_cadence, window_products)
from .damping import DampingField
from .geometry import PhasePoint, phase_array, sample_shell

DEFAULT_HORIZON = 200.0
DEFAULT_DT = 1e-3
DEFAULT_SAMPLES = 64
DEFAULT_RENORM_EVERY = 250
SHELL_ENERGY = 0.25


@dataclass(frozen=True)
class FiniteTimeBounds:
    """Uniform finite-horizon decay bounds over a sample of the shell."""

    T: float
    c_minus: float
    c_plus: float
    sample_count: int


@dataclass(frozen=True)
class LyapunovSpectrum:
    """Discrete-QR exponents at horizon T, sorted ascending: the summed log
    R-diagonals of one QR frame per window, over T."""

    exponents: tuple
    T: float
    point: PhasePoint
    rank_ok: bool = True


@dataclass(frozen=True)
class BandEstimates:
    """C bounds and band edges computed from one set of trajectories."""

    c_minus: float
    c_plus: float
    lambda_minus: float
    lambda_plus: float
    T: float
    m: int
    diagnostics: dict = dataclass_field(default_factory=dict)


def _compound_batch(A: np.ndarray, combos: list) -> np.ndarray:
    """i-th compound matrices of a stack A (..., n, n): entries are the i x i
    minors indexed by row/column subsets, so the compound of a product is
    the product of compounds.  C_1(A) is A itself."""
    if len(combos[0]) == 1:
        return A
    idx = np.array(combos)
    return np.linalg.det(A[..., idx[:, None, :, None], idx[None, :, None, :]])


@dataclass(frozen=True)
class _Stream:
    """One ``_stream`` pass: ``compounds[i]`` is the (units, logs) batch of
    C_i(G_T); ``diag_logs`` (B, n) sums the log R-diagonals of one QR frame
    per window, and ``diag_half`` is that sum at ``half_time`` (zeros and T
    without a cadence); ``rank_ok`` is False after a zero R-diagonal."""

    compounds: dict
    diag_logs: np.ndarray
    diag_half: np.ndarray
    half_time: float
    window: int
    rank_ok: bool


def _stream(field: DampingField, points: list[PhasePoint], T: float, dt: float,
            orders=(), renorm_every: int | None = None) -> _Stream:
    """One pass over the transfer-matrix stream: compound products and a QR frame.

    For each i in ``orders`` the compounds of the window factors are folded
    into C_i(G_T) (C_i(AB) = C_i(A) C_i(B)).  Windows are ``renorm_every``
    steps, or ``_DEFAULT_GROUP`` when it is None, clamped to ``safe_cadence``
    here as ``window_products`` clamps them, since the half snapshot and
    ``window`` read the length that ran.  A given ``renorm_every`` also
    carries an orthonormal frame through the windows, one product and one
    QR each, whose log R-diagonals sum to those of G_T = QR.  The
    half-horizon snapshot is the running sum at the first window end at or
    after T/2.  In exact arithmetic nothing here depends on the window
    length; the clamp keeps rounding from making it so.
    """
    if not T > 0:
        raise ValueError(f"horizon T={T} must be positive")
    B, n = len(points), field.n
    M, h = plan_steps(T, dt)
    window = min(_DEFAULT_GROUP if renorm_every is None else renorm_every, safe_cadence(field, h))
    combos = {i: list(itertools.combinations(range(n), i)) for i in orders}
    acc = {i: (np.eye(len(c), dtype=complex), np.zeros(B)) for i, c in combos.items()}
    Q = np.broadcast_to(np.eye(n, dtype=complex), (B, n, n)).copy()
    diag_logs, diag_half, half_time, steps, rank_ok = np.zeros((B, n)), None, T, 0, True
    for W in window_products(field, phase_array(points), T, dt, window=window):
        acc = {i: _compose(*_scaled_reduce(_compound_batch(W, c)), *acc[i])
               for i, c in combos.items()}
        if renorm_every is None:
            continue
        k = W.shape[1]
        diag = np.empty((k, B, n))
        for j in range(k):
            Q, R = np.linalg.qr(_mm(W[:, j], Q))
            diag[j] = np.abs(np.einsum("bii->bi", R))
        rank_ok &= bool(np.all(diag > 0.0))
        # sequential sums from the running total, as one window at a time
        cums = np.cumsum([diag_logs, *np.log(np.maximum(diag, 1e-300))], axis=0)
        diag_logs = cums[-1]
        ends = np.minimum(steps + window * np.arange(1, k + 1), M)
        steps = ends[-1]
        hit = np.flatnonzero(ends * h >= 0.5 * T)
        if diag_half is None and hit.size:
            diag_half, half_time = cums[hit[0] + 1], float(ends[hit[0]] * h)
    return _Stream(acc, diag_logs, diag_logs if diag_half is None else diag_half, half_time,
                   window, rank_ok)


def _bound_orders(n: int) -> list:
    """Compound orders the C bounds read: 1, n - 1 and n."""
    return sorted({1, max(n - 1, 1), n})


def _log_sigma_extremes(compounds: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(B,) values of log ||G_T||_2 and log sigma_min(G_T) from the compounds
    of orders ``_bound_orders(n)``: log ||C_1||_2 and
    log |C_n| - log ||C_{n-1}||_2 (just log |G_T| when n = 1)."""
    top = log_norm2(*compounds[1])
    bottom = log_norm2(*compounds[n])
    if n > 1:
        bottom = bottom - log_norm2(*compounds[n - 1])
    return top, bottom


def _c_rates(compounds: dict, n: int, T: float) -> tuple[float, float]:
    """(c_minus, c_plus) over the points of a batch of compounds of G_T."""
    top, bottom = _log_sigma_extremes(compounds, n)
    return float(-np.max(top) / T), float(-np.min(bottom) / T)


def finite_time_bounds(field: DampingField, T: float, points: list[PhasePoint],
                       dt: float = DEFAULT_DT) -> FiniteTimeBounds:
    """C bounds over an explicit set of phase points (shell samples, a grid)."""
    if not points:
        raise ValueError("need at least one point")
    s = _stream(field, points, T, dt, _bound_orders(field.n))
    return FiniteTimeBounds(T, *_c_rates(s.compounds, field.n, T), len(points))


def lyapunov_spectrum(field: DampingField, point: PhasePoint, T: float, dt: float = DEFAULT_DT,
                      renorm_every: int = DEFAULT_RENORM_EVERY) -> LyapunovSpectrum:
    """Ascending discrete-QR exponents of the cocycle at `point` over horizon T."""
    if renorm_every is None:
        raise ValueError("renorm_every must be a window of >= 1 steps, got None")
    s = _stream(field, [point], T, dt, renorm_every=renorm_every)
    exps = np.sort(s.diag_logs / T, axis=1)[0]
    return LyapunovSpectrum(tuple(float(v) for v in exps), T, point, s.rank_ok)


def exterior_sums(field: DampingField, point: PhasePoint, T: float,
                  dt: float = DEFAULT_DT, i: int = 1) -> float:
    """(1/T) * sum of the top-i log singular values of G_T.

    Equals the sum of the i largest Lyapunov exponents in the long-time
    limit.  Computed as the growth rate of the i-th exterior power: the
    window transfer matrices are mapped to their i-th compounds and the
    scaled product's top singular value is read off, which stays accurate
    even when sigma_i/sigma_1 underflows a direct SVD of G_T.
    """
    if not 1 <= i <= field.n:
        raise ValueError(f"need 1 <= i <= {field.n}")
    return float(log_norm2(*_stream(field, [point], T, dt, (i,)).compounds[i])[0] / T)


def floquet_exponents(field: DampingField, points: list[PhasePoint], period: float,
                      dt: float = DEFAULT_DT) -> np.ndarray:
    """(B, n) ascending Floquet exponents of orbits that close after `period`.

    Top-i exponent sums are (1/period) log rho(C_i(M)), rho the spectral radius
    of the i-th compound of the monodromy M, folded from the window factors;
    ``eig`` of the raw M would lose eigenvalues below eps times the largest.
    """
    acc = _stream(field, points, period, dt, range(1, field.n + 1)).compounds.values()
    sums = np.stack([lg + np.log(np.max(np.abs(np.linalg.eigvals(u)), axis=-1)) for u, lg in acc], 1)
    return np.sort(np.diff(sums / period, axis=1, prepend=0.0), axis=1)


def band_estimates(field: DampingField, T: float = DEFAULT_HORIZON, m: int = DEFAULT_SAMPLES,
                   dt: float = DEFAULT_DT, seed: int = 0,
                   renorm_every: int = DEFAULT_RENORM_EVERY) -> BandEstimates:
    """C bounds and essential band edges from one set of shell trajectories.

    Sharing trajectories keeps the finite-horizon ordering
    c_minus <= -lambda_plus <= -lambda_minus <= c_plus meaningful without
    sampling noise between the two estimates.  The diagnostics name the
    shell samples (indices into ``sample_shell(m, SHELL_ENERGY, d, seed)``)
    that attain lambda_minus and lambda_plus, and the window that ran.
    """
    if m < 1:
        raise ValueError("need at least one sample")
    if renorm_every is None:
        raise ValueError("renorm_every must be a window of >= 1 steps, got None")
    points = sample_shell(m, SHELL_ENERGY, d=field.d, seed=seed)
    s = _stream(field, points, T, dt, _bound_orders(field.n), renorm_every)
    c_minus, c_plus = _c_rates(s.compounds, field.n, T)
    exps = np.sort(s.diag_logs / T, axis=1)
    exps_half = np.sort(s.diag_half / s.half_time, axis=1)
    lo, hi = int(np.argmin(exps[:, 0])), int(np.argmax(exps[:, -1]))
    lam_minus, lam_plus = float(exps[lo, 0]), float(exps[hi, -1])
    diagnostics = {
        "lambda_minus_sample": lo,
        "lambda_plus_sample": hi,
        "half_horizon": s.half_time,
        "lambda_minus_half": float(np.min(exps_half[:, 0])),
        "lambda_plus_half": float(np.max(exps_half[:, -1])),
        "max_exponent_drift": float(np.max(np.abs(exps - exps_half))),
        "rank_ok": s.rank_ok,
        "dt": dt,
        "seed": seed,
        "renorm_every": s.window,
        "source": "qr",
    }
    return BandEstimates(c_minus, c_plus, lam_minus, lam_plus, T, m, diagnostics)
