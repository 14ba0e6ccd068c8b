"""Finite-time cocycle bounds, Lyapunov spectra and essential band edges.

Two families of rates are estimated from the same trajectories:

* uniform bounds: c_minus = -(1/T) max log ||G_T||_2 and
  c_plus = -(1/T) min log sigma_min(G_T) over energy-shell samples, whose
  T -> infinity limits confine all but finitely many eigenfrequencies;
* Lyapunov exponents via discrete QR (re-orthonormalize a propagated frame
  once per group of ``renorm_every`` RK4 steps and average the log
  diagonal), whose essential range over the shell gives the band that
  carries the spectral density.

All of them read one fold of the window transfer matrices
(``cocycle.window_products``), ``_StreamStats``: it maps each window factor
to its i-th compounds C_i and folds them with ``cocycle._compose`` into
scaled (units, logs) arrays, whose norms come from ``cocycle.log_norm2``.
Every fold, with or without a QR frame, clamps its window (the QR group) to
the field's safe group length ``safe_cadence``.
The C bounds read orders 1, n - 1 and n, since
log sigma_min(G_T) = log |det G_T| - log ||C_{n-1}(G_T)||_2; nothing is
inverted.  The essential inf/sup are estimated by min/max over
Monte-Carlo shell samples at finite horizon; half-horizon values are carried
along as a convergence diagnostic.  Everything is sample-parallel and
deterministic given the seed.  On a periodic orbit ``floquet_exponents``
reads the exponents off one monodromy, with QR as its oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .cocycle import (_DEFAULT_GROUP, _compose, _mm, _scaled_reduce, log_norm2, plan_steps,
                      step_reach, window_products)
from .damping import DampingField
from .geometry import PhasePoint, phase_array, sample_shell

DEFAULT_HORIZON = 200.0
DEFAULT_DT = 1e-3
DEFAULT_SAMPLES = 64
DEFAULT_RENORM_EVERY = 250
#: bound on log cond of one QR group: 2 * sum_k ||A_k||_2 * (group duration)
_GROUP_LOG_COND = 18.0
SHELL_ENERGY = 0.5


@dataclass(frozen=True)
class FiniteTimeBounds:
    """Uniform finite-horizon decay bounds over a sample of the shell."""

    T: float
    c_minus: float
    c_plus: float
    sample_count: int


@dataclass(frozen=True)
class LyapunovSpectrum:
    """QR-estimated exponents at horizon T, sorted ascending."""

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


class _StreamStats:
    """One pass over the transfer-matrix stream: compound products and a QR frame.

    For each i in ``orders`` it keeps the scaled i-th compound C_i(G_T) per
    trajectory, folded from the compounds of the window factors
    (C_i(AB) = C_i(A) C_i(B)); ``compounds[i]`` is its (units, logs) batch.
    Norms of compounds give every singular-value rate without inverting
    anything, also where sigma_min/sigma_max is far below machine precision.
    Windows are ``renorm_every`` steps long, or ``_DEFAULT_GROUP`` when it is
    None, clamped to ``safe_cadence`` either way.  Only when ``renorm_every``
    is given does a QR-orthonormalized frame run along (otherwise the QR
    attributes stay at zero logs): its log
    diagonal accumulates the Lyapunov sums, with a snapshot near T/2.  The
    frame loop runs one product and one QR per window; the R diagonals of a
    chunk are logged and summed once per chunk, and the snapshot is the
    running sum at the first window end at or after T/2.

    The clamp gives every window product log-condition at most
    ``_GROUP_LOG_COND``, so its small directions survive until its compounds
    are formed and the QR sees it; ``self.renorm_every`` is the cadence that
    ran.  In exact arithmetic nothing read here depends on the window length
    (compounds and the R factors of successive QRs multiply), so the clamp
    only keeps rounding from making it depend on it.
    """

    def __init__(self, field: DampingField, points: list[PhasePoint], T: float, dt: float,
                 orders=(), renorm_every: int | None = None):
        B, n = len(points), field.n
        M, h = plan_steps(T, dt)
        combos = {i: list(itertools.combinations(range(n), i)) for i in orders}
        acc = {i: (np.eye(len(c), dtype=complex), np.zeros(B)) for i, c in combos.items()}
        Q = np.broadcast_to(np.eye(n, dtype=complex), (B, n, n)).copy()
        qr_logs = np.zeros((B, n))
        rank_ok = True
        windows_done = 0
        half_logs, half_time = None, None
        window = min(_DEFAULT_GROUP if renorm_every is None else renorm_every,
                     safe_cadence(field, h))
        if renorm_every is not None:
            renorm_every = window
        for W in window_products(field, phase_array(points), T, dt, window=window):
            acc = {i: _compose(*_scaled_reduce(_compound_batch(W, c)), *acc[i])
                   for i, c in combos.items()}
            if renorm_every is None:
                continue
            k = W.shape[1]
            diag = np.empty((k, B, n), dtype=complex)
            for i in range(k):
                Q, R = np.linalg.qr(_mm(W[:, i], Q))
                diag[i] = np.einsum("bii->bi", R)
            diag = np.abs(diag)
            if np.any(diag == 0.0):
                rank_ok = False
                diag = np.maximum(diag, 1e-300)
            # sequential sums from the running total, as one window at a time
            cums = np.cumsum(np.concatenate([qr_logs[None], np.log(diag)]), axis=0)
            qr_logs = cums[-1]
            if half_logs is None:
                ends = np.minimum(renorm_every * np.arange(windows_done + 1,
                                                           windows_done + k + 1), M)
                hit = np.flatnonzero(ends * h >= 0.5 * T)
                if hit.size:
                    half_logs = cums[hit[0] + 1].copy()
                    half_time = float(ends[hit[0]] * h)
            windows_done += k
        self.T = T
        self.renorm_every = renorm_every
        self.compounds = acc
        self.qr_logs = qr_logs
        self.half_logs = half_logs if half_logs is not None else qr_logs.copy()
        self.half_time = half_time if half_time is not None else T
        self.rank_ok = rank_ok

    def exponents(self) -> np.ndarray:
        """(B, n) ascending QR exponents at the full horizon."""
        return np.sort(self.qr_logs / self.T, axis=1)

    def exponents_half(self) -> np.ndarray:
        return np.sort(self.half_logs / self.half_time, axis=1)


def safe_cadence(field: DampingField, h: float) -> int | float:
    """Longest QR group, in RK4 steps of size h, whose product has
    log-condition at most ``_GROUP_LOG_COND``: 2 * sum_k ||A_k||_2 * tau
    bounds it over a group of duration tau.  Unbounded (inf) for a zero field."""
    reach = step_reach(field, h)
    if reach == 0.0:
        return math.inf
    return max(1, math.floor(0.5 * _GROUP_LOG_COND / reach))


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
    if T <= 0:
        raise ValueError("T must be positive")
    if not points:
        raise ValueError("need at least one point")
    stats = _StreamStats(field, points, T, dt, _bound_orders(field.n))
    return FiniteTimeBounds(T, *_c_rates(stats.compounds, field.n, T), len(points))


def lyapunov_spectrum(field: DampingField, point: PhasePoint, T: float,
                      dt: float = DEFAULT_DT,
                      renorm_every: int = DEFAULT_RENORM_EVERY) -> LyapunovSpectrum:
    """Ascending QR exponents of the cocycle at `point` over horizon T."""
    if T <= 0:
        raise ValueError("T must be positive")
    stats = _StreamStats(field, [point], T, dt, renorm_every=renorm_every)
    exps = stats.exponents()[0]
    return LyapunovSpectrum(tuple(float(v) for v in exps), T, point, stats.rank_ok)


def exterior_sums(field: DampingField, point: PhasePoint, T: float,
                  dt: float = DEFAULT_DT, i: int = 1) -> float:
    """(1/T) * sum of the top-i log singular values of G_T.

    Equals the sum of the i largest Lyapunov exponents in the long-time
    limit.  Computed as the growth rate of the i-th exterior power: the
    window transfer matrices are mapped to their i-th compounds and the
    scaled product's top singular value is read off, which stays accurate
    even when sigma_i/sigma_1 underflows a direct SVD of G_T.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if not 1 <= i <= field.n:
        raise ValueError(f"need 1 <= i <= {field.n}")
    stats = _StreamStats(field, [point], T, dt, (i,))
    return float(log_norm2(*stats.compounds[i])[0] / T)


def floquet_exponents(field: DampingField, points: list[PhasePoint], period: float,
                      dt: float = DEFAULT_DT) -> np.ndarray:
    """(B, n) ascending Floquet exponents of orbits that close after `period`.

    Top-i exponent sums are (1/period) log rho(C_i(M)), rho the spectral radius
    of the i-th compound of the monodromy M, folded from the window factors;
    ``eig`` of the raw M would lose eigenvalues below eps times the largest.
    """
    if not period > 0:
        raise ValueError("period must be positive")
    acc = _StreamStats(field, points, period, dt, range(1, field.n + 1)).compounds.values()
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
    that attain lambda_minus and lambda_plus, and the QR cadence that ran.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if m < 1:
        raise ValueError("need at least one sample")
    points = sample_shell(m, SHELL_ENERGY, d=field.d, seed=seed)
    stats = _StreamStats(field, points, T, dt, _bound_orders(field.n), renorm_every)
    c_minus, c_plus = _c_rates(stats.compounds, field.n, T)
    exps = stats.exponents()
    exps_half = stats.exponents_half()
    lo, hi = int(np.argmin(exps[:, 0])), int(np.argmax(exps[:, -1]))
    lam_minus, lam_plus = float(exps[lo, 0]), float(exps[hi, -1])
    diagnostics = {
        "lambda_minus_sample": lo,
        "lambda_plus_sample": hi,
        "half_horizon": stats.half_time,
        "lambda_minus_half": float(np.min(exps_half[:, 0])),
        "lambda_plus_half": float(np.max(exps_half[:, -1])),
        "max_exponent_drift": float(np.max(np.abs(exps - exps_half))),
        "rank_ok": stats.rank_ok,
        "dt": dt,
        "seed": seed,
        "renorm_every": stats.renorm_every,
        "source": "qr",
    }
    return BandEstimates(c_minus, c_plus, lam_minus, lam_plus, T, m, diagnostics)

