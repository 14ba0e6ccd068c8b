"""Counting functions and band statistics over computed spectra.

Only the reliable part of a spectrum (|Re tau| below the certified cutoff
fraction) enters any statistic here.  Eigenfrequencies on the imaginary
axis are self-paired under the tau -> -conj(tau) symmetry and are counted
with weight 1/2, which makes window counts additive across block-diagonal
problems and keeps the undamped circle count at 2*lambda + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .geometry import Manifold
from .spectrum import EDGE_TOL, SpectrumSet

#: |Re tau| below this is treated as "on the imaginary axis"
AXIS_TOL = 1e-7
#: most Re-windows ``band_outliers`` tiles; each is one pass over the reliable set
MAX_WINDOWS = 10**5


@dataclass(frozen=True)
class WindowCount:
    re_min: float
    re_max: float
    total: float
    outliers_above: float
    outliers_below: float

    @property
    def outliers(self) -> float:
        return self.outliers_above + self.outliers_below


@dataclass(frozen=True)
class BandReport:
    """Per-window census of eigenvalues against a horizontal band."""

    lambda_minus: float
    lambda_plus: float
    epsilon: float
    windows: list
    weyl: dict = dataclass_field(default_factory=dict)
    c_minus: float | None = None
    c_plus: float | None = None


def _weights(taus: np.ndarray) -> np.ndarray:
    """Count weight per eigenvalue: 1/2 on the imaginary axis, else 1."""
    return np.where(np.abs(taus.real) <= AXIS_TOL, 0.5, 1.0)


def _require_positive(name: str, value: float):
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def counting(spectrum: SpectrumSet, lam: float) -> int:
    """Number of reliable eigenvalues with Re tau in [0, lam]."""
    _require_positive("lambda", lam)
    if lam > spectrum.reliable_limit * (1.0 + EDGE_TOL) + EDGE_TOL:
        raise ValueError(
            f"lambda={lam} exceeds the reliable limit {spectrum.reliable_limit}")
    taus = spectrum.reliable()
    sel = (taus.real >= -AXIS_TOL) & (taus.real <= lam + EDGE_TOL * (1.0 + lam))
    return int(round(float(np.sum(_weights(taus[sel])))))


def weyl_prediction(n: int, manifold: Manifold, lam: float) -> float:
    """Leading-order count n (lam/2pi)^d vol(p^{-1}([0,1])).

    The phase-space volume is (2 pi)^d times the unit-ball volume, so the
    (2 pi)^d factors cancel algebraically and the circle value is exactly
    2 n lam (d = 2 torus: pi n lam^2).
    """
    _require_positive("lambda", lam)
    d = manifold.d
    if d == 1:
        unit_ball = 2.0
    elif d == 2:
        unit_ball = math.pi
    else:
        unit_ball = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    return n * lam**d * unit_ball


def weyl_report(spectrum: SpectrumSet, lam: float | None = None) -> dict:
    """Counting vs prediction at lam (default: the reliable limit)."""
    if lam is None:
        lam = spectrum.reliable_limit
    manifold = Manifold(spectrum.meta.get("manifold", "circle"), spectrum.meta.get("d", 1))
    n = spectrum.meta.get("n", 1)
    count = counting(spectrum, lam)
    pred = weyl_prediction(n, manifold, lam)
    return {"lambda": lam, "count": count, "prediction": pred,
            "ratio": count / pred if pred else math.inf}


def strip_outliers(spectrum: SpectrumSet, c_minus: float, c_plus: float,
                   margin: float, re_min: float = 0.0) -> np.ndarray:
    """Reliable tau with Re >= re_min outside the widened confinement strip."""
    _require_positive("margin", margin)
    taus = spectrum.reliable()
    taus = taus[taus.real >= re_min]
    outside = (taus.imag < c_minus - margin) | (taus.imag > c_plus + margin)
    return taus[outside]


def band_outliers(spectrum: SpectrumSet, lambda_minus: float, lambda_plus: float,
                  epsilon: float, window_width: float = 1.0,
                  c_minus: float | None = None, c_plus: float | None = None) -> BandReport:
    """Window-by-window count of eigenvalues escaping the density band.

    The band is ]-lambda_plus - epsilon, -lambda_minus + epsilon[ in Im tau;
    windows of the given width tile [0, reliable_limit] along Re tau.  The
    expected signature on the circle is outlier counts per window dying out
    as the window moves right.
    """
    _require_positive("epsilon", epsilon)
    _require_positive("window_width", window_width)
    lo = -lambda_plus - epsilon
    hi = -lambda_minus + epsilon
    taus = spectrum.reliable()
    limit = spectrum.reliable_limit
    count = (limit - EDGE_TOL) / window_width
    if count > MAX_WINDOWS:
        raise ValueError(f"window_width={window_width:g} tiles [0, {limit:g}] in {count:.3g} "
                         f"windows, more than {MAX_WINDOWS}")
    windows = []
    start = 0.0
    while start < limit - EDGE_TOL:
        end = min(start + window_width, limit)
        last = end >= limit - EDGE_TOL
        sel = (taus.real >= start) & ((taus.real <= end + EDGE_TOL) if last else (taus.real < end))
        w = _weights(taus[sel])
        above = float(np.sum(w[taus[sel].imag >= hi]))
        below = float(np.sum(w[taus[sel].imag <= lo]))
        windows.append(WindowCount(start, end, float(np.sum(w)), above, below))
        start = end
    return BandReport(lambda_minus, lambda_plus, epsilon, windows,
                      weyl=weyl_report(spectrum), c_minus=c_minus, c_plus=c_plus)


@dataclass(frozen=True)
class ClusterHistogram:
    """Histogram of Im tau inside a Re window, with optional cluster masses."""

    window: tuple
    counts: np.ndarray
    edges: np.ndarray
    cluster_masses: dict = dataclass_field(default_factory=dict)

    @property
    def total(self) -> int:
        return int(np.sum(self.counts))


def cluster_histogram(spectrum: SpectrumSet, window: tuple, bins: int = 20,
                      exponents=None, epsilon: float = 0.1) -> ClusterHistogram:
    """Distribution of Im tau for reliable tau with Re tau in the window.

    When Lyapunov exponents are supplied, also reports the fraction of the
    window's eigenvalues within epsilon of each -lambda_i (the expected
    cluster centers if eigenvalues split between the exponents).
    """
    re_min, re_max = window
    if re_max > spectrum.reliable_limit * (1.0 + EDGE_TOL) + EDGE_TOL:
        raise ValueError("window exceeds the reliable set")
    taus = spectrum.reliable()
    taus = taus[(taus.real >= re_min) & (taus.real <= re_max)]
    if taus.size == 0:
        return ClusterHistogram(window, np.zeros(0, dtype=int), np.zeros(0))
    lo, hi = float(taus.imag.min()), float(taus.imag.max())
    if hi - lo <= EDGE_TOL:  # a spread of a few ulps is one point: numpy's unit-width range
        lo, hi = 0.5 * (lo + hi) - 0.5, 0.5 * (lo + hi) + 0.5
    counts, edges = np.histogram(taus.imag, bins=bins, range=(lo, hi))
    masses = {} if exponents is None else {
        float(lam): float(np.mean(np.abs(taus.imag + lam) <= epsilon)) for lam in exponents}
    return ClusterHistogram(window, counts, edges, masses)


def format_band_table(report: BandReport) -> str:
    """Fixed-width text rendering of a band report."""
    lines = []
    lo = -report.lambda_plus - report.epsilon
    hi = -report.lambda_minus + report.epsilon
    lines.append(f"band ]{lo:+.6f}, {hi:+.6f}[ in Im tau  (eps={report.epsilon:g})")
    if report.c_minus is not None:
        lines.append(f"confinement strip [{report.c_minus:+.6f}, {report.c_plus:+.6f}]")
    w = report.weyl
    if w:
        lines.append(f"weyl lambda={w['lambda']:g} count={w['count']} "
                     f"prediction={w['prediction']:.3f} ratio={w['ratio']:.4f}")
    lines.append(f"{'re_min':>10} {'re_max':>10} {'total':>9} {'above':>7} {'below':>7}")
    for win in report.windows:
        lines.append(f"{win.re_min:>10.3f} {win.re_max:>10.3f} {win.total:>9.1f} "
                     f"{win.outliers_above:>7.1f} {win.outliers_below:>7.1f}")
    return "\n".join(lines)
