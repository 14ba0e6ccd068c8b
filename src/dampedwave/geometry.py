"""Flat model manifolds, the free Hamiltonian flow and energy-shell sampling.

Supported geometries are the circle R/2piZ and flat tori (R/2piZ)^d.  The
kinetic symbol is p(x, xi) = |xi|^2, whose Hamiltonian flow is the straight
line x_t = x_0 + 2 xi_0 t with constant momentum: speed 2|xi|, so the shell
|xi|^2 = 1/4 moves at the wave speed 1.  Because the flow is closed form
there is no ODE solver in this module; everything is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Manifold:
    """A flat model manifold: ``circle`` (d = 1) or ``flat_torus`` (d >= 1)."""

    kind: str = "circle"
    d: int = 1

    def __post_init__(self):
        if self.kind not in ("circle", "flat_torus"):
            raise ValueError(f"unknown manifold kind {self.kind!r}")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind == "circle" and self.d != 1:
            raise ValueError("circle forces d = 1")


def mode_lattice(N: int, d: int) -> np.ndarray:
    """All frequency vectors k in Z^d with |k|_inf <= N, lexicographically sorted, as (M, d) ints."""
    return np.indices((2 * N + 1,) * d).reshape(d, -1).T - N


def _reduce_angles(x) -> np.ndarray:
    return np.mod(np.asarray(x, dtype=float), TWO_PI)


@dataclass(frozen=True)
class PhasePoint:
    """A cotangent point (x, xi); angles are stored reduced to [0, 2pi)."""

    x: tuple
    xi: tuple

    def __post_init__(self):
        x = _reduce_angles(self.x)
        xi = np.asarray(self.xi, dtype=float)
        if x.shape != xi.shape or x.ndim != 1:
            raise ValueError("x and xi must be 1-d tuples of equal length")
        if not np.all(np.isfinite(xi)):
            raise ValueError("momentum must be finite")
        object.__setattr__(self, "x", tuple(x))
        object.__setattr__(self, "xi", tuple(xi))

    @property
    def d(self) -> int:
        return len(self.x)


def phase_array(points) -> np.ndarray:
    """Phase points as one float array (B, 2, d) whose row b is (x, xi) of points[b]."""
    return np.array([(p.x, p.xi) for p in points], dtype=float)


def flow(point: PhasePoint, t: float) -> PhasePoint:
    """Hamiltonian flow of |xi|^2 for time t: x -> x + 2 xi t, xi unchanged."""
    x = np.asarray(point.x) + 2.0 * t * np.asarray(point.xi)
    return PhasePoint(tuple(_reduce_angles(x)), point.xi)


def sample_shell(m: int, E: float, d: int = 1, seed: int = 0) -> list[PhasePoint]:
    """Draw m points of the Liouville measure on the energy shell |xi|^2 = E.

    Positions are uniform on the torus; momenta are uniform on the radius
    sqrt(E) sphere (for d = 1 the two momenta +-sqrt(E), equally likely).
    Sample i depends only on (seed, i), so partial or parallel generation by
    index yields the same sequence.
    """
    if m < 1:
        raise ValueError("need m >= 1 samples")
    if E <= 0.0:
        raise ValueError("shell energy must be positive")
    r = math.sqrt(E)
    points = []
    for i in range(m):
        rng = np.random.default_rng((seed, i))
        x = rng.uniform(0.0, TWO_PI, size=d)
        if d == 1:
            xi = np.array([r if rng.uniform() < 0.5 else -r])
        else:
            g = rng.standard_normal(d)
            while np.linalg.norm(g) < 1e-12:  # pragma: no cover
                g = rng.standard_normal(d)
            xi = r * g / np.linalg.norm(g)
        points.append(PhasePoint(tuple(x), tuple(xi)))
    return points
