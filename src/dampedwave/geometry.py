"""Flat model manifolds, the free Hamiltonian flow and energy-shell sampling.

Supported geometries are the circle R/2piZ and flat tori (R/2piZ)^d.  The
kinetic symbol is p(x, xi) = |xi|^2, whose Hamiltonian flow is the straight
line x_t = x_0 + 2 xi_0 t with constant momentum (geodesic flow travelled at
twice unit speed).  Because the flow is closed form there is no ODE solver
in this module; everything is exact.
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

    @property
    def volume(self) -> float:
        """Riemannian volume, (2*pi)^d."""
        return TWO_PI ** self.d


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

    def kinetic_energy(self) -> float:
        """p(x, xi) = |xi|^2."""
        return float(sum(v * v for v in self.xi))


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


def phase_volume(manifold: Manifold, level: str = "ball_01") -> float:
    """Phase-space volume of p^{-1}([0,1]) (``ball_01``) or the Liouville
    mass of the unit shell p^{-1}(1) (``shell_1``).

    For d = 1 the shell consists of the two branches xi = +-1 and each
    branch carries mass 2*pi (counting convention; no 1/|grad p| factor),
    so the circle shell has mass 4*pi.  For d >= 2 the shell mass is the
    coarea measure dS/|grad p| with |grad p| = 2 on the unit shell.
    """
    d = manifold.d
    if level == "ball_01":
        unit_ball = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
        return TWO_PI ** d * unit_ball
    if level == "shell_1":
        if d == 1:
            return 2.0 * TWO_PI
        sphere_area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        return TWO_PI ** d * sphere_area / 2.0
    raise ValueError(f"unknown level {level!r}")
