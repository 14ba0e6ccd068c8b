"""Hermitian-matrix-valued damping terms with finite Fourier support.

A damping field is a trigonometric polynomial

    a(x) = sum_{|k|_inf <= K} A_k exp(i k . x),   A_{-k} = A_k^dagger,

from the d-torus into the n x n Hermitian matrices.  Finite Fourier support
keeps the frequency-space assembly of the wave generator exactly banded and
makes line integrals along straight trajectories symbolic, which the cocycle
and spectrum modules rely on.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field as dataclass_field
from decimal import Decimal
from functools import cached_property

import numpy as np

from .geometry import mode_lattice

HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class ExtremalBounds:
    """Grid estimates of the extreme damping rates.

    ``a_minus`` is the smallest eigenvalue of a(x) over the grid, ``a_plus``
    the largest.  ``indefinite`` flags sign-indefinite damping (a_minus < 0),
    which is admitted but worth surfacing in reports.
    """

    a_minus: float
    a_plus: float
    grid_points: int = 0

    @property
    def indefinite(self) -> bool:
        return self.a_minus < 0.0


@dataclass(frozen=True)
class DampingField:
    """Trigonometric-polynomial damping x -> a(x), stored by Fourier modes.

    coeffs maps frequency tuples k (|k|_inf <= K) to complex n x n arrays.
    Construction enforces the conjugate symmetry A_{-k} = A_k^dagger, which
    is exactly pointwise Hermitianity of a, and rejects a frequency that is
    not d integral numbers (booleans included) or repeats, and any
    non-finite coefficient.
    """

    n: int
    d: int
    coeffs: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        for name in ("n", "d"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        clean = {}
        for key, A in self.coeffs.items():
            k = key if isinstance(key, tuple) else (key,)
            if len(k) != self.d:
                raise ValueError(f"frequency {k} does not match d={self.d}")
            if not all(not isinstance(c, bool) and (isinstance(c, numbers.Integral) or
                       isinstance(c, numbers.Real) and float(c).is_integer()) for c in k):
                raise ValueError(f"frequency {k} is not a tuple of integers")
            k = tuple(int(c) for c in k)
            big = max(k, key=abs)
            if abs(big) > sys.float_info.max:
                raise ValueError(f"frequency component {Decimal(big):.3g} is beyond the float range")
            if k in clean:
                raise ValueError(f"frequency {k} is repeated")
            A = np.asarray(A, dtype=complex)
            if A.shape != (self.n, self.n):
                raise ValueError(f"coefficient for {k} is not {self.n}x{self.n}")
            if not np.all(np.isfinite(A)):
                raise ValueError(f"coefficient for {k} is not finite")
            clean[k] = A
        for k, A in clean.items():
            mk = tuple(-c for c in k)
            B = clean.get(mk)
            if B is None:
                raise ValueError(f"missing conjugate coefficient for {k}")
            if np.max(np.abs(B - A.conj().T)) > HERMITIAN_TOL * (1 + np.max(np.abs(A))):
                raise ValueError(f"coefficients for {k}/{mk} are not conjugate adjoints")
        object.__setattr__(self, "coeffs", clean)

    @property
    def K(self) -> int:
        """Largest |k|_inf with a stored coefficient."""
        if not self.coeffs:
            return 0
        return max(max(abs(c) for c in k) for k in self.coeffs)

    @cached_property
    def norm_bound(self) -> float:
        """sum_k ||A_k||_2, a bound on ||a(x)||_2 over the whole manifold."""
        return float(np.sum(np.linalg.norm(self.modes()[1], ord=2, axis=(-2, -1))))

    def modes(self):
        """Stacked (frequencies, coefficients) in a fixed lexicographic order."""
        keys = sorted(self.coeffs)
        ks = np.array(keys, dtype=float).reshape(len(keys), self.d)
        if keys:
            As = np.array([self.coeffs[k] for k in keys])
        else:
            As = np.zeros((0, self.n, self.n), dtype=complex)
        return ks, As

    @classmethod
    def zero(cls, n: int = 1, d: int = 1) -> "DampingField":
        return cls(n, d, {(0,) * d: np.zeros((n, n), dtype=complex)})

    def at(self, x) -> np.ndarray:
        """Evaluate a at points of shape (..., d), or at a number on the circle, as
        (..., n, n) arrays symmetrized to (H + H^dagger)/2."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        ks, As = self.modes()
        H = np.tensordot(np.exp((1j * x) @ ks.T), As, axes=(-1, 0))
        return 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))

    def shifted(self, mu: float) -> "DampingField":
        """The field a + mu*Id (shifts every eigenvalue by mu)."""
        coeffs = dict(self.coeffs)
        zero = (0,) * self.d
        base = coeffs.get(zero, np.zeros((self.n, self.n), dtype=complex))
        coeffs[zero] = base + mu * np.eye(self.n)
        return DampingField(self.n, self.d, coeffs)

    def to_json(self) -> str:
        items = []
        for k in sorted(self.coeffs):
            A = self.coeffs[k]
            items.append({"k": list(k), "re": A.real.tolist(), "im": A.imag.tolist()})
        doc = {"n": self.n, "d": self.d, "K": self.K, "coeffs": items}
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DampingField":
        doc = json.loads(text)
        coeffs = {}
        for item in doc["coeffs"]:
            k = tuple(item["k"])
            if k in coeffs:
                raise ValueError(f"frequency {list(k)} is repeated")
            coeffs[k] = np.asarray(item["re"], dtype=float) + 1j * np.asarray(item["im"], dtype=float)
        return cls(doc["n"], doc["d"], coeffs)

    @classmethod
    def constant(cls, matrix, d: int = 1) -> "DampingField":
        """The constant field a(x) = matrix (must be Hermitian)."""
        A = np.atleast_2d(np.asarray(matrix, dtype=complex))
        return cls(A.shape[0], d, {(0,) * d: A})


def extremal_bounds(field: DampingField, grid_points: int | None = None) -> ExtremalBounds:
    """Estimate a_minus/a_plus by eigenvalue scans over a uniform grid.

    grid_points is per dimension and must be at least 2K+1 so the grid
    resolves the trig polynomial; the default is 8(K+1).
    """
    K = field.K
    if grid_points is None:
        grid_points = 8 * (K + 1)
    if grid_points < 2 * K + 1:
        raise ValueError(f"grid_points={grid_points} cannot resolve K={K}")
    grid = 2.0 * math.pi * np.arange(grid_points) / grid_points
    xs = np.stack(np.meshgrid(*([grid] * field.d), indexing="ij"), axis=-1).reshape(-1, field.d)
    w = np.linalg.eigvalsh(field.at(xs))
    return ExtremalBounds(float(w[:, 0].min()), float(w[:, -1].max()), grid_points)


def random_field(n: int, K: int, amplitude: float = 1.0, seed: int = 0, d: int = 1) -> DampingField:
    """Draw a random Hermitian trig-polynomial field, deterministic in seed.

    Coefficients for lexicographically positive k are independent complex
    Gaussians of scale amplitude (damped geometrically in |k|_inf so high
    modes stay subdominant); A_{-k} = A_k^dagger and A_0 is Hermitian.
    """
    if n < 1 or K < 0:
        raise ValueError("need n >= 1 and K >= 0")
    rng = np.random.default_rng(seed)
    coeffs = {}
    zero = (0,) * d
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    coeffs[zero] = amplitude * 0.5 * (G + G.conj().T)
    for k in map(tuple, mode_lattice(K, d).tolist()):
        if k <= zero:  # keep lexicographically positive representatives
            continue
        scale = amplitude * 0.5 ** max(abs(c) for c in k)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        coeffs[k] = 0.5 * scale * G
        coeffs[tuple(-c for c in k)] = coeffs[k].conj().T
    return DampingField(n, d, coeffs)


def one_plus_cos(d: int = 1) -> DampingField:
    """The scalar benchmark field a(x) = 1 + cos(x_1)."""
    zero = (0,) * d
    e1 = (1,) + (0,) * (d - 1)
    me1 = (-1,) + (0,) * (d - 1)
    one = np.array([[1.0 + 0j]])
    half = np.array([[0.5 + 0j]])
    return DampingField(1, d, {zero: one, e1: half, me1: half})
