"""Fourier-Galerkin discretization of the damped wave generator.

The first-order generator acts on (u, v) pairs as [[0, Id], [Lap, -2a]];
in the Fourier basis of a flat model the Laplacian block is the diagonal
-|k|^2 and multiplication by a trig-polynomial damping is the exactly banded
block Toeplitz with blocks A_{k_row - k_col}.  Eigenvalues mu of the
discretized generator map to eigenfrequencies tau = -i mu of the quadratic
pencil.  Galerkin truncation corrupts the highest retained modes, so only
|Re tau| <= reliable_limit (a configurable fraction of the cutoff, certified
by ``convergence_check``) is trusted downstream.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .damping import DampingField
from .geometry import Manifold

SIDE_CAP = 6000
DEFAULT_RELIABILITY = 0.5
#: slack applied to window/limit comparisons so eigenvalues sitting exactly
#: on a boundary (tau = +-k for undamped modes) are not lost to rounding
EDGE_TOL = 1e-9


@dataclass(frozen=True)
class DiscretizedGenerator:
    """Dense Galerkin matrix of the generator with its mode bookkeeping."""

    N: int
    n: int
    manifold: Manifold
    matrix: np.ndarray
    modes: np.ndarray  # (M, d) integer frequency vectors, lexicographic

    @property
    def side(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectrumSet:
    """Multiset of pencil eigenvalues tau with discretization metadata.

    ``taus`` holds every eigenvalue of the truncated generator mapped by
    tau = -i mu, sorted by real part; only entries with
    |Re tau| <= reliable_limit are certified against truncation effects.
    """

    taus: np.ndarray
    N: int
    reliable_limit: float
    meta: dict = dataclass_field(default_factory=dict)

    def reliable(self) -> np.ndarray:
        limit = self.reliable_limit * (1.0 + EDGE_TOL) + EDGE_TOL
        return self.taus[np.abs(self.taus.real) <= limit]

    def to_csv(self) -> str:
        lines = ["re_tau,im_tau"]
        for t in self.reliable():
            lines.append(f"{t.real:.17g},{t.imag:.17g}")
        return "\n".join(lines) + "\n"

    def metadata_json(self) -> str:
        doc = dict(self.meta)
        doc.update({"N": self.N, "reliable_limit": self.reliable_limit,
                    "count_total": int(self.taus.size),
                    "count_reliable": int(self.reliable().size)})
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def mode_lattice(manifold: Manifold, N: int) -> np.ndarray:
    """All frequency vectors with |k|_inf <= N, lexicographically sorted."""
    rng = range(-N, N + 1)
    return np.array(sorted(itertools.product(*([rng] * manifold.d))), dtype=int)


def multiplication_blocks(field: DampingField, modes: np.ndarray) -> np.ndarray:
    """Block matrix of pointwise multiplication by a in the Fourier basis.

    Block (row, col) is A_{k_row - k_col}; exact (banded) for trig
    polynomials.  Also serves as the quadratic form of the damping on
    velocity coefficients.
    """
    n = field.n
    M = len(modes)
    index = {tuple(k): i for i, k in enumerate(modes)}
    out = np.zeros((M * n, M * n), dtype=complex)
    for k_c, A in field.coeffs.items():
        for col, k_m in enumerate(index):
            target = tuple(kc + km for kc, km in zip(k_c, k_m))
            row = index.get(target)
            if row is not None:
                out[row * n:(row + 1) * n, col * n:(col + 1) * n] += A
    return out


def assemble(field: DampingField, manifold: Manifold, N: int) -> DiscretizedGenerator:
    """Exact Galerkin matrix of [[0, Id], [Lap, -2a]] at cutoff |k|_inf <= N."""
    if field.d != manifold.d:
        raise ValueError("damping dimension does not match the manifold")
    K = field.K
    if N < K:
        raise ValueError(f"cutoff N={N} cannot hold the damping band K={K}")
    modes = mode_lattice(manifold, N)
    M = len(modes)
    n = field.n
    side = 2 * n * M
    if side > SIDE_CAP:
        raise ValueError(
            f"matrix side {side} = 2*{n}*{M} exceeds the dense cap {SIDE_CAP}; "
            f"reduce N or n")
    lap = -np.sum(modes.astype(float) ** 2, axis=1)
    mat = np.zeros((side, side), dtype=complex)
    mat[: M * n, M * n:] = np.eye(M * n)
    mat[M * n:, : M * n] = np.kron(np.diag(lap), np.eye(n))
    mat[M * n:, M * n:] = -2.0 * multiplication_blocks(field, modes)
    return DiscretizedGenerator(N, n, manifold, mat, modes)


def _field_hash(field: DampingField) -> str:
    return hashlib.sha256(field.to_json().encode()).hexdigest()[:16]


def eigenvalues_tau(gen: DiscretizedGenerator, reliability_fraction: float = DEFAULT_RELIABILITY,
                    field: DampingField | None = None) -> SpectrumSet:
    """Dense eigendecomposition of the generator, mapped to tau = -i mu."""
    if not 0.0 < reliability_fraction <= 1.0:
        raise ValueError("reliability fraction must lie in (0, 1]")
    try:
        mu = np.linalg.eigvals(gen.matrix)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"eigensolver failed on side {gen.side}: {exc}") from exc
    taus = -1j * mu
    taus = taus[np.lexsort((taus.imag, taus.real))]
    meta = {
        "manifold": gen.manifold.kind,
        "d": gen.manifold.d,
        "n": gen.n,
        "side": gen.side,
        "field_hash": _field_hash(field) if field is not None else None,
    }
    return SpectrumSet(taus, gen.N, reliability_fraction * gen.N, meta)


def solve(field: DampingField, manifold: Manifold, N: int,
          reliability_fraction: float = DEFAULT_RELIABILITY) -> SpectrumSet:
    """Assemble and diagonalize in one call."""
    gen = assemble(field, manifold, N)
    return eigenvalues_tau(gen, reliability_fraction, field=field)


def convergence_check(field: DampingField, manifold: Manifold, N: int,
                      reliability_fraction: float = DEFAULT_RELIABILITY) -> float:
    """Distance from reliable eigenvalues at cutoff N to the spectrum at 2N.

    The maximum nearest-neighbour distance certifies the reliable_limit:
    spectrally accurate eigenvalues are reproduced under cutoff doubling.
    """
    coarse = solve(field, manifold, N, reliability_fraction)
    fine = solve(field, manifold, 2 * N, reliability_fraction)
    ref = fine.taus
    worst = 0.0
    for t in coarse.reliable():
        worst = max(worst, float(np.min(np.abs(ref - t))))
    return worst


def scalar_constant_taus(c: float, N: int) -> np.ndarray:
    """Closed-form circle eigenfrequencies for constant scalar damping c.

    Per mode k the pencil tau^2 - 2ic tau - k^2 = 0 has roots
    tau = ic +- sqrt(k^2 - c^2); the sqrt of a negative argument is the
    positive imaginary branch.
    """
    out = []
    for k in range(-N, N + 1):
        disc = complex(k * k - c * c)
        root = np.sqrt(disc)
        out.extend([1j * c + root, 1j * c - root])
    taus = np.array(out)
    return taus[np.lexsort((taus.imag, taus.real))]
