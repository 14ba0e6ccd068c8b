"""Fourier-Galerkin discretization of the damped wave generator.

The first-order generator acts on (u, v) pairs as [[0, Id], [Lap, -2a]];
in the Fourier basis of a flat model the Laplacian block is the diagonal
-|k|^2 and multiplication by a trig-polynomial damping is the exactly banded
block Toeplitz with blocks A_{k_row - k_col}.  Eigenvalues mu of the
discretized generator map to eigenfrequencies tau = -i mu of the quadratic
pencil.  Galerkin truncation corrupts the highest retained modes, so only
|Re tau| <= reliable_limit (a configurable fraction of the cutoff, certified
by ``convergence_check``) is trusted downstream.

One block builder fills the dense matrix and band storage ordered (u_k, v_k)
per mode (half-bandwidth 2nK + n - 1 on the circle).  The certificate gets
the 2N eigenvalue nearest each reliable tau = t by inverse iteration on one
banded LU at sigma = i t, moved off i t only if a pivot is exactly zero (an
eigenvalue shared by both cutoffs), so a distance is at most 2|sigma - i t|
above the true one, never below; non-convergence raises LinAlgError naming t.
The banded LU is LAPACK's zgbtrf/zgbtrs from ``scipy.linalg.lapack``, imported
inside the certificate: everything else here runs on numpy alone, and
importing the module does not load scipy.

For a real-valued field (every scalar field, every real symmetric matrix
field) A_{-k} = conj(A_k), so G commutes with complex conjugation composed
with the mode flip P: k -> -k, components kept, i.e. conj(G) = PGP.  Then
S = ((1+i)/2) I + ((1-i)/2) P is unitary with conj(S) = PS, and
S^H G S = Re G + Im(GP - PG)/2 is a real matrix similar to G: the dense
eigensolve runs on it in real arithmetic, and tau <-> -conj(tau) pairs
exactly.  The test is exact equality on the assembled matrix; complex
Hermitian fields fail it and are solved as they are.

The matrix solved (real form or G) splits into the connected components of its
nonzero pattern: entries between them are exactly zero, so it is block diagonal under
a permutation and its eigenvalues are the union of the blocks' (one block per mode for
a constant field, one per slice when the frequencies lie on a line of Z^2).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .damping import DampingField
from .geometry import Manifold, mode_lattice

SIDE_CAP = 6000
DEFAULT_RELIABILITY = 0.5
#: slack applied to window/limit comparisons so eigenvalues sitting exactly
#: on a boundary (tau = +-k for undamped modes) are not lost to rounding
EDGE_TOL = 1e-9
#: inverse-iteration steps allowed per certified eigenvalue
_INVERSE_STEPS = 20


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


def _damping_blocks(field: DampingField, modes: np.ndarray):
    """(rows, cols, blocks): the nonzero blocks A_{k_row - k_col} of multiplication
    by a on a ``mode_lattice``, where mode k sits at index sum_j (k_j + N) (2N + 1)^(d-1-j)."""
    ks, As = field.modes()
    N = int(modes.max())
    rows = modes[None, :, :] + ks.astype(int)[:, None, :]
    coeff, cols = np.nonzero(np.all(np.abs(rows) <= N, axis=-1))
    return (rows[coeff, cols] + N) @ (2 * N + 1) ** np.arange(field.d - 1, -1, -1), cols, As[coeff]


def _generator_blocks(field: DampingField, modes: np.ndarray):
    """Nonzero blocks of [[0, Id], [Lap, -2a]]; block m is u_m, block M + m is v_m."""
    M, n = len(modes), field.n
    m = np.arange(M)
    lap = -np.sum(modes.astype(float) ** 2, axis=1)
    rows, cols, A = _damping_blocks(field, modes)
    eye = np.eye(n)
    return (np.concatenate([m, M + m, M + rows]), np.concatenate([M + m, m, M + cols]),
            np.concatenate([np.broadcast_to(eye, (M, n, n)), lap[:, None, None] * eye, -2.0 * A]))


def _entries(rows: np.ndarray, cols: np.ndarray, n: int):
    """Row and column index of every entry of n x n blocks at (rows, cols)."""
    a = np.arange(n)
    return np.broadcast_arrays(rows[:, None, None] * n + a[:, None],
                               cols[:, None, None] * n + a)


def _dense(rows: np.ndarray, cols: np.ndarray, blocks: np.ndarray, side: int) -> np.ndarray:
    out = np.zeros((side, side), dtype=complex)
    out[_entries(rows, cols, blocks.shape[-1])] = blocks
    return out


def multiplication_blocks(field: DampingField, modes: np.ndarray) -> np.ndarray:
    """Block matrix of pointwise multiplication by a in the Fourier basis.

    Block (row, col) is A_{k_row - k_col}; exact (banded) for trig
    polynomials.  Also serves as the quadratic form of the damping on
    velocity coefficients.  ``modes`` is a ``mode_lattice``.
    """
    return _dense(*_damping_blocks(field, modes), len(modes) * field.n)


def assemble(field: DampingField, manifold: Manifold, N: int) -> DiscretizedGenerator:
    """Exact Galerkin matrix of [[0, Id], [Lap, -2a]] at cutoff |k|_inf <= N."""
    if field.d != manifold.d:
        raise ValueError("damping dimension does not match the manifold")
    K = field.K
    if N < K:
        raise ValueError(f"cutoff N={N} cannot hold the damping band K={K}")
    modes = mode_lattice(N, manifold.d)
    M = len(modes)
    n = field.n
    side = 2 * n * M
    if side > SIDE_CAP:
        raise ValueError(
            f"matrix side {side} = 2*{n}*{M} exceeds the dense cap {SIDE_CAP}; "
            f"reduce N or n")
    return DiscretizedGenerator(N, n, manifold, _dense(*_generator_blocks(field, modes), side), modes)


def _band(field: DampingField, modes: np.ndarray):
    """(ab, bw): the generator ordered (u_k, v_k) per mode, entry (i, j) at
    ab[2 bw + i - j, j] (LAPACK band storage; the top bw rows hold LU fill-in)."""
    rows, cols, blocks = _generator_blocks(field, modes)
    M = len(modes)
    i, j = _entries(2 * (rows % M) + rows // M, 2 * (cols % M) + cols // M, field.n)
    bw = int(np.max(np.abs(i - j)))
    ab = np.zeros((3 * bw + 1, 2 * field.n * M), dtype=complex)
    ab[2 * bw + i - j, j] = blocks
    return ab, bw


def _field_hash(field: DampingField) -> str:
    return hashlib.sha256(field.to_json().encode()).hexdigest()[:16]


def _real_form(G: np.ndarray, M: int, n: int) -> np.ndarray | None:
    """S^H G S = Re G + Im(GP - PG) / 2 when conj(G) = PGP holds exactly, else None.

    P flips mode m to M - 1 - m in both halves (the lattice is centrally
    symmetric) and is read as a strided view; the checks and the result share
    one real buffer."""
    G6 = G.reshape(2, M, n, 2, M, n)
    flipped = G6[:, ::-1, :, :, ::-1]
    out = np.add(G6.imag, flipped.imag)
    if out.any() or not np.array_equal(G6.real, flipped.real):
        return None
    np.subtract(G6.imag[:, :, :, :, ::-1], G6.imag[:, ::-1], out=out)
    out *= 0.5
    out += G6.real
    return out.reshape(G.shape)


def _components(A: np.ndarray) -> np.ndarray:
    """Smallest index in the component of each index of A's nonzero pattern as an undirected
    graph: each label hooks onto the smallest one across an edge, then pointers jump once."""
    r, c = np.nonzero(A)
    lab = np.arange(len(A))
    while not np.array_equal(lo := np.minimum(lab[r], lab[c]), hi := np.maximum(lab[r], lab[c])):
        np.minimum.at(lab, hi, lo)
        lab = lab[lab]
    return lab


def eigenvalues_tau(gen: DiscretizedGenerator, reliability_fraction: float = DEFAULT_RELIABILITY,
                    field: DampingField | None = None) -> SpectrumSet:
    """Dense eigendecomposition of the generator, mapped to tau = -i mu."""
    if not 0.0 < reliability_fraction <= 1.0:
        raise ValueError("reliability fraction must lie in (0, 1]")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the test or eigvals
        real = _real_form(gen.matrix, len(gen.modes), gen.n)
    A = gen.matrix if real is None else real
    _, comp, sizes = np.unique(_components(A), return_inverse=True, return_counts=True)
    grouped = np.argsort(comp, kind="stable")
    blocks = [grouped[sizes[comp[grouped]] == s].reshape(-1, s) for s in np.unique(sizes)]
    try:  # one batched eigvals per component size
        mu = np.linalg.eigvals(A) if len(sizes) == 1 else np.concatenate(
            [np.linalg.eigvals(A[i[:, :, None], i[:, None, :]]).ravel() for i in blocks])
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"eigensolver failed on side {gen.side}: {exc}") from exc
    if not np.all(np.isfinite(mu)):
        raise np.linalg.LinAlgError(f"eigensolver returned {np.sum(~np.isfinite(mu))} non-finite "
                                    f"eigenvalues of {mu.size} on side {gen.side}")
    taus = -1j * mu
    taus = taus[np.lexsort((taus.imag, taus.real))]
    meta = {
        "manifold": gen.manifold.kind,
        "d": gen.manifold.d,
        "n": gen.n,
        "side": gen.side,
        "field_hash": _field_hash(field) if field is not None else None,
        "eig_form": "complex" if real is None else "real",
    }
    return SpectrumSet(taus, gen.N, reliability_fraction * gen.N, meta)


def solve(field: DampingField, manifold: Manifold, N: int,
          reliability_fraction: float = DEFAULT_RELIABILITY) -> SpectrumSet:
    """Assemble and diagonalize in one call."""
    gen = assemble(field, manifold, N)
    return eigenvalues_tau(gen, reliability_fraction, field=field)


def _nearest_tau(ab: np.ndarray, bw: int, t: complex, x: np.ndarray, tol: float,
                 lapack) -> complex:
    """tau of the band matrix eigenvalue nearest i t, by inverse iteration.

    sigma = i t moves by a few ulps only while a pivot is exactly zero (one still
    singular fails the residual test); the first solve only aims x, then the
    estimate sigma + 1 / <x, y> must reach residual tol.  lapack is
    ``scipy.linalg.lapack``, imported once per certificate by the caller."""
    for nudge in (0.0, *(np.finfo(float).eps * (1.0 + abs(t)) * 4.0 ** np.arange(8))):
        shift = 1j * t + nudge
        shifted = ab.copy()
        shifted[2 * bw] -= shift
        lu, piv, info = lapack.zgbtrf(shifted, bw, bw, overwrite_ab=1)
        if info == 0:
            break
    for step in range(_INVERSE_STEPS + 1):
        y, _ = lapack.zgbtrs(lu, bw, bw, x, piv)
        theta = np.vdot(x, y)
        size = np.linalg.norm(y)
        if step and np.linalg.norm(x - y / theta) <= tol * size:
            return -1j * (shift + 1.0 / theta)
        x = y / size
    raise np.linalg.LinAlgError(
        f"inverse iteration at tau = {t} did not converge in {_INVERSE_STEPS} steps")


def _fine_distances(field: DampingField, manifold: Manifold, N: int,
                    reliability_fraction: float = DEFAULT_RELIABILITY) -> np.ndarray:
    """Distance from each reliable tau at cutoff N to the nearest one at 2N;
    residuals are held to eps ||A||_1, the backward error of the banded LU."""
    from scipy.linalg import lapack

    coarse = solve(field, manifold, N, reliability_fraction)
    ab, bw = _band(field, mode_lattice(2 * N, manifold.d))
    tol = np.finfo(float).eps * float(np.max(np.sum(np.abs(ab), axis=0)))
    x = np.random.default_rng(0).standard_normal((ab.shape[1], 2)) @ np.array([1.0, 1j])
    return np.array([abs(_nearest_tau(ab, bw, t, x, tol, lapack) - t) for t in coarse.reliable()])


def convergence_check(field: DampingField, manifold: Manifold, N: int,
                      reliability_fraction: float = DEFAULT_RELIABILITY) -> float:
    """Distance from reliable eigenvalues at cutoff N to the spectrum at 2N.

    The maximum nearest-neighbour distance certifies the reliable_limit:
    spectrally accurate eigenvalues are reproduced under cutoff doubling.
    The 2N side is banded only (see the module notes), so it is not capped.
    """
    return float(np.max(_fine_distances(field, manifold, N, reliability_fraction), initial=0.0))


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
