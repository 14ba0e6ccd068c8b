"""Time-domain evolution, energy balance, and a propagator factorization test.

The wave system evolves as d/dt (u, v) = A (u, v) with the same Galerkin
generator the spectrum module assembles; since A is constant the classical
RK4 update reduces exactly to the degree-4 Taylor polynomial of e^{A dt},
which is precomputed once and applied per step.  Energy is evaluated by
Parseval on the coefficients, so the conservation/decay identity is probed
without any spatial-quadrature noise.

``factorization_residual`` is an experimental tier: it measures on the
circle how well the damped semiclassical propagator e^{it(P + 2iha)/h}
splits into the free propagator followed by the anti-Wick quantization of
the damping cocycle, microlocalized near the unit shell.  The symbol
convention that zeroes the a = 0 and constant-a baselines is

    s(x, xi) = G_{2t}(x + 2 xi t, -xi/2),

i.e. momentum is halved after transporting the base point along the flow;
wave packets under e^{itP/h} travel backwards along the flow, and the
damping they accumulate is exactly the cocycle along that path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .cocycle import propagate_many
from .damping import DampingField
from .geometry import TWO_PI, Manifold, PhasePoint
from .quantize import CircleGrid, Symbol, antiwick_build_circle
from .spectrum import DiscretizedGenerator, mode_lattice, multiplication_blocks


@dataclass(frozen=True)
class WaveState:
    """Fourier coefficients of (u, partial_t u) at time t.

    u and v have shape (M, n) with M the mode count of the cutoff-N lattice,
    ordered like ``spectrum.mode_lattice``.
    """

    u: np.ndarray
    v: np.ndarray
    t: float
    N: int
    d: int = 1

    def __post_init__(self):
        u = np.atleast_2d(np.asarray(self.u, dtype=complex))
        v = np.atleast_2d(np.asarray(self.v, dtype=complex))
        if u.shape != v.shape:
            raise ValueError("u and v must have matching shapes")
        if u.shape[0] != (2 * self.N + 1) ** self.d:
            raise ValueError("coefficient count does not match the cutoff")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.u.shape[1]


def single_mode_state(N: int, k: int = 1, n: int = 1, component: int = 0,
                      amplitude: complex = 1.0, d: int = 1) -> WaveState:
    """u0 = amplitude * e^{ikx} in one vector component, u1 = 0."""
    M = (2 * N + 1) ** d
    u = np.zeros((M, n), dtype=complex)
    v = np.zeros((M, n), dtype=complex)
    modes = mode_lattice(Manifold("circle" if d == 1 else "flat_torus", d), N)
    idx = int(np.where((modes == np.array([(k,) * 1 + (0,) * (d - 1)])).all(axis=1))[0][0])
    u[idx, component] = amplitude
    return WaveState(u, v, 0.0, N, d)


def evolve(gen: DiscretizedGenerator, state: WaveState, T: float, dt: float,
           stride: int = 1) -> list[WaveState]:
    """Fixed-step evolution of d/dt (u,v) = A (u,v), recorded every `stride`.

    For the constant generator the classical RK4 step equals the degree-4
    Taylor step S = sum_{j<=4} (A dt)^j / j!, built once.  dt must stay
    below the conservative stability heuristic 0.5/N^2.
    """
    if state.N != gen.N or state.n != gen.n or state.d != gen.manifold.d:
        raise ValueError("state cutoff does not match the generator")
    limit = 0.5 / max(gen.N, 1) ** 2
    if dt >= limit:
        raise ValueError(f"dt={dt} is above the stability heuristic 0.5/N^2 = {limit:g}")
    if T < 0:
        raise ValueError("T must be >= 0")
    steps = int(math.ceil(T / dt - 1e-9)) if T > 0 else 0
    h = T / steps if steps else dt
    A = gen.matrix
    S = np.eye(A.shape[0], dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    for j in range(1, 5):
        term = (h / j) * (A @ term)
        S += term
    M = len(gen.modes)
    n = gen.n
    w = np.concatenate([state.u.reshape(-1), state.v.reshape(-1)])
    out = [WaveState(state.u, state.v, state.t, state.N, state.d)]
    for m in range(1, steps + 1):
        w = S @ w
        if m % stride == 0 or m == steps:
            out.append(WaveState(w[: M * n].reshape(M, n), w[M * n:].reshape(M, n),
                                 state.t + m * h, state.N, state.d))
    return out


def _mode_k2(N: int, d: int) -> np.ndarray:
    modes = mode_lattice(Manifold("circle" if d == 1 else "flat_torus", d), N)
    return np.sum(modes.astype(float) ** 2, axis=1)


def energy(state: WaveState) -> float:
    """Parseval energy (1/2) * sum_k (|v_k|^2 + |k|^2 |u_k|^2) * (2 pi)^d."""
    k2 = _mode_k2(state.N, state.d)
    vol = TWO_PI ** state.d
    kin = np.sum(np.abs(state.v) ** 2)
    pot = np.sum(k2[:, None] * np.abs(state.u) ** 2)
    return 0.5 * vol * float(kin + pot)


def energy_balance_residual(field: DampingField, trajectory: list[WaveState]) -> float:
    """Defect of dE/dt = -integral <2 a v, v> along a recorded trajectory.

    dE/dt is a centered difference over the recording stride, the damping
    integral is exact for trig-polynomial fields; the defect is normalized
    by 1 + E.
    """
    if len(trajectory) < 3:
        raise ValueError("need at least three recorded states")
    st0 = trajectory[0]
    modes = mode_lattice(Manifold("circle" if st0.d == 1 else "flat_torus", st0.d), st0.N)
    D = multiplication_blocks(field, modes)
    vol = TWO_PI ** st0.d
    k2 = _mode_k2(st0.N, st0.d)
    ts = np.array([s.t for s in trajectory])
    U = np.stack([s.u for s in trajectory])
    V = np.stack([s.v.reshape(-1) for s in trajectory])
    Es = 0.5 * vol * (np.sum(np.abs(V) ** 2, axis=1)
                      + np.einsum("m,smc->s", k2, np.abs(U) ** 2))
    flux = 2.0 * vol * np.real(np.einsum("si,ij,sj->s", V.conj(), D, V))
    dE = (Es[2:] - Es[:-2]) / (ts[2:] - ts[:-2])
    return float(np.max(np.abs(dE + flux[1:-1]) / (1.0 + Es[1:-1])))


def energy_csv(trajectory: list[WaveState]) -> str:
    lines = ["t,energy"]
    for s in trajectory:
        lines.append(f"{s.t:.17g},{energy(s):.17g}")
    return "\n".join(lines) + "\n"


def state_dump(trajectory: list[WaveState]) -> bytes:
    """Little-endian float64 dump: per state t, then u then v coefficients,
    mode-major and component-minor, re/im interleaved."""
    parts = []
    for s in trajectory:
        row = [np.array([s.t])]
        for block in (s.u, s.v):
            flat = block.reshape(-1)
            inter = np.empty(2 * flat.size)
            inter[0::2] = flat.real
            inter[1::2] = flat.imag
            row.append(inter)
        parts.append(np.concatenate(row))
    return np.concatenate(parts).astype("<f8").tobytes()


# ---------------------------------------------------------------------------
# propagator factorization (experimental tier)


def cocycle_symbol(field: DampingField, t: float, dt: float = 1e-3) -> Symbol:
    """The matrix symbol (x, xi) -> G_{2t}(x + 2 xi t, -xi/2).

    Scalar fields use the exact exponential of the mode-wise line integral;
    matrix fields fall back to batched RK4 cocycle runs per quadrature node.
    """
    ks, As = field.modes()
    kvec = ks[:, 0]

    if field.n == 1:
        avals = As[:, 0, 0]

        def fn(x, xi):
            x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
            y = x + 2.0 * xi * t
            eta = -0.5 * xi
            w = 2.0 * np.multiply.outer(eta, kvec)
            phases = np.exp(1j * np.multiply.outer(y, kvec))
            T2 = 2.0 * t
            factors = np.where(np.abs(w) < 1e-12, T2,
                               (np.exp(1j * w * T2) - 1.0) / np.where(np.abs(w) < 1e-12, 1.0, 1j * w))
            integral = np.sum(phases * factors * avals, axis=-1)
            return np.exp(-np.real(integral))

        return Symbol(fn, 1, True, label="cocycle")

    def fn_mat(x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        shape = x.shape
        pts = [PhasePoint((float(xx),), (float(-0.5 * xxi),))
               for xx, xxi in zip((x + 2.0 * xi * t).ravel(), xi.ravel())]
        units, logs = propagate_many(field, pts, 2.0 * t, dt)
        return (np.exp(logs)[:, None, None] * units).reshape(shape + (field.n, field.n))

    return Symbol(fn_mat, field.n, False, label="cocycle")


def shell_cutoff_symbol(n: int = 1) -> Symbol:
    """Smooth bump supported on 1/2 <= |xi| <= 3/2, the unit-shell cutoff."""

    def bump(r):
        out = np.zeros_like(r)
        inside = np.abs(r) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
        return out

    def fn(x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        vals = bump(2.0 * (np.abs(xi) - 1.0))
        if n == 1:
            return vals
        return np.multiply.outer(vals, np.eye(n))

    return Symbol(fn, n, True, 1.0, label="shell cutoff")


def suggest_modes(h: float) -> int:
    """Mode cutoff resolving both the coherent width and the shell band."""
    p1 = 4.0 * math.pi / math.sqrt(h)
    p2 = (1.5 + 10.0 * math.sqrt(h)) / h
    return int(math.ceil(max(p1, p2) / 2.0)) * 2


def factorization_residual(field: DampingField, t: float, h: float, N: int | None = None,
                           test_symbol: Symbol | None = None,
                           symbol_dt: float = 1e-3) -> float:
    """|| Op(u) [e^{it(P+2iha)/h} - Op(G-symbol) e^{itP/h}] ||_2 on the circle.

    P = -h^2 Lap; both propagators and the anti-Wick operators are built on
    a periodic grid of 2N points.  The residual should decay like sqrt(h)
    for smooth damping; the a = 0 baseline isolates the pure quadrature
    floor (both factors collapse to the free propagator).  symbol_dt only
    affects matrix fields, whose cocycle symbol is integrated numerically
    per quadrature node.
    """
    if field.d != 1:
        raise ValueError("the factorization check runs on the circle only")
    if not 0.0 < h <= 1.0:
        raise ValueError("need h in (0, 1]")
    if N is None:
        N = suggest_modes(h)
    if N * h < 1.5 + 10.0 * math.sqrt(h):
        raise ValueError(f"N*h = {N * h:g} does not resolve the unit shell; "
                         f"need at least {1.5 + 10.0 * math.sqrt(h):g}")
    P = 2 * N
    grid = CircleGrid(P, h)
    n = field.n
    x = grid.x
    k = np.fft.fftfreq(P, d=1.0 / P)
    F = np.fft.fft(np.eye(P), axis=0)
    Finv = F.conj().T / P

    free_mult = np.exp(1j * t * h * k * k)
    E_free_scalar = Finv @ (free_mult[:, None] * F)
    P_scalar = Finv @ ((h * h * k * k)[:, None] * F)

    a_vals = np.stack([field.at(xx) for xx in x])  # (P, n, n)
    if n == 1:
        P_full = P_scalar + 2j * h * np.diag(a_vals[:, 0, 0].real)
        E_free = E_free_scalar
    else:
        # component-major layout: block (c, b) acts diagonally in x
        P_full = np.kron(np.eye(n), P_scalar).astype(complex)
        for c in range(n):
            for b in range(n):
                P_full[c * P:(c + 1) * P, b * P:(b + 1) * P] += \
                    2j * h * np.diag(a_vals[:, c, b])
        E_free = np.kron(np.eye(n), E_free_scalar)
    E_damped = expm((1j * t / h) * P_full)

    u_sym = test_symbol if test_symbol is not None else shell_cutoff_symbol(n)
    Op_u = antiwick_build_circle(u_sym, grid)
    s_sym = cocycle_symbol(field, t, dt=symbol_dt)
    Op_s = antiwick_build_circle(s_sym, grid)
    R = Op_u @ (E_damped - Op_s @ E_free)
    return float(np.linalg.norm(R, ord=2))
