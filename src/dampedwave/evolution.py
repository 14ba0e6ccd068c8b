"""Time-domain evolution, energy balance, and a propagator factorization test.

The wave system evolves as d/dt (u, v) = A (u, v) with the same Galerkin
generator the spectrum module assembles; since A is constant the classical
RK4 update reduces exactly to the degree-4 Taylor polynomial of e^{A dt},
which is precomputed once and applied as one matvec per step (so the recorded
coefficients are bit-stable) into a stacked ``Trajectory`` of arrays.  Energy
is evaluated by Parseval on the coefficients, so the conservation/decay
identity is probed without any spatial-quadrature noise.

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
from scipy.linalg import circulant, expm

from .cocycle import _line_integrals, plan_steps, propagate_many
from .damping import DampingField
from .geometry import TWO_PI, mode_lattice
from .quantize import CircleGrid, Symbol, antiwick_build_circle
from .spectrum import DiscretizedGenerator, multiplication_blocks


@dataclass(frozen=True)
class WaveState:
    """Fourier coefficients of (u, partial_t u) at time t.

    u and v have shape (M, n) with M the mode count of the cutoff-N lattice,
    ordered like ``geometry.mode_lattice``.
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


@dataclass(frozen=True)
class Trajectory:
    """The states recorded by ``evolve``: ts (S,), u and v (S, M, n); traj[i] is a WaveState."""

    ts: np.ndarray
    u: np.ndarray
    v: np.ndarray
    N: int
    d: int = 1

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, i: int) -> WaveState:
        return WaveState(self.u[i], self.v[i], float(self.ts[i]), self.N, self.d)


def single_mode_state(N: int, k: int = 1, n: int = 1, d: int = 1) -> WaveState:
    """u0 = e^{ikx} in the first vector component, u1 = 0."""
    if abs(k) > N:
        raise ValueError(f"mode {k} lies outside the cutoff N = {N}")
    modes = mode_lattice(N, d)
    u = np.zeros((len(modes), n), dtype=complex)
    u[int(np.flatnonzero((modes == [k] + [0] * (d - 1)).all(axis=1))[0]), 0] = 1.0
    return WaveState(u, np.zeros_like(u), 0.0, N, d)


def evolve(gen: DiscretizedGenerator, state: WaveState, T: float, dt: float,
           stride: int = 1) -> Trajectory:
    """Fixed-step evolution of d/dt (u,v) = A (u,v), recorded every `stride`.

    For the constant generator the classical RK4 step equals the degree-4
    Taylor step S = sum_{j<=4} (A dt)^j / j!, built once.  dt must stay
    below the conservative stability heuristic 0.5/N^2.  Each step is one
    matvec w = S w into one preallocated array; an overflow raises.
    """
    if state.N != gen.N or state.n != gen.n or state.d != gen.manifold.d:
        raise ValueError("state cutoff does not match the generator")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    limit = 0.5 / max(gen.N, 1) ** 2
    if not 0 < dt < limit:
        raise ValueError(f"dt={dt} must lie in (0, {limit:g}); 0.5/N^2 is the stability heuristic")
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"T must be finite and >= 0, got {T}")
    steps, h = plan_steps(T, dt)
    S = term = np.eye(gen.side, dtype=complex)
    for j in range(1, 5):
        term = (h / j) * (gen.matrix @ term)
        S = S + term
    rows = steps // stride + 1 + (steps % stride > 0)
    ts = np.empty(rows)
    W = np.empty((2, rows, state.u.size), dtype=complex)  # W[0] holds u, W[1] v
    w = np.concatenate([state.u.reshape(-1), state.v.reshape(-1)])
    ts[0], W[:, 0] = state.t, w.reshape(2, -1)
    row = 0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is diagnosed below
        for m in range(1, steps + 1):
            w = S @ w
            if m % stride == 0 or m == steps:
                row += 1
                ts[row], W[:, row] = state.t + m * h, w.reshape(2, -1)
    if not np.isfinite(W).all():
        raise ValueError(f"coefficients must be finite: the evolution overflowed at dt={dt}")
    return Trajectory(ts, *W.reshape((2, rows) + state.u.shape), state.N, state.d)


def _mode_k2(N: int, d: int) -> np.ndarray:
    return np.sum(mode_lattice(N, d).astype(float) ** 2, axis=1)


def _energies(u: np.ndarray, v: np.ndarray, N: int, d: int) -> np.ndarray:
    """Parseval energies of (..., M, n) stacks; one flat M n sum per state, as for one state."""
    k2 = _mode_k2(N, d)
    flat = u.shape[:-2] + (-1,)
    kin = np.sum((np.abs(v) ** 2).reshape(flat), axis=-1)
    pot = np.sum((k2[:, None] * np.abs(u) ** 2).reshape(flat), axis=-1)
    return 0.5 * TWO_PI ** d * (kin + pot)


def energy(state: WaveState) -> float:
    """Parseval energy (1/2) * sum_k (|v_k|^2 + |k|^2 |u_k|^2) * (2 pi)^d."""
    return float(_energies(state.u, state.v, state.N, state.d))


def energy_balance_residual(field: DampingField, trajectory: Trajectory) -> float:
    """Defect of dE/dt = -integral <2 a v, v> along a recorded trajectory.

    dE/dt is a centered difference over the recording stride, the damping
    integral is exact for trig-polynomial fields; the defect is normalized
    by 1 + E.  E sums in einsum order (not ``energy``'s) to keep it bit-stable.
    """
    if len(trajectory) < 3:
        raise ValueError("need at least three recorded states")
    N, d = trajectory.N, trajectory.d
    D = multiplication_blocks(field, mode_lattice(N, d))
    vol = TWO_PI ** d
    ts = trajectory.ts
    V = trajectory.v.reshape(len(ts), -1)
    Es = 0.5 * vol * (np.sum(np.abs(V) ** 2, axis=1)
                      + np.einsum("m,smc->s", _mode_k2(N, d), np.abs(trajectory.u) ** 2))
    flux = 2.0 * vol * np.real(np.vecdot(V, V @ D.T))
    dE = (Es[2:] - Es[:-2]) / (ts[2:] - ts[:-2])
    return float(np.max(np.abs(dE + flux[1:-1]) / (1.0 + Es[1:-1])))


def energy_csv(trajectory: Trajectory) -> str:
    Es = _energies(trajectory.u, trajectory.v, trajectory.N, trajectory.d)
    return "t,energy\n" + "".join(f"{t:.17g},{E:.17g}\n"
                                   for t, E in zip(trajectory.ts.tolist(), Es.tolist()))


def state_dump(trajectory: Trajectory) -> bytes:
    """Little-endian float64 dump: per state t, then u then v coefficients,
    mode-major and component-minor, re/im interleaved."""
    S = len(trajectory)
    coeffs = np.concatenate([trajectory.u.reshape(S, -1), trajectory.v.reshape(S, -1)], axis=1)
    return np.concatenate([trajectory.ts[:, None], coeffs.view(np.float64)],
                          axis=1).astype("<f8").tobytes()


# ---------------------------------------------------------------------------
# propagator factorization (experimental tier)


def cocycle_symbol(field: DampingField, t: float, dt: float = 1e-3) -> Symbol:
    """The matrix symbol (x, xi) -> G_{2t}(x + 2 xi t, -xi/2).

    Scalar fields use the exact exponential of the mode-wise line integral;
    matrix fields fall back to batched RK4 cocycle runs per quadrature node.
    """

    def fn(x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        starts = np.empty((x.size, 2, 1))
        starts[:, 0, 0] = np.mod(x + 2.0 * xi * t, TWO_PI).ravel()
        starts[:, 1, 0] = (-0.5 * xi).ravel()
        if field.n == 1:
            return np.exp(-_line_integrals(field, starts, 2.0 * t)[:, 0, 0].real).reshape(x.shape)
        units, logs = propagate_many(field, starts, 2.0 * t, dt)
        return (np.exp(logs)[:, None, None] * units).reshape(x.shape + (field.n, field.n))

    return Symbol(fn, field.n, label="cocycle")


def shell_cutoff_symbol() -> Symbol:
    """Smooth bump supported on 1/2 <= |xi| <= 3/2, the unit-shell cutoff."""

    def fn(x, xi):
        _, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        r = 2.0 * (np.abs(xi) - 1.0)
        out = np.zeros_like(r)
        inside = np.abs(r) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
        return out

    return Symbol(fn, 1, label="shell cutoff")


def suggest_modes(h: float) -> int:
    """Mode cutoff resolving both the coherent width and the shell band."""
    p1 = 4.0 * math.pi / math.sqrt(h)
    p2 = (1.5 + 10.0 * math.sqrt(h)) / h
    return int(math.ceil(max(p1, p2) / 2.0)) * 2


def factorization_residual(field: DampingField, t: float, h: float,
                           symbol_dt: float = 1e-3) -> float:
    """|| Op(u) [e^{it(P+2iha)/h} - Op(G-symbol) e^{itP/h}] ||_2 on the circle.

    P = -h^2 Lap; both propagators and the anti-Wick operators are built on
    a periodic grid of 2N points, N = ``suggest_modes(h)``, and u is the
    unit-shell cutoff.  The residual should decay like sqrt(h) for smooth
    damping; the a = 0 baseline isolates the pure quadrature floor (both
    factors collapse to the free propagator).  symbol_dt only affects matrix
    fields, whose cocycle symbol is integrated numerically per quadrature node.
    """
    if field.d != 1:
        raise ValueError("the factorization check runs on the circle only")
    if not 0.0 < h <= 1.0:
        raise ValueError("need h in (0, 1]")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    P = 2 * suggest_modes(h)
    grid = CircleGrid(P, h)
    n = field.n
    k = np.fft.fftfreq(P, d=1.0 / P)

    # component-major layout: every operator except the damping and Op(s) is n
    # diagonal copies of a scalar one (the Fourier multipliers are circulants);
    # block (c, b) of the damping acts diagonally in x
    E_free = np.kron(np.eye(n), circulant(np.fft.ifft(np.exp(1j * t * h * k * k))))
    P_full = np.kron(np.eye(n), circulant(np.fft.ifft(h * h * k * k)))
    i = np.arange(P)
    P_full.reshape(n, P, n, P)[:, i, :, i] += 2j * h * field.at(grid.x[:, None])
    E_damped = expm((1j * t / h) * P_full)

    Op_u = np.kron(np.eye(n), antiwick_build_circle(shell_cutoff_symbol(), grid))
    Op_s = antiwick_build_circle(cocycle_symbol(field, t, dt=symbol_dt), grid)
    R = Op_u @ (E_damped - Op_s @ E_free)
    return float(np.linalg.norm(R, ord=2))
