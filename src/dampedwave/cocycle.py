"""Integration of the damping cocycle along the free flow.

The cocycle G_t(x0, xi0) solves the linear matrix ODE

    G_0 = Id,    dG_t/dt = -a(x_t) G_t,

with x_t = x_0 + 2 xi_0 t the exactly known trajectory, so only the n x n
linear system is integrated (classical fixed-step RK4).  Because the ODE is
linear with a precomputable coefficient, each RK4 step is a constant matrix;
steps are assembled in vectorized batches and composed by pairwise products
with running magnitude renormalization, which keeps horizons of hundreds of
e-foldings inside double precision.  Batches pass between layers as arrays
(units (B, n, n), logs (B,)) with G = e^{logs} units of RMS entry size 1;
``_compose`` forms every scaled product, and ``propagate`` returns one row as a
``ScaledMatrix``.  For n = 1 the exact exponential of the symbolic line
integral is available as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .damping import DampingField
from .geometry import PhasePoint, flow

#: steps between window boundaries used when no cadence is imposed by callers
_DEFAULT_GROUP = 32
#: target batch*steps footprint per evaluation chunk
_CHUNK_BUDGET = 80_000
#: RK4 is stable for h*lambda in [-2.78, 0] on the negative real axis
_RK4_REAL_LIMIT = 2.78


@dataclass(frozen=True)
class ScaledMatrix:
    """One cocycle value e^{log_scale} * unit, the unit of RMS entry size 1.

    This is row b of a ``propagate_many`` batch; the split keeps values that
    decay or grow like e^{Lambda t} representable far beyond float64 range.
    """

    unit: np.ndarray
    log_scale: float


def _check_horizon(T: float, dt: float):
    if not math.isfinite(T) or T < 0.0:
        raise ValueError(f"horizon T={T} must be finite and >= 0")
    if not (dt > 0.0) or not math.isfinite(dt):
        raise ValueError(f"step dt={dt} must be positive and finite")


def _trajectory_modes(field: DampingField, starts: list[PhasePoint]):
    """Per-start Fourier data of t -> a(x_t): amplitudes and frequencies.

    Along x_t = x0 + 2 xi0 t each mode A_k e^{ik.x} restricts to
    A_k e^{ik.x0} e^{2i(k.xi0)t}.
    """
    ks, As = field.modes()
    x0 = np.array([p.x for p in starts], dtype=float)
    xi0 = np.array([p.xi for p in starts], dtype=float)
    amp = np.exp(1j * x0 @ ks.T)          # (B, J)
    om = 2.0 * xi0 @ ks.T                 # (B, J)
    return amp, om, As


def _field_along(amp, om, As, ts):
    """a(x_t) for every start and every time in ts: shape (B, Q, n, n).

    The result is component-major in memory: the time axis has the
    smallest stride and each n x n matrix is scattered across the buffer
    (see ``_mm`` for why the products keep this layout).
    """
    phases = amp[:, :, None] * np.exp(1j * om[:, :, None] * ts[None, None, :])
    return np.einsum("bjq,jmn->bqmn", phases, As, optimize=True)


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched small-matrix product a @ b over the leading (broadcast) axes.

    ``einsum`` loops along the long batch/time axes and keeps the operands'
    memory layout, whereas ``@`` on the component-major stacks of
    ``_field_along`` dispatches one gemm per n x n matrix.
    """
    return np.einsum("...ij,...jk->...ik", a, b)


def _rk4_step_matrices(A_half: np.ndarray, h: float) -> np.ndarray:
    """One-step RK4 transfer matrices from coefficient samples on half-steps.

    A_half holds a(x_t) on the half-step grid (2S+1 samples for S steps).
    For the linear ODE G' = -a(t)G the classical RK4 update is
    G_{m+1} = S_m G_m, computed in its nested stage form

      K2 = B2 (h/2 B1 - I),  K3 = B2 (-h/2 K2 - I),  K4 = B3 (-h K3 - I),
      S  = I + (h/6) (2 (K2 + K3) + K4 - B1),

    where B1, B2, B3 are a at the step's left/mid/right times (K_i is the
    i-th stage slope divided by G).  This is the expanded polynomial
    I - (h/6)(B1 + 4 B2 + B3) + ... + (h^4/24) B3 B2^2 B1 with three
    products instead of six.  The products go through ``_mm`` because the
    samples are component-major (time innermost in memory).
    """
    B1 = A_half[:, 0:-1:2]
    B2 = A_half[:, 1::2]
    B3 = A_half[:, 2::2]
    eye = np.eye(A_half.shape[-1], dtype=complex)
    K2 = _mm(B2, (0.5 * h) * B1 - eye)
    K3 = _mm(B2, (-0.5 * h) * K2 - eye)
    K4 = _mm(B3, (-h) * K3 - eye)
    return eye + (h / 6.0) * (2.0 * (K2 + K3) + K4 - B1)


def plan_steps(T: float, dt: float) -> tuple[int, float]:
    """Step count and effective step of the fixed-step scheme on [0, T].

    The count is ceil(T/dt) and the step is stretched to T/count so the
    horizon is hit exactly.
    """
    _check_horizon(T, dt)
    M = int(math.ceil(T / dt - 1e-9)) if T > 0 else 0
    return M, (T / M if M else dt)


def step_reach(field: DampingField, h: float) -> float:
    """h * sum_k ||A_k||_2, a bound on h ||a(x)||_2 over the whole manifold.

    ``window_products`` guards RK4's stability interval with it, and the QR
    frame of ``lyapunov`` sizes its groups of steps by it.
    """
    _, As = field.modes()
    return h * float(np.sum(np.linalg.norm(As, ord=2, axis=(-2, -1))))


def window_products(field: DampingField, starts: list[PhasePoint], T: float, dt: float,
                    window: int = _DEFAULT_GROUP):
    """Yield cocycle transfer matrices over successive windows of RK4 steps.

    Yields arrays of shape (B, n_windows_in_chunk, n, n) in time order where
    index i advances G across `window` consecutive steps (the final window
    of the run may be shorter; a window longer than the run is the run).
    The product of all yielded matrices, rightmost factor first, is G_T.

    Raises ValueError when ``step_reach`` reaches RK4's stability limit on
    the negative real axis, where the scheme can grow a mode that the ODE
    damps.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    B = len(starts)
    M, h = plan_steps(T, dt)
    if M == 0:
        return
    reach = step_reach(field, h)
    if reach >= _RK4_REAL_LIMIT:
        raise ValueError(f"step h={h:g} times the bound on ||a|| is {reach:g} >= "
                         f"{_RK4_REAL_LIMIT}, outside RK4's stability interval; lower dt")
    amp, om, As = _trajectory_modes(field, starts)
    n = field.n
    window = min(window, M)

    steps_per_chunk = max(window, (_CHUNK_BUDGET // max(B, 1)) // window * window)
    s0 = 0
    while s0 < M:
        s1 = min(s0 + steps_per_chunk, M)
        ts = 0.5 * h * np.arange(2 * s0, 2 * s1 + 1)
        A_half = _field_along(amp, om, As, ts)
        S = _rk4_step_matrices(A_half, h)
        # identity steps fill the run's short final window
        pad = -(s1 - s0) % window
        if pad:
            S = np.concatenate([S, np.broadcast_to(np.eye(n, dtype=complex), (B, pad, n, n))],
                               axis=1)
        Sg = S.reshape(B, -1, window, n, n)
        W = Sg[:, :, 0]
        for j in range(1, window):
            W = _mm(Sg[:, :, j], W)
        yield W
        s0 = s1


def _compose(left, left_logs, right, right_logs):
    """Scaled batch product (left @ right), renormalized to unit RMS size.

    Raises FloatingPointError when a product's scale is zero or not finite:
    the value has then left the float64 range and its logs would be NaN.
    """
    prod = _mm(left, right)
    scale = np.linalg.norm(prod, axis=(-2, -1)) / math.sqrt(prod.shape[-1])
    if not np.all(np.isfinite(scale) & (scale > 0.0)):
        raise FloatingPointError("cocycle value lost to under/overflow")
    return prod / scale[..., None, None], left_logs + right_logs + np.log(scale)


def log_norm2(units: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """log ||e^{logs} units||_2 for a batch (units (B, n, n), logs (B,))."""
    return logs + np.log(np.linalg.norm(units, ord=2, axis=(-2, -1)))


def _scaled_reduce(W: np.ndarray):
    """Product over the time axis of W (B, m, n, n) with scale tracking.

    Returns (units (B, n, n), logs (B,)); pairwise association with
    per-level Frobenius rescaling keeps intermediates in range.
    """
    B, m = W.shape[:2]
    logs = np.zeros((B, m))
    while m > 1:
        half = m // 2
        prod, plogs = _compose(W[:, 1 : 2 * half : 2], logs[:, 1 : 2 * half : 2],
                               W[:, 0 : 2 * half : 2], logs[:, 0 : 2 * half : 2])
        if m % 2:
            W = np.concatenate([prod, W[:, -1:]], axis=1)
            logs = np.concatenate([plogs, logs[:, -1:]], axis=1)
        else:
            W, logs = prod, plogs
        m = W.shape[1]
    return W[:, 0], logs[:, 0]


def propagate_many(field: DampingField, starts: list[PhasePoint], T: float,
                   dt: float) -> tuple[np.ndarray, np.ndarray]:
    """G_T for a batch of starting points (vectorized over the batch).

    Returns (units (B, n, n), logs (B,)) with G_T(starts[b]) =
    e^{logs[b]} units[b] and each unit of RMS entry size 1.
    """
    _check_horizon(T, dt)
    B = len(starts)
    n = field.n
    units = np.broadcast_to(np.eye(n, dtype=complex), (B, n, n)).copy()
    logs = np.zeros(B)
    for W in window_products(field, starts, T, dt):
        units, logs = _compose(*_scaled_reduce(W), units, logs)
    return units, logs


def propagate(field: DampingField, start: PhasePoint, T: float, dt: float) -> ScaledMatrix:
    """G_T(start) by fixed-step RK4 along the exact trajectory (one-row ``propagate_many``)."""
    units, logs = propagate_many(field, [start], T, dt)
    return ScaledMatrix(units[0], float(logs[0]))


def _phase_integral(w: np.ndarray, T: float) -> np.ndarray:
    """int_0^T e^{i w t} dt elementwise: (e^{i w T} - 1)/(i w), and T where |w| < 1e-12."""
    res = np.abs(w) < 1e-12
    return np.where(res, T, (np.exp(1j * w * T) - 1.0) / np.where(res, 1.0, 1j * w))


def line_integral(field: DampingField, start: PhasePoint, T: float) -> np.ndarray:
    """Exact integral of a along the trajectory of `start` over [0, T].

    Each Fourier mode has the elementary antiderivative
    (e^{i w T} - 1)/(i w) with w = 2 k.xi0; resonant modes (w = 0, which
    includes k = 0) contribute linear terms T.
    """
    amp, om, As = _trajectory_modes(field, [start])
    return np.einsum("j,jmn->mn", amp[0] * _phase_integral(om[0], T), As)


def scalar_closed_form(field: DampingField, start: PhasePoint, T: float) -> float:
    """Exact scalar cocycle value exp(-integral of a), n = 1 only."""
    if field.n != 1:
        raise ValueError("the exponential closed form only holds for n = 1")
    integral = line_integral(field, start, T)[0, 0]
    if abs(integral.imag) > 1e-10 * (1.0 + abs(integral.real)):
        raise ValueError("scalar damping produced a non-real line integral")
    return math.exp(-integral.real)


def cocycle_residual(field: DampingField, start: PhasePoint, s: float, t: float, dt: float) -> float:
    """Relative defect of G_{t+s}(p) = G_t(flow_s p) G_s(p), scale-aware."""
    if s < 0 or t < 0:
        raise ValueError("s and t must be >= 0")
    G_ts = propagate(field, start, t + s, dt)
    G_s = propagate(field, start, s, dt)
    G_t = propagate(field, flow(start, s), t, dt)
    comp, comp_log = _compose(G_t.unit, G_t.log_scale, G_s.unit, G_s.log_scale)
    diff = G_ts.unit - math.exp(comp_log - G_ts.log_scale) * comp
    return float(np.linalg.norm(diff, ord=2) / np.linalg.norm(G_ts.unit, ord=2))
