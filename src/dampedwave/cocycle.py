"""Integration of the damping cocycle along the free flow.

The cocycle G_t(x0, xi0) solves the linear matrix ODE

    G_0 = Id,    dG_t/dt = -a(x_t) G_t,

with x_t = x_0 + 2 xi_0 t the exactly known trajectory, so only the n x n
linear system is integrated (classical fixed-step RK4).  The damping is a
trigonometric polynomial a(x) = sum_{|k|_inf <= K} A_k e^{ik.x}, so along the
straight trajectory a(x_t) = sum_k A_k e^{ik.x0} e^{2i(k.xi0)t} is a
trigonometric polynomial in t, and so is the RK4 transfer matrix of the step
[t, t + h]: S(t) = Phi(x_t), with Phi(y) the RK4 step built from the samples
a(y), a(y + xi0 h) and a(y + 2 xi0 h), a product of at most four samples of
a and so a trigonometric polynomial over the integer box |f|_inf <= 4K.
``_step_polynomial`` evaluates Phi once per distinct momentum of a batch on
the (8K + 1)^d grid and reads its Fourier coefficients off one DFT, exactly
whatever xi0 is; x0 enters the table of phases e^{i f.(x0 + 2 xi0 t)}, and
every step matrix is one column of one gemm of the coefficients against it.
``_CHUNK_BUDGET`` bounds each chunk by splitting the run, and the batch too.
Window products are composed pairwise with running magnitude renormalization,
which keeps horizons of hundreds of e-foldings inside double precision.
``window_products`` clamps every window it makes to ``safe_cadence``, the
longest one whose product keeps its small directions; ``safe_cadence`` also
holds the RK4 stability guard.
Batches pass between layers as arrays (units (B, n, n), logs (B,)) with
G = e^{logs} units of RMS entry size 1; ``_compose`` forms every scaled
product, and ``propagate`` returns one row as a ``ScaledMatrix``.  Starts
enter as one float array (B, 2, d) whose row b is (x, xi)
(``geometry.phase_array``).  ``_line_integrals`` integrates a exactly along a
batch of trajectories; for n = 1 the exponential of minus that integral is
the cocycle itself, an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .damping import DampingField
from .geometry import PhasePoint, flow, phase_array

#: steps between window boundaries used when no cadence is imposed by callers
_DEFAULT_GROUP = 32
#: target batch * (frequencies + n^2) * steps footprint of one chunk's phase table
#: and step matrices (55 384 steps of one 2 x 2 start on the circle with K = 1)
_CHUNK_BUDGET = 720_000
#: largest coefficient box (8K + 1)^d, fixed: one step of one start fills the default budget
_MAX_BOX = _CHUNK_BUDGET
#: RK4 is stable for h*lambda in [-2.78, 0] on the negative real axis
_RK4_REAL_LIMIT = 2.78
#: bound on log cond of one window product: 2 * sum_k ||A_k||_2 * (window duration)
_GROUP_LOG_COND = 18.0


@dataclass(frozen=True)
class ScaledMatrix:
    """One cocycle value e^{log_scale} * unit, the unit of RMS entry size 1.

    This is row b of a ``propagate_many`` batch; the split keeps values that
    decay or grow like e^{Lambda t} representable far beyond float64 range.
    """

    unit: np.ndarray
    log_scale: float


def _check_starts(starts, d: int) -> np.ndarray:
    """``starts`` as a float array (B, 2, d), row b being (x, xi)."""
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 3 or starts.shape[1:] != (2, d):
        raise ValueError(f"starts must be an array of shape (B, 2, {d}), got {starts.shape}")
    return starts


def _distinct_rows(a: np.ndarray):
    """The distinct rows of a 2-d array and, for each row, its index among them."""
    order = np.lexsort(a.T)
    new = np.concatenate(([True], np.any(a[order[1:]] != a[order[:-1]], axis=1)))
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return a[order[new]], inverse


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched small-matrix product a @ b over the leading (broadcast) axes.

    For n x n factors with n of a few, ``einsum`` loops along the long batch
    axes where ``@`` dispatches one small product per matrix.
    """
    return np.einsum("...ij,...jk->...ik", a, b)


def _step_polynomial(field: DampingField, xis: np.ndarray, h: float) -> np.ndarray:
    """Fourier coefficients C_f of the RK4 step Phi(y) of G' = -a G at momentum xi0.

    Phi(y) = sum_f C_f e^{i f.y} over the integer box |f|_inf <= 4K, and the
    step [t, t + h] of the start (x0, xi0) is S(t) = Phi(x0 + 2 xi0 t);
    returns C of shape (B, n*n, F) for the momenta ``xis`` (B, d), with
    F = (8K + 1)^d and f in C order.  Phi(y) is the classical RK4 update in
    its nested stage form on the samples B_c = a(y + c xi0 h), c = 0, 1, 2,

      K2 = B2 (h/2 B1 - I),  K3 = B2 (-h/2 K2 - I),  K4 = B3 (-h K3 - I),
      S  = I + (h/6) (2 (K2 + K3) + K4 - B1)

    (K_i is the i-th stage slope divided by G).  Phi is a product of at most
    four samples of a, a trigonometric polynomial over |f|_inf <= 4K, so one
    DFT of Phi on the grid y = 2 pi m / (8K + 1), m in {0, ..., 8K}^d, gives
    its coefficients exactly.  Matrices are held as component planes
    (3 stages, n, n, B, grid).
    """
    ks, As = field.modes()
    d, n, N = field.d, field.n, 8 * field.K + 1
    grid = (2.0 * math.pi / N) * np.indices((N,) * d).reshape(d, -1).T
    # a(y + c xi0 h) = sum_k (A_k e^{ik.c xi0 h}) e^{ik.y}, stage c first: one gemm
    # of the phased coefficients (3, B, n, n, J) against the waves (J, grid)
    amp = np.exp(1j * (((h * np.arange(3))[:, None, None] * xis) @ ks.T))
    phased = (amp[:, :, None, None, :] * As.transpose(1, 2, 0)).reshape(3 * len(xis) * n * n, -1)
    samples = (phased @ np.exp(1j * (grid @ ks.T)).T).reshape(3, len(xis), n, n, -1)
    B1, B2, B3 = samples.transpose(0, 2, 3, 1, 4).copy()
    diag = (np.arange(n),) * 2

    def stage(Bc, Y, scale):
        # the plane product Bc (scale Y - I)
        Y = scale * Y
        Y[diag] -= 1.0
        return sum(Bc[:, m, None] * Y[m] for m in range(n))

    K2 = stage(B2, B1, 0.5 * h)
    K3 = stage(B2, K2, -0.5 * h)
    S = (h / 6.0) * (2.0 * (K2 + K3) + stage(B3, K3, -h) - B1)
    S[diag] += 1.0
    axes = tuple(range(3, 3 + d))
    S = np.fft.fftn(S.reshape(n, n, -1, *(N,) * d), axes=axes, norm="forward")
    return np.fft.fftshift(S, axes=axes).reshape(n * n, len(xis), -1).transpose(1, 0, 2).copy()


def _phase_table(starts: np.ndarray, R: int, coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """e^{i f.(x0 + 2 xi t)} over the box |f|_inf <= R (f in C order), the
    starts (B, 2, d) of rows (x0, xi) and the times t = coarse + fine,
    fine-major: shape (B, F, fine.size * coarse.size).

    One exponential per dimension, factored as e^{i (x0 + 2 xi fine)} e^{2i xi coarse};
    the other frequencies are its powers, and negative powers are conjugates.
    """
    B, steps = len(starts), fine.size * coarse.size
    table = None
    for i in range(starts.shape[2]):
        x0, w = 1j * starts[:, 0, i, None], 2j * starts[:, 1, i, None]
        z = (np.exp(x0 + w * fine)[:, :, None] * np.exp(w * coarse)[:, None, :]).reshape(B, steps)
        powers = np.empty((B, 2 * R + 1, steps), dtype=complex)
        powers[:, R] = 1.0
        for p in range(1, R + 1):
            np.multiply(powers[:, R + p - 1], z, out=powers[:, R + p])
        np.conjugate(powers[:, :R:-1], out=powers[:, :R])
        table = powers if table is None else (table[:, :, None] * powers[:, None]).reshape(B, -1, steps)
    return table


def _fold_steps(S: np.ndarray) -> np.ndarray:
    """Product S[:, :, w-1] ... S[:, :, 0] of step matrices stored as
    component planes S (n, n, w, ...): returns (n, n, ...).

    Each entry of the product is a sum of n plane products, formed in place
    over the long trailing axes.
    """
    n, w = S.shape[0], S.shape[2]
    W = S[:, :, 0]
    if w == 1:
        return W
    W, new, tmp = W.copy(), np.empty_like(W), np.empty_like(W)
    for j in range(1, w):
        Sj = S[:, :, j]
        np.multiply(Sj[:, 0, None], W[0], out=new)
        for m in range(1, n):
            new += np.multiply(Sj[:, m, None], W[m], out=tmp)
        W, new = new, W
    return W


def plan_steps(T: float, dt: float) -> tuple[int, float]:
    """Step count and effective step of the fixed-step scheme on [0, T].

    The count is ceil(T/dt) and the step is stretched to T/count so the
    horizon is hit exactly.
    """
    if not math.isfinite(T) or T < 0.0:
        raise ValueError(f"horizon T={T} must be finite and >= 0")
    if not (dt > 0.0) or not math.isfinite(dt):
        raise ValueError(f"step dt={dt} must be positive and finite")
    if not T / dt <= 2.0**53:  # step times h * index are exact in float64 only up to 2**53
        raise ValueError(f"horizon T={T:g} at step dt={dt:g} needs {T / dt:.3g} steps, above 2**53")
    M = int(math.ceil(T / dt - 1e-9)) if T > 0 else 0
    return M, (T / M if M else dt)


def safe_cadence(field: DampingField, h: float) -> int | float:
    """Longest window, in RK4 steps of size h, whose product has
    log-condition at most ``_GROUP_LOG_COND``: 2 * sum_k ||A_k||_2 * tau
    bounds it over a window of duration tau.  Unbounded (inf) for a zero field.

    The reach h * ``field.norm_bound`` bounds h ||a(x)||_2 over the whole
    manifold; ValueError when it reaches RK4's stability limit on the
    negative real axis, where the scheme can grow a mode that the ODE damps.
    """
    reach = h * field.norm_bound
    if reach >= _RK4_REAL_LIMIT:
        raise ValueError(f"step h={h:g} times the bound on ||a|| is {reach:g} >= "
                         f"{_RK4_REAL_LIMIT}, outside RK4's stability interval; lower dt")
    if reach == 0.0:
        return math.inf
    return max(1, math.floor(0.5 * _GROUP_LOG_COND / reach))


def window_products(field: DampingField, starts: np.ndarray, T: float, dt: float,
                    window: int = _DEFAULT_GROUP):
    """Yield cocycle transfer matrices over successive windows of RK4 steps.

    ``starts`` is a float array (B, 2, d) whose row b is the start (x, xi).
    Yields arrays of shape (B, n_windows_in_chunk, n, n) in time order where
    index i advances G across `window` consecutive steps, clamped to
    ``safe_cadence`` and to the run (the final window of the run may be
    shorter).  The product of all yielded matrices, rightmost factor first,
    is G_T.

    The step matrices of a chunk come from one batched gemm of the
    ``_step_polynomial`` coefficients, built once per distinct momentum,
    against the ``_phase_table`` of the starts and the chunk's step times,
    ordered (step within window, window) so that the window fold multiplies
    contiguous (batch, window) planes.  A chunk's tables and step matrices
    hold at most ``_CHUNK_BUDGET`` entries, or one window of one start.

    Raises ValueError from ``safe_cadence`` when the step is outside RK4's
    stability interval, and when the coefficient box is above ``_MAX_BOX``.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    box = (8 * field.K + 1) ** field.d  # exact: K may be past the float range
    if box > _MAX_BOX:
        raise ValueError(f"the damping band K={Decimal(field.K):.3g} on d={field.d} needs a "
                         f"coefficient box (8K + 1)^d = {Decimal(box):.3g} above {_MAX_BOX}")
    starts = _check_starts(starts, field.d)
    B = len(starts)
    M, h = plan_steps(T, dt)
    if M == 0:
        return
    n = field.n
    window = min(window, safe_cadence(field, h), M)
    xis, inverse = _distinct_rows(starts[:, 1])
    C = _step_polynomial(field, xis, h)
    cost = box + n * n  # entries per start and step: its phases and its step matrix
    # equal slices of the batch when one window of all of it is over the budget
    rows = max(1, min(B, _CHUNK_BUDGET // (cost * window)))
    rows = -(-B // -(-B // rows))
    steps_per_chunk = max(window, (_CHUNK_BUDGET // (rows * cost)) // window * window)
    s0 = 0
    while s0 < M:
        s1 = min(s0 + steps_per_chunk, M)
        n_win = -(-(s1 - s0) // window)
        coarse, fine = h * (s0 + window * np.arange(n_win)), h * np.arange(window)
        parts = []
        for b in range(0, B, rows):
            S = np.matmul(C[inverse[b:b + rows]], _phase_table(starts[b:b + rows], 4 * field.K,
                                                              coarse, fine))
            S = np.ascontiguousarray(S.reshape(-1, n, n, window, n_win).transpose(1, 2, 3, 0, 4))
            # identity steps fill the run's short final window
            S[:, :, s1 - s0 - window * (n_win - 1):, :, -1] = np.eye(n)[:, :, None, None]
            parts.append(_fold_steps(S).transpose(2, 3, 0, 1))
            del S  # before the next slice's table
        yield parts[0] if len(parts) == 1 else np.concatenate(parts)
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


def propagate_many(field: DampingField, starts: np.ndarray, T: float,
                   dt: float) -> tuple[np.ndarray, np.ndarray]:
    """G_T for a batch of starts, a float array (B, 2, d) of rows (x, xi).

    Returns (units (B, n, n), logs (B,)) with G_T(starts[b]) =
    e^{logs[b]} units[b] and each unit of RMS entry size 1, folded from the
    default ``window_products`` windows.
    """
    B, n = len(starts), field.n
    units = np.broadcast_to(np.eye(n, dtype=complex), (B, n, n)).copy()
    logs = np.zeros(B)
    for W in window_products(field, starts, T, dt):
        units, logs = _compose(*_scaled_reduce(W), units, logs)
    return units, logs


def propagate(field: DampingField, start: PhasePoint, T: float, dt: float) -> ScaledMatrix:
    """G_T(start) by fixed-step RK4 along the exact trajectory (one-row ``propagate_many``)."""
    units, logs = propagate_many(field, phase_array([start]), T, dt)
    return ScaledMatrix(units[0], float(logs[0]))


def _line_integrals(field: DampingField, starts: np.ndarray, T: float) -> np.ndarray:
    """Exact integrals of a along the trajectories of ``starts`` (B, 2, d) over
    [0, T]: shape (B, n, n).

    Each Fourier mode has the elementary antiderivative
    (e^{i w T} - 1)/(i w) with w = 2 k.xi0; resonant modes (|w| < 1e-12, which
    includes k = 0) contribute linear terms T: along x_t = x0 + 2 xi0 t the
    mode A_k e^{ik.x} is A_k e^{ik.x0} e^{2i(k.xi0)t}.
    """
    ks, As = field.modes()
    w = 2.0 * (starts[:, 1] @ ks.T)
    res = np.abs(w) < 1e-12
    modes = np.where(res, T, (np.exp(1j * w * T) - 1.0) / np.where(res, 1.0, 1j * w))
    return np.einsum("bj,jmn->bmn", np.exp(1j * (starts[:, 0] @ ks.T)) * modes, As)


def line_integral(field: DampingField, start: PhasePoint, T: float) -> np.ndarray:
    """Exact integral of a along the trajectory of `start` over [0, T] (one-row
    ``_line_integrals``)."""
    return _line_integrals(field, phase_array([start]), T)[0]


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
