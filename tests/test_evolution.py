import math
import struct

import numpy as np
import pytest
from scipy.linalg import circulant

from dampedwave.damping import DampingField, extremal_bounds, one_plus_cos, random_field
from dampedwave.cocycle import propagate
from dampedwave.geometry import Manifold, PhasePoint
from dampedwave import evolution
from dampedwave.evolution import (
    WaveState,
    _energies,
    cocycle_symbol,
    energy,
    energy_balance_residual,
    energy_csv,
    evolve,
    factorization_residual,
    shell_cutoff_symbol,
    single_mode_state,
    state_dump,
)
from dampedwave.geometry import mode_lattice
from dampedwave.quantize import CircleGrid, Symbol, antiwick_build_circle
from dampedwave.spectrum import assemble, multiplication_blocks

CIRCLE = Manifold("circle", 1)


def mode_index(gen, k):
    return list(map(tuple, gen.modes)).index((k,))


def test_undamped_normal_mode():
    N, k = 8, 3
    gen = assemble(DampingField.zero(1, 1), CIRCLE, N)
    traj = evolve(gen, single_mode_state(N, k=k), 10.0, 2e-3, stride=100)
    idx = mode_index(gen, k)
    worst = max(abs(s.u[idx, 0] - math.cos(k * s.t)) for s in traj)
    assert worst < 1e-8


def test_zero_state_stays_zero():
    N = 4
    gen = assemble(DampingField.zero(1, 1), CIRCLE, N)
    z = WaveState(np.zeros((9, 1)), np.zeros((9, 1)), 0.0, N)
    traj = evolve(gen, z, 1.0, 1e-2)
    assert all(np.all(s.u == 0) and np.all(s.v == 0) for s in traj)


def test_energy_parseval_value():
    st = single_mode_state(8, k=3)
    assert energy(st) == pytest.approx(math.pi * 9.0)
    z = WaveState(np.zeros((17, 1)), np.zeros((17, 1)), 0.0, 8)
    assert energy(z) == 0.0


def test_energy_conserved_without_damping():
    N, k = 8, 2
    gen = assemble(DampingField.zero(1, 1), CIRCLE, N)
    traj = evolve(gen, single_mode_state(N, k=k), 10.0, 2e-3, stride=200)
    E0 = energy(traj[0])
    assert max(abs(energy(s) - E0) / E0 for s in traj) < 1e-8


def test_constant_damping_envelope():
    N, k, c = 8, 3, 0.4
    gen = assemble(DampingField.constant([[c]]), CIRCLE, N)
    traj = evolve(gen, single_mode_state(N, k=k), 5.0, 1e-3, stride=100)
    idx = mode_index(gen, k)
    w = math.sqrt(k * k - c * c)
    worst = max(abs(s.u[idx, 0] - math.exp(-c * s.t) * (math.cos(w * s.t) + c / w * math.sin(w * s.t)))
                for s in traj)
    assert worst < 1e-6


def test_semigroup_matches_eigenexpansion():
    # single mode, constant damping: u_k(t) from the two pencil roots
    N, k, c = 6, 2, 0.3
    gen = assemble(DampingField.constant([[c]]), CIRCLE, N)
    traj = evolve(gen, single_mode_state(N, k=k), 4.0, 1e-3, stride=400)
    idx = mode_index(gen, k)
    tau_p = 1j * c + math.sqrt(k * k - c * c)
    tau_m = 1j * c - math.sqrt(k * k - c * c)
    # u(t) = alpha e^{i tau_p t} + beta e^{i tau_m t} with u(0)=1, u'(0)=0
    beta = 1.0 / (1.0 - tau_m / tau_p)
    alpha = 1.0 - beta
    worst = max(abs(s.u[idx, 0] - (alpha * np.exp(1j * tau_p * s.t) + beta * np.exp(1j * tau_m * s.t)))
                for s in traj)
    assert worst < 1e-6


def test_energy_balance_residual_orders():
    f = random_field(2, 1, amplitude=0.6, seed=11)
    gen = assemble(f, CIRCLE, 4)
    st = single_mode_state(4, k=2, n=2)
    r1 = energy_balance_residual(f, evolve(gen, st, 5.0, 1e-4, stride=2))
    assert r1 < 1e-5
    r2 = energy_balance_residual(f, evolve(gen, st, 5.0, 5e-5, stride=2))
    assert r2 < 1e-6
    assert r2 < r1


def test_zero_damping_balance_is_conservation():
    gen = assemble(DampingField.zero(1, 1), CIRCLE, 6)
    traj = evolve(gen, single_mode_state(6, k=2), 2.0, 1e-4, stride=2)
    assert energy_balance_residual(DampingField.zero(1, 1), traj) < 1e-8


def test_psd_damping_energy_monotone():
    base = random_field(2, 1, amplitude=0.5, seed=7)
    f = base.shifted(-extremal_bounds(base).a_minus + 0.05)
    gen = assemble(f, CIRCLE, 4)
    traj = evolve(gen, single_mode_state(4, k=2, n=2), 5.0, 1e-3, stride=20)
    Es = [energy(s) for s in traj]
    assert all(Es[i + 1] <= Es[i] * (1 + 1e-9) for i in range(len(Es) - 1))


def test_evolve_rejections():
    gen = assemble(DampingField.zero(1, 1), CIRCLE, 8)
    st = single_mode_state(8, k=1)
    with pytest.raises(ValueError, match="stability"):
        evolve(gen, st, 1.0, 0.5 / 64)
    with pytest.raises(ValueError, match="cutoff"):
        evolve(gen, single_mode_state(6, k=1), 1.0, 1e-3)


def test_evolve_rejects_overflow():
    # 2 c dt = 4 lies outside RK4's stability interval although dt < 0.5/N^2
    gen = assemble(DampingField.constant([[2000.0]]), CIRCLE, 8)
    with pytest.raises(ValueError, match="finite"):
        evolve(gen, single_mode_state(8, k=1), 1.0, 1e-3, stride=10)


def test_energy_csv_and_state_dump():
    N = 4
    gen = assemble(DampingField.constant([[0.2]]), CIRCLE, N)
    traj = evolve(gen, single_mode_state(N, k=1), 1.0, 1e-2, stride=50)
    csv = energy_csv(traj)
    lines = csv.strip().split("\n")
    assert lines[0] == "t,energy"
    assert len(lines) == len(traj) + 1
    blob = state_dump(traj)
    M = 2 * N + 1
    record = 1 + 2 * M + 2 * M  # t + re/im of u and v
    assert len(blob) == 8 * record * len(traj)
    t0 = struct.unpack("<d", blob[:8])[0]
    assert t0 == traj[0].t


def _reference_evolve(gen, state, T, dt, stride):
    """The per-step loop with one (t, u, v) record per recorded state."""
    steps = int(math.ceil(T / dt - 1e-9)) if T > 0 else 0
    h = T / steps if steps else dt
    A = gen.matrix
    S = np.eye(A.shape[0], dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    for j in range(1, 5):
        term = (h / j) * (A @ term)
        S += term
    M, n = state.u.shape
    w = np.concatenate([state.u.reshape(-1), state.v.reshape(-1)])
    out = [(state.t, state.u, state.v)]
    for m in range(1, steps + 1):
        w = S @ w
        if m % stride == 0 or m == steps:
            out.append((state.t + m * h, w[: M * n].reshape(M, n), w[M * n:].reshape(M, n)))
    return out


def _reference_energy(u, v, N):
    k2 = np.sum(mode_lattice(N, 1).astype(float) ** 2, axis=1)
    return 0.5 * (2 * math.pi) * float(np.sum(np.abs(v) ** 2) + np.sum(k2[:, None] * np.abs(u) ** 2))


def _reference_csv(records, N):
    return "\n".join(["t,energy"] + [f"{t:.17g},{_reference_energy(u, v, N):.17g}"
                                     for t, u, v in records]) + "\n"


def _reference_dump(records):
    parts = []
    for t, u, v in records:
        row = [np.array([t])]
        for block in (u, v):
            flat = block.reshape(-1)
            inter = np.empty(2 * flat.size)
            inter[0::2] = flat.real
            inter[1::2] = flat.imag
            row.append(inter)
        parts.append(np.concatenate(row))
    return np.concatenate(parts).astype("<f8").tobytes()


def _vecdot_flux(V, D):
    return np.real(np.vecdot(V, V @ D.T))


def _einsum_flux(V, D):
    return np.real(np.einsum("si,ij,sj->s", V.conj(), D, V))


def _reference_residual(field, records, N, flux_form=_vecdot_flux):
    modes = mode_lattice(N, 1)
    D = multiplication_blocks(field, modes)
    k2 = np.sum(modes.astype(float) ** 2, axis=1)
    ts = np.array([t for t, _, _ in records])
    U = np.stack([u for _, u, _ in records])
    V = np.stack([v.reshape(-1) for _, _, v in records])
    Es = 0.5 * (2 * math.pi) * (np.sum(np.abs(V) ** 2, axis=1)
                                + np.einsum("m,smc->s", k2, np.abs(U) ** 2))
    flux = 2.0 * (2 * math.pi) * flux_form(V, D)
    dE = (Es[2:] - Es[:-2]) / (ts[2:] - ts[:-2])
    return float(np.max(np.abs(dE + flux[1:-1]) / (1.0 + Es[1:-1])))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("stride", [1, 3, 7])
def test_trajectory_matches_per_step_oracle(n, stride):
    # 100 steps: not a multiple of 3 or 7, so the final state is recorded off-stride
    N, T, dt = 4, 0.1, 1e-3
    f = random_field(n, 1, amplitude=0.6, seed=5)
    gen = assemble(f, CIRCLE, N)
    st = single_mode_state(N, k=2, n=n)
    st = WaveState(st.u, st.u[::-1] * 0.5j, 0.25, N)
    ref = _reference_evolve(gen, st, T, dt, stride)
    traj = evolve(gen, st, T, dt, stride)
    assert len(traj) == len(ref) == 100 // stride + 1 + (100 % stride > 0)
    assert traj.ts.tobytes() == np.array([t for t, _, _ in ref]).tobytes()
    assert traj.u.tobytes() == np.stack([u for _, u, _ in ref]).tobytes()
    assert traj.v.tobytes() == np.stack([v for _, _, v in ref]).tobytes()
    assert energy_csv(traj) == _reference_csv(ref, N)
    assert state_dump(traj) == _reference_dump(ref)
    assert energy_balance_residual(f, traj) == _reference_residual(f, ref, N)
    Es = _energies(traj.u, traj.v, N, 1)
    for i in range(len(traj)):
        assert energy(traj[i]) == Es[i]
        assert energy(traj[i]) == _reference_energy(*ref[i][1:], N)


def test_balance_flux_matches_einsum_form():
    # the decay command's shape (n = 1, S = 10 001 recorded states): the
    # vecdot flux and the residual built on it hold to the three-operand einsum
    N, T, dt = 6, 2.0, 1e-4
    f = one_plus_cos()
    traj = evolve(assemble(f, CIRCLE, N), single_mode_state(N, k=2), T, dt, stride=2)
    records = [(s.t, s.u, s.v) for s in traj]
    V = traj.v.reshape(len(traj), -1)
    D = multiplication_blocks(f, mode_lattice(N, 1))
    fast, ref = _vecdot_flux(V, D), _einsum_flux(V, D)
    assert np.max(np.abs(fast - ref)) <= 1e-13 * np.max(np.abs(ref))
    reference = _reference_residual(f, records, N, flux_form=_einsum_flux)
    assert abs(energy_balance_residual(f, traj) - reference) <= 1e-12 * reference


def test_factorization_baselines_small():
    h = 0.08
    r0 = factorization_residual(DampingField.zero(1, 1), t=1.0, h=h)
    rc = factorization_residual(DampingField.constant([[0.5]]), t=1.0, h=h)
    assert r0 < 1e-10
    assert rc < 1e-9
    r1 = factorization_residual(one_plus_cos(), t=1.0, h=h)
    assert 1e-4 < r1 < 0.2  # genuine O(sqrt(h)) remainder, far above the floor


def test_factorization_matrix_field_baseline():
    # constant matrix damping factorizes exactly; exercises the batched
    # cocycle-symbol path and matrix anti-Wick blocks
    f = DampingField.constant(0.4 * np.eye(2))
    r = factorization_residual(f, t=1.0, h=0.1, symbol_dt=0.01)
    assert r < 1e-8


def test_matrix_cocycle_symbol_matches_propagate_per_node():
    # the symbol at (x, xi) is G_{2t} from the point (x + 2 xi t, -xi / 2)
    f = random_field(2, 1, 0.5, seed=3)
    t, dt = 0.1, 0.01
    x = np.array([[0.3, 6.1, -2.0], [12.0, 3.3, 0.0]])
    xi = np.array([[1.5, -0.7, 0.2], [-3.0, 0.9, 2.4]])
    vals = cocycle_symbol(f, t, dt)(x, xi)
    assert vals.shape == (2, 3, 2, 2)
    for idx in np.ndindex(x.shape):
        start = PhasePoint((x[idx] + 2.0 * xi[idx] * t,), (-0.5 * xi[idx],))
        G = propagate(f, start, 2.0 * t, dt)
        assert np.allclose(vals[idx], math.exp(G.log_scale) * G.unit, rtol=0.0, atol=1e-14)


def test_factorization_rejections():
    with pytest.raises(ValueError):
        factorization_residual(one_plus_cos(), t=1.0, h=2.0)
    with pytest.raises(ValueError):
        factorization_residual(DampingField.zero(1, 2), t=1.0, h=0.05)
    for f in (one_plus_cos(), random_field(2, 1, 0.6, seed=3)):
        for t in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^t must be finite and >= 0"):
                factorization_residual(f, t=t, h=0.15)


@pytest.mark.parametrize("h", [0.1, 0.06])
def test_shell_cutoff_times_identity_is_the_matrix_symbol_build(h):
    # the scalar cutoff quantized once and copied onto each component, against
    # the quantization of the n x n symbol bump (x) I_2
    grid = CircleGrid(2 * evolution.suggest_modes(h), h)
    u = shell_cutoff_symbol()
    ref = antiwick_build_circle(Symbol(lambda x, xi: np.multiply.outer(u(x, xi), np.eye(2)), 2),
                                grid)
    got = np.kron(np.eye(2), antiwick_build_circle(u, grid))
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_damping_add_equals_block_loop(monkeypatch):
    # the generator handed to expm, against the n^2 np.diag block loop over the
    # same values of a
    class Captured(Exception):
        pass

    def capture(M):
        raise Captured(M)

    f, t, h = random_field(2, 1, 0.6, seed=3), 0.1, 0.1
    monkeypatch.setattr(evolution, "expm", capture)
    with pytest.raises(Captured) as info:
        factorization_residual(f, t=t, h=h)
    P, n = 2 * evolution.suggest_modes(h), f.n
    k = np.fft.fftfreq(P, d=1.0 / P)
    ref = np.kron(np.eye(n), circulant(np.fft.ifft(h * h * k * k)))
    a_vals = f.at(CircleGrid(P, h).x[:, None])
    for c in range(n):
        for b in range(n):
            ref[c * P:(c + 1) * P, b * P:(b + 1) * P] += 2j * h * np.diag(a_vals[:, c, b])
    assert np.array_equal(info.value.args[0], (1j * t / h) * ref)
