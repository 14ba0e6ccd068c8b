import json
import math

import numpy as np
import pytest

from dampedwave import spectrum
from dampedwave.damping import DampingField, one_plus_cos, random_field
from dampedwave.geometry import Manifold
from dampedwave.spectrum import (
    assemble,
    convergence_check,
    eigenvalues_tau,
    scalar_constant_taus,
    solve,
)

CIRCLE = Manifold("circle", 1)


def match_distance(taus, oracle):
    return max(float(np.min(np.abs(oracle - t))) for t in taus)


def test_assemble_zero_damping_block():
    gen = assemble(DampingField.zero(1, 1), CIRCLE, 2)
    M = 5
    assert np.allclose(gen.matrix[M:, M:], 0.0)
    lap = np.diag(gen.matrix[M:, :M]).real
    assert list(lap) == [-(k * k) for k in range(-2, 3)]


def test_assemble_constant_damping_block():
    gen = assemble(DampingField.constant(0.3 * np.eye(2)), CIRCLE, 1)
    Mn = 3 * 2
    assert np.allclose(gen.matrix[Mn:, Mn:], -0.6 * np.eye(Mn))


def test_assemble_one_plus_cos_tridiagonal():
    gen = assemble(one_plus_cos(), CIRCLE, 8)
    M = 17
    damp = gen.matrix[M:, M:]
    assert np.allclose(np.diag(damp), -2.0)
    assert np.allclose(np.diag(damp, 1), -1.0)
    assert np.allclose(np.diag(damp, -1), -1.0)
    assert np.allclose(np.diag(damp, 2), 0.0)


def test_undamped_spectrum_is_plus_minus_k():
    spec = solve(DampingField.zero(1, 1), CIRCLE, 16)
    rel = spec.reliable()
    assert np.max(np.abs(rel.imag)) < 1e-10
    # each tau = k in [-8, 8] appears twice (modes +-k), tau = 0 twice (mode 0)
    vals, counts = np.unique(np.round(rel.real).astype(int), return_counts=True)
    assert list(vals) == list(range(-8, 9))
    assert all(c == 2 for c in counts)


def test_constant_damping_matches_quadratic_formula():
    spec = solve(DampingField.constant([[0.7]]), CIRCLE, 64)
    oracle = scalar_constant_taus(0.7, 64)
    assert match_distance(spec.reliable(), oracle) < 1e-8


def test_block_diagonal_union_oracle():
    a1, a2 = 0.4, 1.1
    f = DampingField.constant(np.diag([a1, a2]))
    spec = solve(f, CIRCLE, 32)
    oracle = np.concatenate([scalar_constant_taus(a1, 32), scalar_constant_taus(a2, 32)])
    assert match_distance(spec.reliable(), oracle) < 1e-8


def test_reality_symmetry():
    f = random_field(2, 1, amplitude=0.8, seed=3)
    spec = solve(f, CIRCLE, 24)
    rel = spec.reliable()
    defect = max(float(np.min(np.abs(rel + np.conj(t)))) for t in rel)
    assert defect < 1e-6


def test_convergence_check_values():
    assert convergence_check(DampingField.zero(1, 1), CIRCLE, 16) < 1e-9
    assert convergence_check(DampingField.constant([[0.5]]), CIRCLE, 16) < 1e-10
    assert convergence_check(one_plus_cos(), CIRCLE, 64) < 1e-6


def test_strip_count_stable_under_refinement():
    f = one_plus_cos()
    coarse = solve(f, CIRCLE, 64)
    fine = solve(f, CIRCLE, 128)
    from dampedwave.analysis import strip_outliers

    margin = 0.1
    n_coarse = strip_outliers(coarse, 0.99, 1.01, margin, re_min=10.0).size
    sel = fine.taus[np.abs(fine.taus.real) <= coarse.reliable_limit]
    fine_limited = type(fine)(sel, coarse.N, coarse.reliable_limit, fine.meta)
    n_fine = strip_outliers(fine_limited, 0.99, 1.01, margin, re_min=10.0).size
    assert n_fine <= n_coarse


def test_coarse_confinement_in_damping_range():
    # far to the right, Im tau settles inside [a_minus, a_plus] (+-0.05)
    from dampedwave.damping import extremal_bounds

    for f in (one_plus_cos(), DampingField.constant([[0.7]])):
        eb = extremal_bounds(f)
        spec = solve(f, CIRCLE, 64)
        rel = spec.reliable()
        far = rel[rel.real >= 10.0 * (eb.a_plus - eb.a_minus + 1.0)]
        assert far.size > 0
        assert np.all(far.imag >= eb.a_minus - 0.05)
        assert np.all(far.imag <= eb.a_plus + 0.05)


def test_assemble_rejections():
    with pytest.raises(ValueError):
        assemble(one_plus_cos(), CIRCLE, 0)  # N < K
    with pytest.raises(ValueError, match="side"):
        assemble(DampingField.zero(1, 1), CIRCLE, 2000)
    with pytest.raises(ValueError):
        eigenvalues_tau(assemble(DampingField.zero(1, 1), CIRCLE, 4), reliability_fraction=0.0)


def test_torus_assembly_and_undamped_modes():
    torus = Manifold("flat_torus", 2)
    spec = solve(DampingField.zero(1, 2), torus, 4)
    rel = spec.reliable()
    # tau values are +-|k| for lattice points |k|_inf <= 4
    ks = np.array([math.sqrt(i * i + j * j) for i in range(-4, 5) for j in range(-4, 5)])
    oracle = np.concatenate([ks, -ks])
    assert match_distance(rel, oracle) < 1e-8


def test_csv_and_metadata():
    f = DampingField.constant([[0.5]])
    spec = solve(f, CIRCLE, 8)
    csv = spec.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "re_tau,im_tau"
    assert len(lines) == 1 + spec.reliable().size
    re0, im0 = map(float, lines[1].split(","))
    assert np.min(np.abs(spec.reliable() - (re0 + 1j * im0))) < 1e-15
    meta = json.loads(spec.metadata_json())
    assert meta["N"] == 8 and meta["n"] == 1 and meta["manifold"] == "circle"
    assert meta["field_hash"]


def test_eigenvalues_lost_to_overflow_are_reported():
    # at amplitude 1e308 the eigensolver returns some eigenvalues as inf or NaN;
    # the overflowing symmetry test must not warn (filterwarnings = error)
    gen = assemble(random_field(2, 1, 1e308), CIRCLE, 4)
    with pytest.raises(np.linalg.LinAlgError, match="non-finite eigenvalues of 36 on side 36"):
        eigenvalues_tau(gen)
    assert np.all(np.isfinite(solve(random_field(2, 1, 1e307), CIRCLE, 4).taus))


TORUS = Manifold("flat_torus", 2)
BUILDER_CASES = [
    (random_field(1, 2, 0.6, seed=11), CIRCLE, 6),
    (random_field(2, 2, 0.6, seed=12), CIRCLE, 5),
    (random_field(3, 1, 0.8, seed=13), CIRCLE, 4),
    (random_field(2, 1, 0.6, seed=14, d=2), TORUS, 3),
]


def loop_generator(field, modes):
    """The generator and multiplication matrix by one loop over (coefficient, mode)."""
    n, M = field.n, len(modes)
    index = {tuple(k): i for i, k in enumerate(modes)}
    D = np.zeros((M * n, M * n), dtype=complex)
    for k_c, A in field.coeffs.items():
        for col, k_m in enumerate(index):
            row = index.get(tuple(kc + km for kc, km in zip(k_c, k_m)))
            if row is not None:
                D[row * n:(row + 1) * n, col * n:(col + 1) * n] += A
    G = np.zeros((2 * M * n, 2 * M * n), dtype=complex)
    G[:M * n, M * n:] = np.eye(M * n)
    G[M * n:, :M * n] = np.kron(np.diag(-np.sum(modes.astype(float) ** 2, axis=1)), np.eye(n))
    G[M * n:, M * n:] = -2.0 * D
    return G, D


@pytest.mark.parametrize("field,manifold,N", BUILDER_CASES)
def test_block_builder_matches_loop_oracle(field, manifold, N):
    modes = spectrum.mode_lattice(N, manifold.d)
    G, D = loop_generator(field, modes)
    assert np.array_equal(spectrum.multiplication_blocks(field, modes), D)
    assert np.array_equal(assemble(field, manifold, N).matrix, G)


@pytest.mark.parametrize("field,manifold,N", BUILDER_CASES)
def test_band_storage_is_the_interleaved_generator(field, manifold, N):
    modes = spectrum.mode_lattice(N, manifold.d)
    ab, bw = spectrum._band(field, modes)
    n, M = field.n, len(modes)
    side = 2 * n * M
    if manifold.d == 1:
        assert bw == 2 * n * field.K + n - 1
    i, j = np.indices((side, side))
    inside = np.abs(i - j) <= bw
    inter = np.zeros((side, side), dtype=complex)
    inter[inside] = ab[(2 * bw + i - j)[inside], j[inside]]
    # interleaved position of dense index p*M*n + m*n + a is (2m + p)*n + a
    p, m, a = np.unravel_index(np.arange(side), (2, M, n))
    perm = (2 * m + p) * n + a
    assert np.array_equal(inter[np.ix_(perm, perm)], assemble(field, manifold, N).matrix)
    assert not np.any(ab[:bw])


CERTIFICATE_CASES = [
    (DampingField.zero(1, 1), CIRCLE, 16),
    (DampingField.constant([[0.5]]), CIRCLE, 16),
    (one_plus_cos(), CIRCLE, 64),
    (random_field(2, 2, 0.6, seed=5), CIRCLE, 24),
    (random_field(3, 1, 0.8, seed=7), CIRCLE, 20),
    (random_field(1, 1, 0.6, seed=3, d=2), TORUS, 4),
]


@pytest.mark.parametrize("field,manifold,N", CERTIFICATE_CASES)
def test_certificate_distances_match_dense_reference(field, manifold, N):
    fine = solve(field, manifold, 2 * N).taus
    ref = np.array([np.min(np.abs(fine - t)) for t in solve(field, manifold, N).reliable()])
    got = spectrum._fine_distances(field, manifold, N)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) < 1e-10
    assert convergence_check(field, manifold, N) == np.max(got)


def test_unconverged_torus_certificate_is_reported():
    # too coarse a cutoff: the certificate fails, and says by how much
    f = random_field(1, 1, 0.6, seed=3, d=2)
    assert convergence_check(f, TORUS, 4) == pytest.approx(3.655e-3, abs=1e-6)


def test_certificate_needs_only_the_coarse_side_under_the_cap(monkeypatch):
    f = random_field(2, 2, 0.6, seed=5)
    expected = convergence_check(f, CIRCLE, 24)
    monkeypatch.setattr(spectrum, "SIDE_CAP", 300)
    with pytest.raises(ValueError, match="dense cap"):
        assemble(f, CIRCLE, 48)  # side 388
    assert convergence_check(f, CIRCLE, 24) == expected  # coarse side 196


def test_inverse_iteration_cap_is_diagnosed(monkeypatch):
    monkeypatch.setattr(spectrum, "_INVERSE_STEPS", 1)
    with pytest.raises(np.linalg.LinAlgError, match="tau ="):
        convergence_check(random_field(1, 1, 0.6, seed=3, d=2), TORUS, 4)


def _real_symmetric_field():
    """A real symmetric 2 x 2 field with K = 1: A_0 real, A_1 complex symmetric, A_-1 = conj(A_1)."""
    A0 = np.array([[0.7, 0.2], [0.2, 0.4]], dtype=complex)
    A1 = np.array([[0.3 + 0.1j, 0.05 - 0.2j], [0.05 - 0.2j, -0.1 + 0.3j]])
    return DampingField(2, 1, {(0,): A0, (1,): A1, (-1,): A1.conj()})


REAL_CASES = [
    (random_field(1, 1, 0.6, seed=3, d=2), TORUS, 5),
    (one_plus_cos(), CIRCLE, 32),
    (_real_symmetric_field(), CIRCLE, 16),
]


@pytest.mark.parametrize("field,manifold,N", REAL_CASES)
def test_real_fields_take_the_real_form(field, manifold, N):
    gen = assemble(field, manifold, N)
    mu = np.linalg.eigvals(gen.matrix)
    spec = eigenvalues_tau(gen, field=field)
    assert spec.meta["eig_form"] == "real"
    assert match_distance(1j * spec.taus, mu) <= 1e-10 * np.max(np.abs(mu))
    assert match_distance(mu, 1j * spec.taus) <= 1e-10 * np.max(np.abs(mu))
    # the real form makes the tau <-> -conj(tau) pairing exact
    assert max(float(np.min(np.abs(spec.taus + np.conj(t)))) for t in spec.taus) == 0.0


def test_complex_hermitian_field_keeps_the_complex_matrix(monkeypatch):
    seen = []
    eigvals = np.linalg.eigvals

    def record(a):
        seen.append(a.dtype)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", record)
    assert solve(random_field(2, 1, 0.6, seed=1), CIRCLE, 8).meta["eig_form"] == "complex"
    assert solve(one_plus_cos(), CIRCLE, 8).meta["eig_form"] == "real"
    assert seen == [np.dtype(complex), np.dtype(float)]
