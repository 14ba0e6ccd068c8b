import json
import math

import numpy as np
import pytest

from dampedwave.damping import (
    DampingField,
    extremal_bounds,
    one_plus_cos,
    random_field,
)


def naive_eval(field, x):
    # term-by-term oracle, independent of the vectorized path
    H = np.zeros((field.n, field.n), dtype=complex)
    for k, A in field.coeffs.items():
        H = H + A * np.exp(1j * np.dot(k, np.atleast_1d(x)))
    return H


def test_constant_field_evaluates_to_constant():
    f = DampingField.constant([[0.3]])
    for x in (0.0, 1.0, 5.5):
        assert abs(f.at(x)[0, 0] - 0.3) < 1e-15


def test_one_plus_cos_at_zero():
    f = one_plus_cos()
    assert abs(f.at(0.0)[0, 0] - 2.0) < 1e-14
    assert abs(f.at(math.pi)[0, 0]) < 1e-14


def test_pointwise_hermitian_invariant():
    rng = np.random.default_rng(5)
    f = random_field(3, 2, amplitude=1.3, seed=9)
    for _ in range(100):
        H = f.at(rng.uniform(0, 2 * math.pi))
        assert np.linalg.norm(H - H.conj().T, ord=2) < 1e-12


def test_eval_matches_naive_sum():
    rng = np.random.default_rng(2)
    f = random_field(2, 3, amplitude=0.8, seed=4)
    for _ in range(25):
        x = rng.uniform(0, 2 * math.pi)
        H = f.at(x)
        ref = naive_eval(f, x)
        ref = 0.5 * (ref + ref.conj().T)
        assert np.max(np.abs(H - ref)) < 1e-13


def per_point_eval(field, x):
    # the one-point form: phases k . x for one x of shape (d,)
    ks, As = field.modes()
    H = np.tensordot(np.exp(1j * ks @ np.atleast_1d(x)), As, axes=(0, 0))
    return 0.5 * (H + H.conj().T)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_at_matches_per_point_formula(n, d):
    rng = np.random.default_rng(10 * n + d)
    f = random_field(n, 1, amplitude=0.8, seed=n + d, d=d)
    for shape in ((13, d), (7, 5, d)):
        xs = rng.uniform(-7.0, 7.0, size=shape)
        H = f.at(xs)
        assert H.shape == shape[:-1] + (n, n)
        for idx in np.ndindex(shape[:-1]):
            assert np.max(np.abs(H[idx] - per_point_eval(f, xs[idx]))) < 1e-14
    if d == 1:
        assert np.max(np.abs(f.at(2.5) - per_point_eval(f, 2.5))) < 1e-14


def test_field_without_coefficients_evaluates_to_zeros():
    f = DampingField(2, 1, {})
    for x, shape in ((np.linspace(0.0, 6.0, 9)[:, None], (9, 2, 2)), (1.3, (2, 2))):
        H = f.at(x)
        assert H.shape == shape and not np.any(H)


def test_extremal_bounds_constant():
    eb = extremal_bounds(DampingField.constant([[0.7]]))
    assert eb.a_minus == pytest.approx(0.7, abs=1e-12)
    assert eb.a_plus == pytest.approx(0.7, abs=1e-12)
    assert not eb.indefinite


def test_extremal_bounds_one_plus_cos():
    eb = extremal_bounds(one_plus_cos())
    assert eb.a_minus == pytest.approx(0.0, abs=1e-12)
    assert eb.a_plus == pytest.approx(2.0, abs=1e-12)


def test_extremal_bounds_diagonal():
    eb = extremal_bounds(DampingField.constant(np.diag([1.0, 2.0])))
    assert (eb.a_minus, eb.a_plus) == (pytest.approx(1.0), pytest.approx(2.0))


def test_extremal_bounds_monotone_in_refinement():
    f = random_field(2, 2, amplitude=0.9, seed=13)
    coarse = extremal_bounds(f, grid_points=2 * f.K + 1)
    fine = extremal_bounds(f, grid_points=16 * (f.K + 1))
    assert fine.a_minus <= coarse.a_minus + 1e-9
    assert coarse.a_plus <= fine.a_plus + 1e-9


@pytest.mark.parametrize("field,g", [
    (random_field(1, 1, 0.6, seed=3, d=2), 24),
    (random_field(2, 2, 0.9, seed=13), 64),
    (random_field(3, 1, 0.8, seed=7), 16),
    (DampingField.zero(2, 1), 8),
])
def test_extremal_bounds_matches_pointwise_scan(field, g):
    # the batched scan against one eigvalsh per grid point on the naive evaluation
    grid = 2.0 * math.pi * np.arange(g) / g
    lo, hi = math.inf, -math.inf
    for x in np.stack(np.meshgrid(*([grid] * field.d), indexing="ij"), axis=-1).reshape(-1, field.d):
        H = naive_eval(field, x)
        w = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
        lo, hi = min(lo, w[0]), max(hi, w[-1])
    eb = extremal_bounds(field, grid_points=g)
    assert abs(eb.a_minus - lo) <= 1e-14 * (1.0 + abs(lo))
    assert abs(eb.a_plus - hi) <= 1e-14 * (1.0 + abs(hi))


def test_extremal_bounds_rejects_coarse_grid():
    with pytest.raises(ValueError):
        extremal_bounds(one_plus_cos(), grid_points=2)


def test_random_field_contracts():
    f0 = random_field(2, 0, seed=1)
    assert set(f0.coeffs) == {(0,)}
    a = random_field(2, 2, amplitude=0.5, seed=11)
    b = random_field(2, 2, amplitude=0.5, seed=11)
    assert all(np.array_equal(a.coeffs[k], b.coeffs[k]) for k in a.coeffs)
    c = random_field(2, 2, amplitude=0.5, seed=12)
    assert any(not np.array_equal(a.coeffs[k], c.coeffs[k]) for k in a.coeffs)


def test_construction_rejects_broken_symmetry():
    bad = {(0,): np.array([[0.0]]), (1,): np.array([[1.0]]), (-1,): np.array([[0.5]])}
    with pytest.raises(ValueError):
        DampingField(1, 1, bad)


@pytest.mark.parametrize("n, d", [("1", 1), (1, 1.0), (True, 1), (0, 1), (1, 0), (1.5, 1)])
def test_construction_rejects_bad_sizes(n, d):
    with pytest.raises(ValueError, match="integer >= 1"):
        DampingField(n, d, {})


def test_json_roundtrip_bit_exact():
    f = random_field(2, 2, amplitude=1.7, seed=3)
    text = f.to_json()
    g = DampingField.from_json(text)
    assert text == g.to_json()
    for k in f.coeffs:
        assert np.array_equal(f.coeffs[k], g.coeffs[k])
    doc = json.loads(text)
    assert set(doc) == {"n", "d", "K", "coeffs"}


ONE = np.array([[1.0 + 0j]])


@pytest.mark.parametrize("coeffs, word", [
    ({(0,): ONE, (0.7,): 5.0 * ONE}, "integers"),
    ({(0,): ONE, (1.5,): ONE, (-1.5,): ONE}, "integers"),
    ({(0,): ONE, (True,): ONE, (-1,): ONE}, "integers"),
    ({(0,): ONE, 0: 2.0 * ONE}, "repeated"),
    ({(0,): np.array([[math.nan]])}, "finite"),
    ({(0,): ONE, (1,): np.array([[math.inf]]), (-1,): np.array([[math.inf]])}, "finite"),
])
def test_construction_rejects_bad_frequencies_and_coefficients(coeffs, word):
    with pytest.raises(ValueError, match=word):
        DampingField(1, 1, coeffs)


def test_from_json_rejects_a_repeated_frequency():
    doc = {"n": 1, "d": 1, "coeffs": [{"k": [0], "re": [[1.0]], "im": [[0.0]]},
                                      {"k": [0.0], "re": [[5.0]], "im": [[0.0]]}]}
    with pytest.raises(ValueError, match="repeated"):
        DampingField.from_json(json.dumps(doc))
    doc["coeffs"].pop()
    doc["coeffs"][0]["k"] = [0.0]
    assert DampingField.from_json(json.dumps(doc)).coeffs.keys() == {(0,)}


def test_shifted_moves_spectrum():
    f = random_field(2, 1, amplitude=0.6, seed=8)
    eb = extremal_bounds(f)
    g = f.shifted(-eb.a_minus + 0.25)
    ebg = extremal_bounds(g)
    assert ebg.a_minus == pytest.approx(0.25, abs=1e-9)
