import itertools
import math

import numpy as np
import pytest

from dampedwave.geometry import Manifold, PhasePoint, flow, mode_lattice, sample_shell

SQRT2 = math.sqrt(2.0)


def test_flow_fixed_point_at_zero_momentum():
    p = PhasePoint((0.0,), (0.0,))
    q = flow(p, 5.0)
    assert q.x == (0.0,) and q.xi == (0.0,)


def test_flow_matches_straight_line():
    p = PhasePoint((1.0,), (1.0 / SQRT2,))
    q = flow(p, math.pi)
    expected = (1.0 + SQRT2 * math.pi) % (2.0 * math.pi)
    assert abs(q.x[0] - expected) < 1e-12
    assert q.xi == p.xi


def test_flow_group_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = PhasePoint(tuple(rng.uniform(0, 2 * math.pi, 2)), tuple(rng.standard_normal(2)))
        s, t = rng.uniform(-3, 3, 2)
        q1 = flow(flow(p, s), t)
        q2 = flow(p, s + t)
        assert np.allclose(q1.x, q2.x, atol=1e-12)
        # and back again
        back = flow(q2, -(s + t))
        assert np.allclose(back.x, p.x, atol=1e-12)


def test_flow_conserves_kinetic_energy_exactly():
    p = PhasePoint((0.3, 5.1), (0.7, -0.2))
    q = flow(p, 17.3)
    assert sum(v * v for v in q.xi) == sum(v * v for v in p.xi)


def test_sample_shell_circle_two_momenta():
    pts = sample_shell(4, 0.5, d=1, seed=3)
    r = 1.0 / SQRT2
    for p in pts:
        assert abs(abs(p.xi[0]) - r) < 1e-15


def test_sample_shell_deterministic_and_per_index():
    a = sample_shell(1000, 0.5, d=1, seed=42)
    b = sample_shell(1000, 0.5, d=1, seed=42)
    assert all(pa.x == pb.x and pa.xi == pb.xi for pa, pb in zip(a, b))
    # per-(seed, index): a shorter run is a prefix of a longer one
    c = sample_shell(10, 0.5, d=1, seed=42)
    assert all(pa.x == pc.x for pa, pc in zip(a[:10], c))


def test_sample_shell_on_shell_exactly():
    for p in sample_shell(200, 0.5, d=2, seed=1):
        assert abs(sum(v * v for v in p.xi) - 0.5) < 1e-14


def test_sample_shell_torus_momentum_mean_small():
    pts = sample_shell(1000, 0.5, d=2, seed=7)
    mean = np.mean([p.xi for p in pts], axis=0)
    assert np.all(np.abs(mean) < 0.1)


def test_sample_shell_rejects_bad_energy():
    with pytest.raises(ValueError):
        sample_shell(5, 0.0, d=1, seed=0)
    with pytest.raises(ValueError):
        sample_shell(0, 1.0, d=1, seed=0)


def test_manifold_validation():
    with pytest.raises(ValueError):
        Manifold("circle", 2)
    with pytest.raises(ValueError):
        Manifold("sphere", 2)


@pytest.mark.parametrize("N,d", [(0, 1), (3, 1), (2, 2), (1, 3)])
def test_mode_lattice_is_the_sorted_box(N, d):
    box = sorted(itertools.product(range(-N, N + 1), repeat=d))
    modes = mode_lattice(N, d)
    assert modes.shape == ((2 * N + 1) ** d, d) and modes.dtype.kind == "i"
    assert [tuple(k) for k in modes.tolist()] == box
