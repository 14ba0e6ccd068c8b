"""Acceptance battery: closed-form oracles plus decay/stability signatures.

One test per criterion, each printing a PASS line with the measured
numbers (run with `pytest -s tests/test_acceptance.py` to see them).
Criterion 10 gates only the experimental factorization tier.
"""

import math
import time

import numpy as np
import pytest

from dampedwave.analysis import band_outliers, counting, strip_outliers, weyl_prediction
from dampedwave.cocycle import cocycle_residual, line_integral, propagate, scalar_closed_form
from dampedwave.damping import DampingField, one_plus_cos, random_field
from dampedwave.evolution import (
    energy,
    energy_balance_residual,
    evolve,
    factorization_residual,
    single_mode_state,
)
from dampedwave.geometry import Manifold, sample_shell
from dampedwave.lyapunov import band_estimates, exterior_sums, lyapunov_spectrum
from dampedwave.damping import extremal_bounds
from dampedwave.quantize import (
    GridSpec,
    Symbol,
    antiwick_build,
    identity_error,
    mollified_weyl_residual,
    symbol_cos_x,
    symbol_harmonic,
    symbol_one,
)
from dampedwave.spectrum import assemble, scalar_constant_taus, solve

CIRCLE = Manifold("circle", 1)
SQRT2 = math.sqrt(2.0)
T_LONG = 200.0


def diag_cos_two():
    A0 = np.diag([1.0 + 0j, 2.0])
    A1 = np.array([[0.5 + 0j, 0.0], [0.0, 0.0]])
    return DampingField(2, 1, {(0,): A0, (1,): A1, (-1,): A1})


@pytest.fixture(scope="module")
def cos_spec_128():
    return solve(one_plus_cos(), CIRCLE, 128)


@pytest.fixture(scope="module")
def cos_spec_256():
    return solve(one_plus_cos(), CIRCLE, 256)


@pytest.fixture(scope="module")
def cos_bands_T200():
    return band_estimates(one_plus_cos(), T=T_LONG, m=32, dt=1e-3, seed=7)


def test_criterion_1_constant_damping_oracle():
    start = time.monotonic()
    spec = solve(DampingField.constant([[0.7]]), CIRCLE, 128)
    oracle = scalar_constant_taus(0.7, 128)
    worst = max(float(np.min(np.abs(oracle - t))) for t in spec.reliable())
    elapsed = time.monotonic() - start
    assert worst < 1e-8
    assert elapsed < 60.0
    print(f"PASS criterion 1: constant-damping oracle, worst match {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_scalar_cocycle_closed_form():
    f = one_plus_cos()
    pts = sample_shell(20, 0.5, d=1, seed=11)
    worst = 0.0
    for p in pts:
        G = propagate(f, p, 20.0, 1e-3)
        exact = scalar_closed_form(f, p, 20.0)
        val = math.exp(G.log_scale) * G.unit[0, 0].real
        worst = max(worst, abs(val - exact) / abs(exact))
    assert worst < 1e-8
    rng = np.random.default_rng(3)
    worst_res = 0.0
    for i in range(50):
        p = sample_shell(1, 0.5, d=1, seed=1000 + i)[0]
        s, t = rng.uniform(0.3, 3.0, 2)
        worst_res = max(worst_res, cocycle_residual(f, p, float(s), float(t), 1e-3))
    assert worst_res < 1e-6
    print(f"PASS criterion 2: closed form rel err {worst:.2e}, "
          f"cocycle residual {worst_res:.2e} over 50 cases")


def test_criterion_3_lyapunov_machinery():
    f = diag_cos_two()
    p = sample_shell(1, 0.5, d=1, seed=5)[0]
    T = T_LONG
    sp = lyapunov_spectrum(f, p, T, dt=1e-3)
    assert sp.exponents[0] == pytest.approx(-2.0, abs=2.0 / T)
    assert sp.exponents[1] == pytest.approx(-1.0, abs=2.0 / T)
    descending = sorted(sp.exponents, reverse=True)
    worst_ext = 0.0
    for i in (1, 2):
        ext = exterior_sums(f, p, T, 1e-3, i)
        worst_ext = max(worst_ext, abs(ext - sum(descending[:i])))
    assert worst_ext < 5.0 / T
    mean_tr = float(np.real(np.trace(line_integral(f, p, T)))) / T
    sum_defect = abs(sum(sp.exponents) + mean_tr)
    assert sum_defect < 5.0 / T
    print(f"PASS criterion 3: exponents {tuple(round(e, 4) for e in sp.exponents)}, "
          f"exterior gap {worst_ext:.2e}, sum rule {sum_defect:.2e}")


def test_criterion_4_weyl_counting(cos_spec_128):
    lam = 64.0
    fields = {
        "undamped": DampingField.zero(1, 1),
        "constant": DampingField.constant([[0.7]]),
        "one_plus_cos": one_plus_cos(),
    }
    ratios = {}
    for name, f1 in fields.items():
        for n in (1, 2):
            if n == 1:
                spec = cos_spec_128 if name == "one_plus_cos" else solve(f1, CIRCLE, 128)
                fld_n = f1
            else:
                coeffs = {k: np.kron(np.eye(2), A) for k, A in f1.coeffs.items()}
                fld_n = DampingField(2, 1, coeffs)
                spec = solve(fld_n, CIRCLE, 128)
            pred = weyl_prediction(n, CIRCLE, lam)
            assert pred == 2 * n * lam
            ratio = counting(spec, lam) / pred
            ratios[f"{name},n={n}"] = ratio
            assert 0.95 <= ratio <= 1.05
    summary = ", ".join(f"{k}: {v:.4f}" for k, v in ratios.items())
    print(f"PASS criterion 4: weyl ratios {summary}")


def test_criterion_5_strip_finiteness(cos_spec_128, cos_spec_256, cos_bands_T200):
    est = cos_bands_T200
    margin = 0.05 + 3.0 / T_LONG
    out_128 = strip_outliers(cos_spec_128, est.c_minus, est.c_plus, margin, re_min=20.0)
    taus_256 = cos_spec_256.taus
    sel = taus_256[np.abs(taus_256.real) <= cos_spec_128.reliable_limit]
    limited = type(cos_spec_256)(sel, cos_spec_128.N, cos_spec_128.reliable_limit,
                                 cos_spec_256.meta)
    out_256 = strip_outliers(limited, est.c_minus, est.c_plus, margin, re_min=20.0)
    assert out_128.size == out_256.size
    print(f"PASS criterion 5: strip outliers beyond Re=20: {out_128.size} at N=128 "
          f"and {out_256.size} at N=256 (C bounds [{est.c_minus:.4f}, {est.c_plus:.4f}])")


def test_criterion_6_band_decay(cos_spec_128, cos_bands_T200):
    est = cos_bands_T200
    rep = band_outliers(cos_spec_128, est.lambda_minus, est.lambda_plus, epsilon=0.1)
    outl = [w.outliers for w in rep.windows]
    assert all(o == 0 for o in outl[-5:])
    half = len(outl) // 2
    left, right = np.mean(outl[:half]), np.mean(outl[half:])
    assert right <= 0.5 * left
    cspec = solve(DampingField.constant([[0.7]]), CIRCLE, 128)
    crep = band_outliers(cspec, -0.7, -0.7, epsilon=0.1)
    beyond = sum(w.outliers for w in crep.windows if w.re_min >= 0.7)
    assert beyond == 0
    print(f"PASS criterion 6: rightmost five windows clean, halves {left:.3f}/{right:.3f}, "
          f"constant field has {beyond} outliers beyond Re=0.7")


def test_criterion_7_ordering_chain():
    slack = 3.0 / T_LONG
    worst = -math.inf
    for seed in range(5):
        f = random_field(2, 1, amplitude=0.6, seed=200 + seed)
        est = band_estimates(f, T=T_LONG, m=12, dt=1e-3, seed=seed)
        assert est.c_minus <= -est.lambda_plus + slack
        assert -est.lambda_minus <= est.c_plus + slack
        worst = max(worst, est.c_minus - (-est.lambda_plus), -est.lambda_minus - est.c_plus)
    print(f"PASS criterion 7: ordering chain on 5 random fields, worst gap {worst:.2e} "
          f"(slack {slack:.2e})")


def test_criterion_8_energy_identity():
    f = random_field(2, 1, amplitude=0.6, seed=11)
    gen = assemble(f, CIRCLE, 4)
    st = single_mode_state(4, k=2, n=2)
    r1 = energy_balance_residual(f, evolve(gen, st, 10.0, 1e-4, stride=2))
    r2 = energy_balance_residual(f, evolve(gen, st, 10.0, 5e-5, stride=2))
    assert r1 < 1e-5
    assert r2 < 1e-6
    base = random_field(2, 1, amplitude=0.5, seed=7)
    fp = base.shifted(-extremal_bounds(base).a_minus + 0.05)
    traj = evolve(assemble(fp, CIRCLE, 4), st, 5.0, 1e-3, stride=20)
    Es = [energy(s) for s in traj]
    assert all(Es[i + 1] <= Es[i] * (1 + 1e-9) for i in range(len(Es) - 1))
    print(f"PASS criterion 8: balance residuals {r1:.2e} (dt=1e-4), {r2:.2e} (dt=5e-5), "
          f"psd energy monotone")


def test_criterion_9_quantization_propositions():
    grid = GridSpec.build(8.0, 0.05)
    id_err = identity_error(grid)
    assert id_err < 1e-6

    def mat(x, xi):
        s = np.sin(x) * np.exp(-0.5 * xi ** 2)
        m = np.empty(np.broadcast(x, xi).shape + (2, 2), dtype=complex)
        m[..., 0, 0] = 1.5 + np.cos(x) + 0.0 * xi
        m[..., 1, 1] = 1.0 + 0.0 * (x + xi)
        m[..., 0, 1] = 0.3 * s
        m[..., 1, 0] = 0.3 * s
        return m

    psd = [
        symbol_one(),
        symbol_harmonic(),
        Symbol(lambda x, xi: np.cos(x) ** 2 + 0.0 * xi, 1),
        Symbol(lambda x, xi: np.exp(-(xi ** 2)) + 0.0 * x, 1),
        Symbol(mat, 2),
    ]
    from dampedwave.quantize import _aw_nodes

    xs, xis, _ = _aw_nodes(grid)  # sup is over the quadrature region
    min_eig = math.inf
    for sym in psd:
        A = antiwick_build(sym, grid)
        w = np.linalg.eigvalsh(0.5 * (A + A.conj().T))
        min_eig = min(min_eig, float(w[0]))
        vals = np.asarray(sym(xs[:, None], xis[None, :]))
        sup = float(np.max(np.abs(vals))) if sym.n == 1 else \
            float(np.max(np.linalg.norm(vals, ord=2, axis=(-2, -1))))
        assert np.linalg.norm(A, ord=2) <= sup + 1e-6
    assert min_eig >= -1e-8
    residuals = {s.label: mollified_weyl_residual(s, grid)
                 for s in (symbol_one(), symbol_harmonic(), symbol_cos_x())}
    assert max(residuals.values()) < 1e-4
    print(f"PASS criterion 9: identity {id_err:.2e}, min eig {min_eig:.2e}, "
          f"mollified {max(residuals.values()):.2e}")


def test_criterion_10_factorization_experiment():
    t = 1.0
    hs = (0.08, 0.04, 0.02)
    res = [factorization_residual(one_plus_cos(), t, h) for h in hs]
    assert res[0] > res[1] > res[2]
    floors = []
    for h in hs:
        r0 = factorization_residual(DampingField.zero(1, 1), t, h)
        rc = factorization_residual(DampingField.constant([[0.5]]), t, h)
        quad_tol = max(r0, 1e-13)
        assert r0 <= 10.0 * quad_tol
        assert rc <= 10.0 * quad_tol
        floors.append(quad_tol)
    print(f"PASS criterion 10: residuals {[f'{r:.3e}' for r in res]} over h={hs}, "
          f"baseline floors {[f'{q:.1e}' for q in floors]}")
