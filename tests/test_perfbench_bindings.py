"""The benchmark's tracer wraps package functions by name; keep them bound.

``perfbench/tracer.py`` raises at install time when a traced name is no
longer the function it wraps in every module listed for it, and its
counters read call arguments by parameter name.  Installing it here makes
a refactor that unbinds or renames one of them fail this suite.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from dampedwave import cocycle, evolution, lyapunov, spectrum
from dampedwave.damping import one_plus_cos, random_field
from dampedwave.geometry import Manifold, PhasePoint, phase_array, sample_shell

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    yield tracer
    sys.modules.pop("tracer", None)


@pytest.fixture
def workloads_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    yield workloads
    sys.modules.pop("workloads", None)


@pytest.mark.parametrize("seed", [1, 2])
def test_cocycle_workload_checks_pass(workloads_module, tmp_path, seed):
    # the correctness gate of the workload that runs the stream: one full
    # pass, every job's declared checks present and passing
    for job in workloads_module.build("cocycle", seed, "full", tmp_path / "inputs").jobs:
        checks = job.run(tmp_path / job.name)
        assert set(checks) == set(job.checks), job.name
        assert all(ok for ok, _ in checks.values()), (job.name, checks)


def test_tracer_installs_and_restores(tracer_module):
    originals = (cocycle.window_products, lyapunov.window_products, evolution.propagate_many)
    t = tracer_module.Tracer()
    t.install()
    try:
        assert lyapunov.window_products is cocycle.window_products
        assert lyapunov.window_products is not originals[0]
        f = random_field(2, 1, amplitude=0.5, seed=3)
        evolution.propagate_many(f, phase_array(sample_shell(3, 0.5, seed=1)), 1.0, 1e-2)
        lyapunov.band_estimates(f, T=1.0, m=2, dt=1e-2, renorm_every=10)
        lyapunov.exterior_sums(f, sample_shell(1, 0.5, seed=2)[0], 1.0, 1e-2, 2)
    finally:
        t.uninstall()
    assert (cocycle.window_products, lyapunov.window_products, evolution.propagate_many) == originals
    assert t.counts["propagate_calls"] == 1
    assert t.counts["qr_count"] == 2 * 10
    assert t.counts["rk4_steps"] == 3 * 100 + 2 * 100 + 100


def test_closed_form_job_reads_propagate():
    # the cocycle workload's closed_form job reads exp(log_scale) * unit[0, 0].real
    f = one_plus_cos()
    p = PhasePoint((0.4,), (math.sqrt(0.5),))
    G = cocycle.propagate(f, p, 6.0, 1e-3)
    assert G.unit.shape == (1, 1) and isinstance(G.log_scale, float)
    exact = cocycle.scalar_closed_form(f, p, 6.0)
    assert abs(math.exp(G.log_scale) * G.unit[0, 0].real - exact) <= 1e-8 * exact
    f2 = random_field(2, 1, amplitude=0.7, seed=3)
    units, logs = cocycle.propagate_many(f2, phase_array([p]), 6.0, 1e-3)
    G2 = cocycle.propagate(f2, p, 6.0, 1e-3)
    assert np.array_equal(G2.unit, units[0]) and G2.log_scale == logs[0]


def test_eig_counters_read_both_forms(tracer_module):
    # the spectral counters read gen.side and result.taus on the real and the complex form
    circle = Manifold("circle", 1)
    t = tracer_module.Tracer()
    t.install()
    try:
        real = spectrum.solve(one_plus_cos(), circle, 12)
        cplx = spectrum.solve(random_field(2, 1, amplitude=0.5, seed=3), circle, 8)
    finally:
        t.uninstall()
    assert (real.meta["eig_form"], cplx.meta["eig_form"]) == ("real", "complex")
    assert t.counts["eig_calls"] == 2
    assert t.maxima["side_max"] == max(real.meta["side"], cplx.meta["side"]) == 68


def test_qr_count_matches_the_qr_calls_made(tracer_module, monkeypatch):
    # the tracer computes qr_count = B * ceil(M / renorm_every) from the arguments;
    # at the default cadence on a field where the clamp does not bind it must
    # equal B times the np.linalg.qr calls the QR frame makes
    f = random_field(2, 1, amplitude=0.5, seed=3)
    assert lyapunov.safe_cadence(f, 1e-2) > lyapunov.DEFAULT_RENORM_EVERY
    batches = []
    qr = np.linalg.qr

    def counting_qr(a, *args, **kwargs):
        batches.append(a.shape[0])
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    t = tracer_module.Tracer()
    t.install()
    try:
        lyapunov.band_estimates(f, T=6.01, m=2, dt=1e-2)
        band = (t.counts["qr_count"], list(batches))
        batches.clear()
        t.reset_counts()
        lyapunov.lyapunov_spectrum(f, sample_shell(1, 0.5, seed=2)[0], 6.01, 1e-2)
        single = (t.counts["qr_count"], list(batches))
    finally:
        t.uninstall()
    assert band == (2 * 3, [2, 2, 2])
    assert single == (1 * 3, [1, 1, 1])
