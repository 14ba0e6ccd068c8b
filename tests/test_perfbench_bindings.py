"""The benchmark's tracer wraps package functions by name; keep them bound.

``perfbench/tracer.py`` raises at install time when a traced name is no
longer the function it wraps in every module listed for it, and its
counters read call arguments by parameter name.  Installing it here makes
a refactor that unbinds or renames one of them fail this suite.
"""

import sys
from pathlib import Path

import pytest

from dampedwave import cocycle, evolution, lyapunov
from dampedwave.damping import random_field
from dampedwave.geometry import sample_shell

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    yield tracer
    sys.modules.pop("tracer", None)


def test_tracer_installs_and_restores(tracer_module):
    originals = (cocycle.window_products, lyapunov.window_products, evolution.propagate_many)
    t = tracer_module.Tracer()
    t.install()
    try:
        assert lyapunov.window_products is cocycle.window_products
        assert lyapunov.window_products is not originals[0]
        f = random_field(2, 1, amplitude=0.5, seed=3)
        evolution.propagate_many(f, sample_shell(3, 0.5, seed=1), 1.0, 1e-2)
        lyapunov.band_estimates(f, T=1.0, m=2, dt=1e-2, renorm_every=10)
        lyapunov.exterior_sums(f, sample_shell(1, 0.5, seed=2)[0], 1.0, 1e-2, 2)
    finally:
        t.uninstall()
    assert (cocycle.window_products, lyapunov.window_products, evolution.propagate_many) == originals
    assert t.counts["propagate_calls"] == 1
    assert t.counts["qr_count"] == 2 * 10
    assert t.counts["rk4_steps"] == 3 * 100 + 2 * 100 + 100
