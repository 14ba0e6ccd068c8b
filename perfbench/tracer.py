"""Spans around the program's layers, recorded from the benchmark's side.

``Tracer.install`` replaces public functions at every module attribute where
the program looks them up (``cocycle.window_products`` and the name bound in
``lyapunov``, ``evolution.expm``, ...) with wrappers that record a span per
call, and per resumption for the ``window_products`` generator.  Nothing in
the package changes.  Spans (name, start, end, parent) stay in memory until
the worker writes them out at exit.

A span's self time is its duration minus the time its child spans cover.
``layer_metrics`` turns the spans of one pass into the per-layer metrics
listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import time
from collections import defaultdict

from dampedwave import analysis, cli, cocycle, evolution, lyapunov, quantize, spectrum

#: Per-layer metric -> (unit, better, what it measures, the end-to-end metric
#: it should move, on which workload).  "self" is span time minus child spans;
#: "computed" counts come from the call arguments, not from the program.
LAYER_METRICS = {
    "spectrum.eig_s": ("s", "lower", "time in eigenvalues_tau (dense eigvals)", "wall_s, cpu_s, peak_rss_mb", "spectral"),
    "spectrum.eig_calls": ("count", "lower", "eigenvalues_tau calls", "wall_s, cpu_s, peak_rss_mb", "spectral"),
    "spectrum.side_max": ("count", "lower", "largest dense matrix side", "wall_s, cpu_s, peak_rss_mb", "spectral"),
    "spectrum.eig_flops_computed": ("flop", "lower", "computed as sum of 10*side^3 (Hessenberg QR, eigenvalues only)", "wall_s, cpu_s, peak_rss_mb", "spectral"),
    "spectrum.eigs_total": ("count", "lower", "eigenvalues computed", "wall_s", "spectral"),
    "spectrum.useful_frac": ("ratio", "higher", "reliable / computed eigenvalues", "wall_s", "spectral"),
    "spectrum.assemble_s": ("s", "lower", "time in assemble", "wall_s", "spectral (small at the seed)"),
    "analysis.s": ("s", "lower", "time in analysis functions", "none expected", "spectral (control)"),
    "cocycle.window_products_s": ("s", "lower", "self time of window_products resumptions (RK4 kernel)", "wall_s", "cocycle, then semiclassical"),
    "cocycle.rk4_steps": ("count", "lower", "computed sum of B*M over window_products calls", "wall_s", "cocycle, then semiclassical"),
    "cocycle.step_rate": ("1/s", "higher", "rk4_steps / window_products_s", "wall_s", "cocycle, then semiclassical"),
    "cocycle.batch_mean": ("count", "higher", "mean batch B per window_products call", "wall_s", "cocycle, then semiclassical"),
    "cocycle.propagate_many_s": ("s", "lower", "time in propagate_many, children included", "wall_s", "semiclassical"),
    "cocycle.propagate_calls": ("count", "lower", "propagate_many calls", "wall_s", "semiclassical"),
    "lyapunov.band_estimates_s": ("s", "lower", "time in band_estimates, children included", "wall_s", "cocycle"),
    "lyapunov.stream_self_s": ("s", "lower", "self time of band_estimates and lyapunov_spectrum (QR stream, accumulators)", "wall_s", "cocycle"),
    "lyapunov.qr_count": ("count", "lower", "computed B*ceil(M/renorm_every) per QR stream", "wall_s", "cocycle"),
    "lyapunov.exterior_sums_s": ("s", "lower", "time in exterior_sums, children included", "wall_s", "cocycle"),
    "quantize.antiwick_build_s": ("s", "lower", "time in antiwick_build", "wall_s", "semiclassical"),
    "quantize.antiwick_calls": ("count", "lower", "antiwick_build calls", "wall_s", "semiclassical"),
    "quantize.aw_nodes": ("count", "lower", "computed x-nodes * xi-nodes over antiwick_build calls", "wall_s", "semiclassical"),
    "quantize.weyl_build_s": ("s", "lower", "time in weyl_build", "wall_s", "semiclassical"),
    "quantize.antiwick_circle_s": ("s", "lower", "time in antiwick_build_circle", "wall_s", "semiclassical"),
    "quantize.antiwick_circle_calls": ("count", "lower", "antiwick_build_circle calls", "wall_s", "semiclassical"),
    "quantize.checks_self_s": ("s", "lower", "self time of identity_error and mollified_weyl_residual", "wall_s", "semiclassical"),
    "evolution.evolve_s": ("s", "lower", "time in evolve", "wall_s", "semiclassical"),
    "evolution.evolve_steps": ("count", "lower", "computed ceil(T/dt) over evolve calls", "wall_s", "semiclassical"),
    "evolution.balance_s": ("s", "lower", "time in energy_balance_residual", "wall_s", "semiclassical"),
    "evolution.expm_s": ("s", "lower", "time in expm", "wall_s", "semiclassical"),
    "evolution.expm_side_max": ("count", "lower", "largest expm side", "wall_s", "semiclassical"),
    "evolution.factorization_s": ("s", "lower", "self time of factorization_residual", "wall_s", "semiclassical"),
    "cli.self_s": ("s", "lower", "self time of cli.main (config parsing, artifact writing, inline checks)", "wall_s (small)", "all"),
    "bench.self_s": ("s", "lower", "benchmark code outside program spans (checks, unwrapped calls)", "none expected", "all"),
    "trace.wall_s": ("s", "lower", "traced pass wall time", "none (tracing only)", "all"),
    "trace.overhead_s": ("s", "lower", "traced minus untraced median pass wall time", "none (tracing only)", "all"),
    "trace.coverage_frac": ("ratio", "higher", "share of traced wall time inside program spans", "none (tracing only)", "all"),
    "checks.fail_frac": ("ratio", "lower", "failed checks / checks attempted", "none (correctness)", "all"),
}


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_window_products(t, a, result):
    M, _ = cocycle.plan_steps(a["T"], a["dt"])
    B = len(a["starts"])
    t.counts["wp_calls"] += 1
    t.counts["wp_batch"] += B
    t.counts["rk4_steps"] += B * M


def _count_eig(t, a, result):
    side = a["gen"].side
    t.counts["eig_calls"] += 1
    t.counts["eig_flops"] += 10.0 * side ** 3
    t.counts["eigs_total"] += result.taus.size
    t.counts["eigs_reliable"] += result.reliable().size
    t.maxima["side_max"] = max(t.maxima["side_max"], side)


def _qr_counter(batch_arg):
    def count(t, a, result):
        M, _ = cocycle.plan_steps(a["T"], a["dt"])
        B = a[batch_arg] if batch_arg else 1
        t.counts["qr_count"] += B * math.ceil(M / a["renorm_every"])
    return count


def _count_antiwick(t, a, result):
    g = a["grid"]
    s = quantize.NODE_SPACING * math.sqrt(g.h)
    half = g.L + quantize.TAIL_CUT * math.sqrt(g.h)
    t.counts["antiwick_calls"] += 1
    t.counts["aw_nodes"] += math.ceil(2.0 * half / s) * math.ceil(2.0 * g.nyquist / s)


def _counter(key):
    def count(t, a, result):
        t.counts[key] += 1
    return count


def _count_evolve(t, a, result):
    t.counts["evolve_steps"] += math.ceil(a["T"] / a["dt"] - 1e-9)


def _count_expm(t, a, result):
    t.maxima["expm_side_max"] = max(t.maxima["expm_side_max"], a["A"].shape[0])


#: (modules holding the name, attribute, span name, counter); every module
#: that binds the function under its own name is listed.
TARGETS = [
    ((spectrum,), "assemble", "spectrum.assemble", None),
    ((spectrum,), "eigenvalues_tau", "spectrum.eigenvalues_tau", _count_eig),
    ((spectrum,), "solve", "spectrum.solve", None),
    ((spectrum,), "convergence_check", "spectrum.convergence_check", None),
    ((analysis,), "strip_outliers", "analysis.strip_outliers", None),
    ((analysis,), "band_outliers", "analysis.band_outliers", None),
    ((analysis,), "cluster_histogram", "analysis.cluster_histogram", None),
    ((analysis,), "weyl_report", "analysis.weyl_report", None),
    ((analysis,), "counting", "analysis.counting", None),
    ((cocycle, lyapunov), "window_products", "cocycle.window_products", _count_window_products),
    ((cocycle, evolution), "propagate_many", "cocycle.propagate_many", _counter("propagate_calls")),
    ((lyapunov,), "band_estimates", "lyapunov.band_estimates", _qr_counter("m")),
    ((lyapunov,), "lyapunov_spectrum", "lyapunov.lyapunov_spectrum", _qr_counter(None)),
    ((lyapunov,), "exterior_sums", "lyapunov.exterior_sums", None),
    ((quantize,), "antiwick_build", "quantize.antiwick_build", _count_antiwick),
    ((quantize,), "weyl_build", "quantize.weyl_build", None),
    ((quantize, evolution), "antiwick_build_circle", "quantize.antiwick_build_circle",
     _counter("antiwick_circle_calls")),
    ((quantize,), "identity_error", "quantize.identity_error", None),
    ((quantize,), "mollified_weyl_residual", "quantize.mollified_weyl_residual", None),
    ((evolution,), "evolve", "evolution.evolve", _count_evolve),
    ((evolution,), "energy_balance_residual", "evolution.energy_balance_residual", None),
    ((evolution,), "expm", "evolution.expm", _count_expm),
    ((evolution,), "factorization_residual", "evolution.factorization_residual", None),
    ((cli,), "main", "cli.main", None),
]


class Tracer:
    """In-memory span recorder with per-pass counters."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self._undo = []
        self.reset_counts()

    def reset_counts(self):
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, fn, name, count):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if count is not None:
                    count(tracer, _bound(fn, args, kwargs), None)
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        with tracer.span(name):
                            try:
                                item = next(inner)
                            except StopIteration:
                                return
                        yield item
                finally:
                    inner.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(tracer, _bound(fn, args, kwargs), result)
            return result
        return wrapper

    def install(self):
        for modules, attr, name, count in TARGETS:
            orig = getattr(modules[0], attr)
            wrapped = self._wrap(orig, name, count)
            for mod in modules:
                if getattr(mod, attr) is not orig:
                    raise RuntimeError(f"{mod.__name__}.{attr} is not the function it wraps")
                self._undo.append((mod, attr, orig))
                setattr(mod, attr, wrapped)

    def uninstall(self):
        while self._undo:
            mod, attr, orig = self._undo.pop()
            setattr(mod, attr, orig)


def self_times(spans, lo: int = 0, hi: int | None = None) -> tuple[dict, dict, dict]:
    """Per span name over spans[lo:hi]: self seconds, inclusive seconds, calls."""
    hi = len(spans) if hi is None else hi
    child = defaultdict(float)
    for name, start, end, parent in spans[lo:hi]:
        if parent >= lo:
            child[parent] += end - start
    selfs, incl, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for i in range(lo, hi):
        name, start, end, _ = spans[i]
        selfs[name] += end - start - child[i]
        incl[name] += end - start
        calls[name] += 1
    return selfs, incl, calls


def layer_metrics(tracer: Tracer, lo: int, hi: int, wall: float) -> dict:
    """Per-layer metrics of the pass whose spans are spans[lo:hi]."""
    selfs, incl, _ = self_times(tracer.spans, lo, hi)
    c, mx = tracer.counts, tracer.maxima
    bench_self = sum(v for k, v in selfs.items() if k.startswith(("job.", "pass")))
    wp_s = selfs["cocycle.window_products"]
    return {
        "spectrum.eig_s": incl["spectrum.eigenvalues_tau"],
        "spectrum.eig_calls": c["eig_calls"],
        "spectrum.side_max": mx["side_max"],
        "spectrum.eig_flops_computed": c["eig_flops"],
        "spectrum.eigs_total": c["eigs_total"],
        "spectrum.useful_frac": c["eigs_reliable"] / c["eigs_total"] if c["eigs_total"] else 0.0,
        "spectrum.assemble_s": incl["spectrum.assemble"],
        "analysis.s": sum(v for k, v in selfs.items() if k.startswith("analysis.")),
        "cocycle.window_products_s": wp_s,
        "cocycle.rk4_steps": c["rk4_steps"],
        "cocycle.step_rate": c["rk4_steps"] / wp_s if wp_s else 0.0,
        "cocycle.batch_mean": c["wp_batch"] / c["wp_calls"] if c["wp_calls"] else 0.0,
        "cocycle.propagate_many_s": incl["cocycle.propagate_many"],
        "cocycle.propagate_calls": c["propagate_calls"],
        "lyapunov.band_estimates_s": incl["lyapunov.band_estimates"],
        "lyapunov.stream_self_s": selfs["lyapunov.band_estimates"] + selfs["lyapunov.lyapunov_spectrum"],
        "lyapunov.qr_count": c["qr_count"],
        "lyapunov.exterior_sums_s": incl["lyapunov.exterior_sums"],
        "quantize.antiwick_build_s": incl["quantize.antiwick_build"],
        "quantize.antiwick_calls": c["antiwick_calls"],
        "quantize.aw_nodes": c["aw_nodes"],
        "quantize.weyl_build_s": incl["quantize.weyl_build"],
        "quantize.antiwick_circle_s": incl["quantize.antiwick_build_circle"],
        "quantize.antiwick_circle_calls": c["antiwick_circle_calls"],
        "quantize.checks_self_s": selfs["quantize.identity_error"] + selfs["quantize.mollified_weyl_residual"],
        "evolution.evolve_s": incl["evolution.evolve"],
        "evolution.evolve_steps": c["evolve_steps"],
        "evolution.balance_s": incl["evolution.energy_balance_residual"],
        "evolution.expm_s": incl["evolution.expm"],
        "evolution.expm_side_max": mx["expm_side_max"],
        "evolution.factorization_s": selfs["evolution.factorization_residual"],
        "cli.self_s": selfs["cli.main"],
        "bench.self_s": bench_self,
        "trace.wall_s": wall,
        "trace.coverage_frac": (wall - bench_self) / wall,
    }
