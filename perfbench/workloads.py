"""The benchmark's workloads: seeded inputs, the jobs of one pass, their checks.

A workload is a list of jobs.  Each job runs one step of the program, either
a CLI command through ``dampedwave.cli.main`` on a generated JSON config or a
public library call for what the CLI does not expose, and returns named
checks at the tolerances the acceptance battery pins.  A job declares its
check names up front: when it raises, every one of them counts as failed and
the pass goes on.

The workload seed changes field values and sample points only.  Job sizes
(cutoffs, horizons, batch sizes, semiclassical parameters) come from the
size profile alone, so two seeds do the same amount of work.  The ROADMAP
item-1 inputs are fixed and do not follow the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Callable

import numpy as np

from dampedwave import analysis, cli, cocycle, damping, evolution, lyapunov, spectrum
from dampedwave.geometry import Manifold, PhasePoint, sample_shell

CIRCLE = Manifold("circle", 1)
TORUS2 = Manifold("flat_torus", 2)
SQRT2 = math.sqrt(2.0)

#: Sizes per workload.  "full" is the benchmark: a pass takes 4-7 s on two
#: cores, so a 30 s run holds several passes and ends on time even when the
#: machine is slow.  "smoke" shrinks every job so the smoke test finishes in
#: seconds.  Only the profile sets sizes; the item-1 inputs keep the ROADMAP
#: horizons (T = 50 and 60) in the full profile.
SIZES = {
    "spectral": {
        "full": {"N": 56, "N_torus": 8, "N_oracle": 128},
        "smoke": {"N": 24, "N_torus": 4, "N_oracle": 32},
    },
    "cocycle": {
        "full": {"T_cli": 40.0, "m_cli": 12, "T_diag": 60.0, "T_closed": 20.0,
                 "closed_points": 20, "T_item1": 50.0, "T_item1_band": 60.0},
        "smoke": {"T_cli": 10.0, "m_cli": 4, "T_diag": 20.0, "T_closed": 4.0,
                  "closed_points": 4, "T_item1": 10.0, "T_item1_band": 10.0},
    },
    "semiclassical": {
        "full": {"h_quant": 0.1, "L_quant": 5.0, "N_decay": 8, "T_decay": 2.0,
                 "dt_decay": 1e-4, "h_list": [0.1, 0.06], "t_fact": 1.0,
                 "h_matrix": 0.1, "t_matrix": 0.1, "symbol_dt": 0.01},
        "smoke": {"h_quant": 0.2, "L_quant": 4.0, "N_decay": 4, "T_decay": 1.0,
                  "dt_decay": 1e-4, "h_list": [0.15, 0.12], "t_fact": 0.5,
                  "h_matrix": 0.15, "t_matrix": 0.2, "symbol_dt": 0.05},
    },
}

WORKLOADS = tuple(SIZES)


@dataclass
class Job:
    """One step of a pass.

    ``run(out)`` returns {check name: (passed, detail)}; ``out`` is the job's
    artifact directory for this pass.  ``known_defect`` names checks that
    fail at the seed commit because of an open ROADMAP item; they still count
    as failed checks.  ``cli`` marks jobs whose artifacts are hashed and
    compared between passes.  ``inputs`` fingerprints the seeded values and
    ``sizes`` records the job size, both for the manifest.
    """

    name: str
    checks: tuple
    run: Callable
    sizes: dict
    inputs: str
    cli: bool = False
    known_defect: tuple = ()


@dataclass
class Workload:
    name: str
    jobs: list = dataclass_field(default_factory=list)

    def manifest(self) -> dict:
        return {j.name: {"sizes": j.sizes, "inputs": j.inputs} for j in self.jobs}


def _fingerprint(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode() if isinstance(p, str) else repr(p).encode())
    return h.hexdigest()[:16]


def _field_doc(field: damping.DampingField) -> dict:
    return json.loads(field.to_json())


def _point_key(p: PhasePoint) -> str:
    return f"{p.x!r}{p.xi!r}"


def _field_seed(seed: int, slot: int) -> int:
    """Independent field seed per use of the workload seed."""
    return int(np.random.SeedSequence([seed, slot]).generate_state(1)[0])


def _run_cli(command: str, config: Path, out: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([command, "--config", str(config), "--out", str(out)])


def _write_config(workdir: Path, name: str, doc: dict) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=1))
    return path


def _confinement(spec, field, re_min: float = 0.5):
    """Numerical-range check: for Re tau != 0 the pencil gives
    Im tau = <a u, u>/|u|^2, which lies in [a_minus, a_plus] exactly, also
    after Galerkin truncation.  a_minus and a_plus are scanned on a grid; the
    margin is the grid error bound (Lipschitz constant times the largest
    distance to a grid point) plus 1e-6 for the eigensolver."""
    g = 512 if field.d == 1 else 64
    b = damping.extremal_bounds(field, grid_points=g)
    ks, As = field.modes()
    lip = float(sum(np.linalg.norm(k) * np.linalg.norm(A, 2) for k, A in zip(ks, As)))
    margin = lip * math.pi / g * math.sqrt(field.d) + 1e-6
    out = analysis.strip_outliers(spec, b.a_minus, b.a_plus, margin, re_min=re_min)
    return out.size == 0, f"{out.size} tau outside [{b.a_minus:.4f}, {b.a_plus:.4f}] +- {margin:.1e}"


# ---------------------------------------------------------------------------
# spectral: the dense Galerkin path


def spectral(seed: int, sizes: dict, workdir: Path) -> Workload:
    N = sizes["N"]
    f2 = damping.random_field(2, 2, 0.6, seed=_field_seed(seed, 1))
    ft = damping.random_field(1, 1, 0.6, seed=_field_seed(seed, 2), d=2)
    c = 0.3 + 0.6 * float(np.random.default_rng([seed, 3]).uniform())
    base = {"manifold": {"kind": "circle", "d": 1}, "damping": {"field": _field_doc(f2)},
            "solver": {"N": N, "reliability": 0.5}}
    cfg_spec = _write_config(workdir, "spectrum", base)
    cfg_weyl = _write_config(workdir, "weyl", dict(base, analysis={"ratio_tolerance": 0.05}))
    side = 2 * 2 * (2 * N + 1)
    fp2 = _fingerprint(f2.to_json())

    def cli_spectrum(out):
        code = _run_cli("spectrum", cfg_spec, out)
        meta = json.loads((out / "eigenvalues.meta.json").read_text())
        rows = (out / "eigenvalues.csv").read_text().splitlines()[1:]
        taus = np.array([complex(float(r.split(",")[0]), float(r.split(",")[1])) for r in rows])
        spec = spectrum.SpectrumSet(taus, meta["N"], meta["reliable_limit"], meta)
        ok_conf, conf = _confinement(spec, f2)
        # analysis against the field's extremal bounds, on the CLI's own CSV
        b = damping.extremal_bounds(f2)
        rep = analysis.band_outliers(spec, -b.a_plus, -b.a_minus, 0.1, 1.0)
        beyond = sum(w.outliers for w in rep.windows if w.re_min >= 1.0)
        lim = spec.reliable_limit
        hist = analysis.cluster_histogram(spec, (0.5 * lim, lim),
                                          exponents=(-b.a_plus, -b.a_minus))
        in_win = int(np.sum((taus.real >= 0.5 * lim) & (taus.real <= lim)))
        return {
            "spectrum.exit": (code == 0, f"exit {code}"),
            "spectrum.count": (meta["count_total"] == side and len(rows) == meta["count_reliable"] > 0,
                               f"{meta['count_total']} of side {side}, {len(rows)} reliable rows"),
            "spectrum.confinement": (ok_conf, conf),
            "analysis.band_clean": (beyond == 0, f"{beyond} outliers beyond Re 1"),
            "analysis.band_weyl": (abs(rep.weyl["ratio"] - 1.0) <= 0.05,
                                   f"ratio {rep.weyl['ratio']:.4f}"),
            "analysis.histogram": (hist.total == in_win > 0, f"{hist.total} of {in_win}"),
        }

    def cli_weyl(out):
        code = _run_cli("weyl", cfg_weyl, out)
        rep = json.loads((out / "weyl.json").read_text())
        return {
            "weyl.exit": (code == 0, f"exit {code}"),
            "weyl.ratio": (abs(rep["ratio"] - 1.0) <= 0.05, f"ratio {rep['ratio']:.4f}"),
        }

    def convergence(out):
        worst = spectrum.convergence_check(f2, CIRCLE, N)
        return {"convergence.certificate": (worst <= 1e-8, f"{worst:.2e}")}

    def torus(out):
        spec = spectrum.solve(ft, TORUS2, sizes["N_torus"])
        rel = spec.reliable()
        # a real scalar field makes the spectrum symmetric under tau -> -conj(tau)
        sym = float(np.max(np.min(np.abs(spec.taus[None, :] + np.conj(rel)[:, None]), axis=1)))
        ok_conf, conf = _confinement(spec, ft)
        return {
            "torus.symmetry": (sym <= 1e-8, f"{sym:.2e}"),
            "torus.confinement": (ok_conf, conf),
        }

    def oracle(out):
        No = sizes["N_oracle"]
        spec = spectrum.solve(damping.DampingField.constant([[c]]), CIRCLE, No)
        ref = spectrum.scalar_constant_taus(c, No)
        worst = max(float(np.min(np.abs(ref - t))) for t in spec.reliable())
        return {"oracle.match": (worst <= 1e-8, f"{worst:.2e} at c={c:.4f}")}

    return Workload("spectral", [
        Job("cli_spectrum", ("spectrum.exit", "spectrum.count", "spectrum.confinement",
                             "analysis.band_clean", "analysis.band_weyl", "analysis.histogram"),
            cli_spectrum, {"N": N, "side": side}, fp2, cli=True),
        Job("cli_weyl", ("weyl.exit", "weyl.ratio"), cli_weyl, {"N": N, "side": side}, fp2, cli=True),
        Job("convergence_check", ("convergence.certificate",), convergence,
            {"N": N, "side": side, "side_fine": 2 * 2 * (4 * N + 1)}, fp2),
        Job("torus", ("torus.symmetry", "torus.confinement"), torus,
            {"N": sizes["N_torus"], "side": 2 * (2 * sizes["N_torus"] + 1) ** 2},
            _fingerprint(ft.to_json())),
        Job("constant_oracle", ("oracle.match",), oracle,
            {"N": sizes["N_oracle"], "side": 2 * (2 * sizes["N_oracle"] + 1)}, _fingerprint(c)),
    ])


# ---------------------------------------------------------------------------
# cocycle: a few long trajectories


def diag_cos_two() -> damping.DampingField:
    """The criterion-3 field diag(1 + cos x, 2): exponents exactly (-2, -1)."""
    A0 = np.diag([1.0 + 0j, 2.0])
    A1 = np.array([[0.5 + 0j, 0.0], [0.0, 0.0]])
    return damping.DampingField(2, 1, {(0,): A0, (1,): A1, (-1,): A1})


#: ROADMAP item 1: fixed inputs on which the inverse accumulator breaks
ITEM1_FIELD = dict(n=3, K=1, amplitude=0.6, seed=19)
ITEM1_POINT = PhasePoint((0.4,), (1.0 / SQRT2,))


def cocycle_workload(seed: int, sizes: dict, workdir: Path) -> Workload:
    T_cli, m_cli = sizes["T_cli"], sizes["m_cli"]
    f_cli = damping.random_field(2, 1, 0.6, seed=_field_seed(seed, 1))
    cfg = _write_config(workdir, "lyapunov", {
        "manifold": {"kind": "circle", "d": 1}, "damping": {"field": _field_doc(f_cli)},
        "lyapunov": {"T": T_cli, "dt": 1e-3, "samples": m_cli, "seed": seed}})
    f_diag = diag_cos_two()
    T_diag = sizes["T_diag"]
    p_diag = sample_shell(1, 0.5, seed=_field_seed(seed, 2))[0]
    f_cos = damping.one_plus_cos()
    T_closed = sizes["T_closed"]
    closed_pts = sample_shell(sizes["closed_points"], 0.5, seed=_field_seed(seed, 3))
    f_item1 = damping.random_field(**ITEM1_FIELD)
    T1, T1b = sizes["T_item1"], sizes["T_item1_band"]

    def cli_lyapunov(out):
        code = _run_cli("lyapunov", cfg, out)
        d = json.loads((out / "lyapunov.json").read_text())
        slack = 3.0 / T_cli
        return {
            "lyapunov.exit": (code == 0, f"exit {code}"),
            "lyapunov.chain_upper": (d["c_minus"] <= -d["lambda_plus"] + slack,
                                     f"c_minus {d['c_minus']:.4f}, -lambda_plus {-d['lambda_plus']:.4f}"),
            "lyapunov.chain_lower": (-d["lambda_minus"] <= d["c_plus"] + slack,
                                     f"-lambda_minus {-d['lambda_minus']:.4f}, c_plus {d['c_plus']:.4f}"),
        }

    def diagonal(out):
        sp = lyapunov.lyapunov_spectrum(f_diag, p_diag, T_diag, dt=1e-3)
        desc = sorted(sp.exponents, reverse=True)
        ext = [lyapunov.exterior_sums(f_diag, p_diag, T_diag, 1e-3, i) for i in (1, 2)]
        gap = max(abs(e - sum(desc[:i + 1])) for i, e in enumerate(ext))
        err = max(abs(sp.exponents[0] + 2.0), abs(sp.exponents[1] + 1.0))
        mean_tr = float(np.real(np.trace(cocycle.line_integral(f_diag, p_diag, T_diag)))) / T_diag
        sum_defect = abs(sum(sp.exponents) + mean_tr)
        return {
            "diagonal.exponents": (err <= 2.0 / T_diag, f"{sp.exponents}, off by {err:.2e}"),
            "diagonal.exterior": (gap <= 5.0 / T_diag, f"gap {gap:.2e}"),
            "diagonal.sum_rule": (sum_defect <= 5.0 / T_diag, f"defect {sum_defect:.2e}"),
        }

    def closed_form(out):
        worst = 0.0
        for p in closed_pts:
            G = cocycle.propagate(f_cos, p, T_closed, 1e-3)
            exact = cocycle.scalar_closed_form(f_cos, p, T_closed)
            worst = max(worst, abs(math.exp(G.log_scale) * G.unit[0, 0].real - exact) / abs(exact))
        return {"closed_form.match": (worst <= 1e-8, f"rel err {worst:.2e}")}

    def item1_exterior(out):
        # exterior sums first, so the same work runs whether or not the
        # spectrum call raises
        ext = [lyapunov.exterior_sums(f_item1, ITEM1_POINT, T1, 1e-3, i) for i in (1, 2, 3)]
        sp = lyapunov.lyapunov_spectrum(f_item1, ITEM1_POINT, T1, dt=1e-3)
        desc = sorted(sp.exponents, reverse=True)
        return {f"item1.exterior_{i + 1}": (abs(e - sum(desc[:i + 1])) <= 5.0 / T1,
                                            f"gap {abs(e - sum(desc[:i + 1])):.2e}")
                for i, e in enumerate(ext)}

    def item1_chain(out):
        est = lyapunov.band_estimates(f_item1, T=T1b, m=1, dt=1e-3, seed=0)
        slack = 3.0 / T1b
        return {
            "item1.chain_upper": (est.c_minus <= -est.lambda_plus + slack,
                                  f"c_minus {est.c_minus:.4f}, -lambda_plus {-est.lambda_plus:.4f}"),
            "item1.chain_lower": (-est.lambda_minus <= est.c_plus + slack,
                                  f"-lambda_minus {-est.lambda_minus:.4f}, c_plus {est.c_plus:.4f}"),
        }

    item1_fp = _fingerprint(f_item1.to_json(), _point_key(ITEM1_POINT))
    return Workload("cocycle", [
        Job("cli_lyapunov", ("lyapunov.exit", "lyapunov.chain_upper", "lyapunov.chain_lower"),
            cli_lyapunov, {"T": T_cli, "m": m_cli, "n": 2}, _fingerprint(f_cli.to_json(), seed),
            cli=True),
        Job("diagonal_field", ("diagonal.exponents", "diagonal.exterior", "diagonal.sum_rule"),
            diagonal,
            {"T": T_diag, "B": 1, "n": 2}, _fingerprint(_point_key(p_diag))),
        Job("closed_form", ("closed_form.match",), closed_form,
            {"T": T_closed, "points": len(closed_pts), "n": 1},
            _fingerprint(*[_point_key(p) for p in closed_pts])),
        Job("item1_exterior", ("item1.exterior_1", "item1.exterior_2", "item1.exterior_3"),
            item1_exterior, {"T": T1, "B": 1, "n": 3}, item1_fp,
            known_defect=("item1.exterior_1", "item1.exterior_2", "item1.exterior_3")),
        Job("item1_chain", ("item1.chain_upper", "item1.chain_lower"), item1_chain,
            {"T": T1b, "m": 1, "n": 3}, item1_fp, known_defect=("item1.chain_lower",)),
    ])


# ---------------------------------------------------------------------------
# semiclassical: quadrature and the time domain


def semiclassical(seed: int, sizes: dict, workdir: Path) -> Workload:
    h_q, L_q = sizes["h_quant"], sizes["L_quant"]
    cfg_q = _write_config(workdir, "quantize", {"quantize": {"h": h_q, "L": L_q, "xi_max": 3.0}})
    f_decay = damping.random_field(2, 1, 0.6, seed=_field_seed(seed, 1))
    Nd, Td, dtd = sizes["N_decay"], sizes["T_decay"], sizes["dt_decay"]
    cfg_d = _write_config(workdir, "decay", {
        "manifold": {"kind": "circle", "d": 1}, "damping": {"field": _field_doc(f_decay)},
        "evolution": {"N": Nd, "T": Td, "dt": dtd, "stride": 2, "mode": 1,
                      "max_residual": 1e-5}})
    hs, t_fact = sizes["h_list"], sizes["t_fact"]
    c_base = 0.3 + 0.4 * float(np.random.default_rng([seed, 2]).uniform())
    f_mat = damping.random_field(2, 1, 0.6, seed=_field_seed(seed, 3))
    h_m, t_m, sdt = sizes["h_matrix"], sizes["t_matrix"], sizes["symbol_dt"]

    def cli_quantize(out):
        code = _run_cli("quantize-check", cfg_q, out)
        checks = json.loads((out / "quantize.json").read_text())["checks"]
        res = {"quantize.exit": (code == 0, f"exit {code}")}
        for k in ("identity_pass", "positivity_pass", "norm_bound_pass", "mollified_pass"):
            res[f"quantize.{k}"] = (checks[k] is True, str(checks[k]))
        return res

    def cli_decay(out):
        code = _run_cli("decay", cfg_d, out)
        r = json.loads((out / "decay.json").read_text())["balance_residual"]
        return {
            "decay.exit": (code == 0, f"exit {code}"),
            "decay.balance": (r < 1e-5, f"residual {r:.2e}"),
        }

    def factorization(out):
        res = [evolution.factorization_residual(damping.one_plus_cos(), t_fact, h) for h in hs]
        out_checks = {"factorization.decay": (all(a > b for a, b in zip(res, res[1:])),
                                              " > ".join(f"{r:.3e}" for r in res))}
        worst = 0.0
        for h in hs:
            r0 = evolution.factorization_residual(damping.DampingField.zero(1, 1), t_fact, h)
            rc = evolution.factorization_residual(damping.DampingField.constant([[c_base]]), t_fact, h)
            quad = max(r0, 1e-13)
            worst = max(worst, r0 / (10.0 * quad), rc / (10.0 * quad))
        out_checks["factorization.baselines"] = (worst <= 1.0, f"worst share of floor {worst:.2e}")
        return out_checks

    def factorization_matrix(out):
        r = evolution.factorization_residual(f_mat, t_m, h_m, symbol_dt=sdt)
        return {"factorization.matrix_finite": (math.isfinite(r) and 0.0 <= r < 1.0, f"{r:.4e}")}

    grid = evolution.suggest_modes(h_m)
    return Workload("semiclassical", [
        Job("cli_quantize", ("quantize.exit", "quantize.identity_pass", "quantize.positivity_pass",
                             "quantize.norm_bound_pass", "quantize.mollified_pass"),
            cli_quantize, {"h": h_q, "L": L_q}, _fingerprint(h_q, L_q), cli=True),
        Job("cli_decay", ("decay.exit", "decay.balance"), cli_decay,
            {"N": Nd, "T": Td, "dt": dtd, "n": 2}, _fingerprint(f_decay.to_json()), cli=True),
        Job("factorization_scalar", ("factorization.decay", "factorization.baselines"),
            factorization, {"h": list(hs), "t": t_fact}, _fingerprint(c_base)),
        Job("factorization_matrix", ("factorization.matrix_finite",), factorization_matrix,
            {"h": h_m, "t": t_m, "symbol_dt": sdt, "grid": 2 * grid, "n": 2},
            _fingerprint(f_mat.to_json())),
    ])


MAKERS = {"spectral": spectral, "cocycle": cocycle_workload, "semiclassical": semiclassical}


def build(name: str, seed: int, profile: str, workdir: Path) -> Workload:
    """Generate the seeded inputs and configs of one workload."""
    workdir.mkdir(parents=True, exist_ok=True)
    return MAKERS[name](seed, SIZES[name][profile], workdir)
