"""Config-driven experiment runner.

Subcommands bind the library into the standard experiments:

    lyapunov        C bounds and Lyapunov band edges (Floquet on the circle)
    spectrum        eigenfrequency CSV + metadata for a damping field
    bands           band/strip outlier report against the Lyapunov edges
    weyl            eigenvalue counting vs the volume prediction
    decay           time-domain energy trace and balance residual
    quantize-check  anti-Wick/Weyl property battery

All experiment parameters live in a JSON config; flags only choose the
command, the config path and an output directory.  Artifacts are
deterministic given the config (reports embed its hash).  Exit codes:
0 success, 1 input error, 2 a configured check failed, 3 a numerical
failure (a linear-algebra routine failed or a floating-point error was
raised).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, damping, evolution, lyapunov, quantize, spectrum
from .geometry import Manifold, PhasePoint


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config {path}: line {exc.lineno} column {exc.colno}: {exc.msg}")


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _section(cfg: dict, name: str, default=None) -> dict:
    sec = cfg.get(name, default if default is not None else {})
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return sec


def _manifold(cfg: dict) -> Manifold:
    sec = _section(cfg, "manifold", {"kind": "circle", "d": 1})
    try:
        return Manifold(sec.get("kind", "circle"), int(sec.get("d", 1)))
    except ValueError as exc:
        raise ConfigError(f"config manifold: {exc}")


def _field(cfg: dict, manifold: Manifold) -> damping.DampingField:
    sec = _section(cfg, "damping")
    if "field" in sec:
        try:
            return damping.DampingField.from_json(json.dumps(sec["field"]))
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"config damping.field: {exc}")
    if "generator" in sec:
        g = sec["generator"]
        try:
            return damping.random_field(int(g["n"]), int(g["K"]),
                                        float(g.get("amplitude", 1.0)),
                                        int(g.get("seed", 0)), d=manifold.d)
        except KeyError as exc:
            raise ConfigError(f"config damping.generator misses field {exc}")
    raise ConfigError("config damping needs either 'field' or 'generator'")


def _write(outdir: Path, name: str, text: str) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(text)
    return path


def _json_report(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _band_params(cfg: dict):
    sec = _section(cfg, "lyapunov")
    p = {
        "T": float(sec.get("T", lyapunov.DEFAULT_HORIZON)),
        "m": int(sec.get("samples", lyapunov.DEFAULT_SAMPLES)),
        "dt": float(sec.get("dt", lyapunov.DEFAULT_DT)),
        "seed": int(sec.get("seed", 0)),
        "renorm_every": int(sec.get("renorm_every", lyapunov.DEFAULT_RENORM_EVERY)),
    }
    for key, name in (("T", "T"), ("m", "samples"), ("dt", "dt"), ("renorm_every", "renorm_every")):
        if not p[key] > 0:
            raise ConfigError(f"config lyapunov.{name} must be positive, got {p[key]}")
    return p


def _band_estimates(field: damping.DampingField, p: dict) -> lyapunov.BandEstimates:
    """Band edges and C bounds: QR on tori; exact Floquet values on the circle's
    two shell orbits, with C = -(edges) and the step error of a rerun at dt/2."""
    if field.d != 1:
        return lyapunov.band_estimates(field, p["T"], p["m"], p["dt"], p["seed"], p["renorm_every"])
    xi = math.sqrt(lyapunov.SHELL_ENERGY)
    orbits = [PhasePoint((0.0,), (xi,)), PhasePoint((0.0,), (-xi,))]
    period = math.pi / xi
    exps = lyapunov.floquet_exponents(field, orbits, period, p["dt"])
    half_step = lyapunov.floquet_exponents(field, orbits, period, 0.5 * p["dt"])
    lam_minus, lam_plus = float(exps.min()), float(exps.max())
    return lyapunov.BandEstimates(-lam_plus, -lam_minus, lam_minus, lam_plus, period, 2, {
        "source": "floquet", "period": period, "dt": p["dt"],
        "step_error": float(np.max(np.abs(exps - half_step)))})


def run_lyapunov(cfg: dict, outdir: Path) -> int:
    manifold = _manifold(cfg)
    field = _field(cfg, manifold)
    p = _band_params(cfg)
    est = _band_estimates(field, p)
    bounds = damping.extremal_bounds(field)
    doc = est.to_report()
    doc.update({
        "config_hash": _config_hash(cfg),
        "params": {"T": p["T"], "samples": p["m"], "dt": p["dt"], "seed": p["seed"]},
        "a_minus": bounds.a_minus,
        "a_plus": bounds.a_plus,
        "indefinite_damping": bounds.indefinite,
    })
    path = _write(outdir, "lyapunov.json", _json_report(doc))
    print(f"wrote {path}")
    return 0


def _solve_spectrum(cfg: dict, manifold: Manifold, field: damping.DampingField):
    sec = _section(cfg, "solver")
    N = int(sec.get("N", 64))
    rel = float(sec.get("reliability", spectrum.DEFAULT_RELIABILITY))
    return spectrum.solve(field, manifold, N, rel)


def run_spectrum(cfg: dict, outdir: Path) -> int:
    manifold = _manifold(cfg)
    field = _field(cfg, manifold)
    spec = _solve_spectrum(cfg, manifold, field)
    meta = json.loads(spec.metadata_json())
    meta["config_hash"] = _config_hash(cfg)
    _write(outdir, "eigenvalues.csv", spec.to_csv())
    path = _write(outdir, "eigenvalues.meta.json", _json_report(meta))
    print(f"wrote {path.parent / 'eigenvalues.csv'} and {path}")
    return 0


def run_bands(cfg: dict, outdir: Path) -> int:
    manifold = _manifold(cfg)
    field = _field(cfg, manifold)
    p = _band_params(cfg)
    spec = _solve_spectrum(cfg, manifold, field)
    est = _band_estimates(field, p)
    asec = _section(cfg, "analysis")
    eps = float(asec.get("epsilon", 0.1))
    width = float(asec.get("window_width", 1.0))
    report = analysis.band_outliers(spec, est.lambda_minus, est.lambda_plus, eps,
                                    width, c_minus=est.c_minus, c_plus=est.c_plus)
    doc = report.to_dict()
    doc["config_hash"] = _config_hash(cfg)
    doc["band_diagnostics"] = dict(est.diagnostics)
    doc["params"] = {"N": spec.N, "T": est.T, "epsilon": eps,
                     "window_width": width, "samples": est.m}
    path = _write(outdir, "band_report.json", _json_report(doc))
    if asec.get("dump_points", False):
        rel = spec.reliable()
        rows = "\n".join(f"{t.real:.17g} {t.imag:.17g}" for t in rel)
        _write(outdir, "spectrum.dat", rows + "\n")
    print(analysis.format_band_table(report))
    print(f"wrote {path}")
    return 0


def run_weyl(cfg: dict, outdir: Path) -> int:
    manifold = _manifold(cfg)
    field = _field(cfg, manifold)
    spec = _solve_spectrum(cfg, manifold, field)
    asec = _section(cfg, "analysis")
    lam = asec.get("lambda")
    rep = analysis.weyl_report(spec, float(lam) if lam is not None else None)
    rep["config_hash"] = _config_hash(cfg)
    rep["params"] = {"N": spec.N, "lambda": rep["lambda"]}
    path = _write(outdir, "weyl.json", _json_report(rep))
    print(f"count={rep['count']} prediction={rep['prediction']:.6g} ratio={rep['ratio']:.6g}")
    print(f"wrote {path}")
    tol = asec.get("ratio_tolerance")
    if tol is not None and abs(rep["ratio"] - 1.0) > float(tol):
        print(f"weyl ratio deviates more than {tol}", file=sys.stderr)
        return 2
    return 0


def run_decay(cfg: dict, outdir: Path) -> int:
    manifold = _manifold(cfg)
    if manifold.d != 1:
        raise ConfigError("decay runs on the circle")
    field = _field(cfg, manifold)
    sec = _section(cfg, "evolution")
    N = int(sec.get("N", 8))
    T = float(sec.get("T", 10.0))
    dt = float(sec.get("dt", 1e-4))
    stride = int(sec.get("stride", 2))
    mode = int(sec.get("mode", 1))
    gen = spectrum.assemble(field, manifold, N)
    state = evolution.single_mode_state(N, k=mode, n=field.n)
    traj = evolution.evolve(gen, state, T, dt, stride)
    residual = evolution.energy_balance_residual(field, traj)
    _write(outdir, "energy.csv", evolution.energy_csv(traj))
    if sec.get("dump_states", False):
        (outdir / "states.bin").write_bytes(evolution.state_dump(traj))
    bounds = damping.extremal_bounds(field)
    doc = {
        "config_hash": _config_hash(cfg),
        "params": {"N": N, "T": T, "dt": dt, "stride": stride, "mode": mode},
        "balance_residual": residual,
        "a_minus": bounds.a_minus,
        "a_plus": bounds.a_plus,
    }
    path = _write(outdir, "decay.json", _json_report(doc))
    print(f"balance residual {residual:.3e}; wrote {path}")
    cap = sec.get("max_residual")
    if cap is not None and residual > float(cap):
        print(f"balance residual above {cap}", file=sys.stderr)
        return 2
    return 0


def _psd_probe_symbols() -> list:
    sym_cos2 = quantize.Symbol(lambda x, xi: np.cos(x) ** 2 + 0.0 * xi, 1)
    sym_gauss = quantize.Symbol(lambda x, xi: np.exp(-(xi**2)) + 0.0 * x, 1)

    def mat_sym(x, xi):
        s = np.sin(x) * np.exp(-0.5 * xi**2)
        m = np.empty(np.broadcast(x, xi).shape + (2, 2), dtype=complex)
        m[..., 0, 0] = 1.5 + np.cos(x)
        m[..., 1, 1] = 1.0 + 0.0 * x + 0.0 * xi
        m[..., 0, 1] = 0.3 * s
        m[..., 1, 0] = 0.3 * s
        return m

    return [quantize.symbol_one(), quantize.symbol_harmonic(), sym_cos2, sym_gauss,
            quantize.Symbol(mat_sym, 2)]


def _norm_at_most(A: np.ndarray, s: float) -> bool:
    """||A||_2 <= s, decided by a Cholesky of s^2 I - A^H A (no SVD)."""
    try:
        np.linalg.cholesky(s * s * np.eye(A.shape[1]) - A.conj().T @ A)
        return True
    except np.linalg.LinAlgError:
        return False


def run_quantize_check(cfg: dict, outdir: Path) -> int:
    sec = _section(cfg, "quantize")
    h = float(sec.get("h", 0.05))
    L = float(sec.get("L", 8.0))
    xi_max = float(sec.get("xi_max", 3.0))
    grid = quantize.GridSpec.build(L, h, xi_max)
    id_err = quantize.identity_error(grid)
    checks = {"identity_error": id_err, "identity_pass": bool(id_err < 1e-6)}
    pos = []
    norm_ok = True
    xs, xis, _ = quantize._aw_nodes(grid)
    for sym in _psd_probe_symbols():
        A = quantize.antiwick_build(sym, grid)
        w = np.linalg.eigvalsh(0.5 * (A + A.conj().T))
        pos.append(float(w[0]))
        vals = np.asarray(sym(xs[:, None], xis[None, :]))
        if sym.n == 1:
            sup = float(np.max(np.abs(vals)))
        else:
            sup = float(np.max(np.linalg.norm(vals, ord=2, axis=(-2, -1))))
        norm_ok = norm_ok and _norm_at_most(A, sup + 1e-6)
    checks["positivity_min_eigs"] = pos
    checks["positivity_pass"] = bool(min(pos) >= -1e-8)
    checks["norm_bound_pass"] = bool(norm_ok)
    moll = {}
    for sym in (quantize.symbol_one(), quantize.symbol_harmonic(), quantize.symbol_cos_x()):
        moll[sym.label] = quantize.mollified_weyl_residual(sym, grid)
    checks["mollified_residuals"] = moll
    checks["mollified_pass"] = bool(max(moll.values()) < 1e-4)
    doc = {
        "config_hash": _config_hash(cfg),
        "params": {"h": h, "L": L, "xi_max": xi_max, "points": grid.points},
        "checks": checks,
    }
    path = _write(outdir, "quantize.json", _json_report(doc))
    ok = all(checks[k] for k in ("identity_pass", "positivity_pass", "norm_bound_pass", "mollified_pass"))
    print(f"quantize checks {'pass' if ok else 'FAIL'}; wrote {path}")
    return 0 if ok else 2


_COMMANDS = {
    "lyapunov": run_lyapunov,
    "spectrum": run_spectrum,
    "bands": run_bands,
    "weyl": run_weyl,
    "decay": run_decay,
    "quantize-check": run_quantize_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dampedwave",
                                     description="damped wave spectra and Lyapunov bands")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        outdir = Path(args.out) if args.out else Path(_section(cfg, "output").get("dir", "out"))
        return _COMMANDS[args.command](cfg, outdir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, FloatingPointError) as exc:  # LinAlgError is a ValueError
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
