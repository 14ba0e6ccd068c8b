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
0 success, 1 input error (a MemoryError or a file-system OSError counts
as one), 2 a configured check failed, 3 a numerical failure (a
linear-algebra routine failed or a floating-point error was raised).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, damping, evolution, lyapunov, quantize, spectrum
from .geometry import Manifold, PhasePoint, sample_shell


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config {path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object, got {json.dumps(cfg)}")
    return cfg


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _section(cfg: dict, name: str, default=None) -> dict:
    sec = cfg.get(name, default if default is not None else {})
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return sec


def _number(sec: dict, name: str, key: str, default, integer: bool = False,
            positive: bool = False):
    """Config value ``sec[key]`` (``default`` when absent) as a finite float, or
    as an int when ``integer``; ``name`` is the section's path in the config.

    Strings, booleans, lists, NaN, infinities, numbers beyond float range,
    non-integral counts and, when ``positive``, values <= 0 are a ConfigError
    that names ``name.key``.
    """
    v = sec.get(key, default)
    if integer:
        what = "a positive integer" if positive else "an integer"
    else:
        what = "positive and finite" if positive else "a finite number"
    bad = isinstance(v, bool) or not isinstance(v, (int, float))
    if not bad:
        if isinstance(v, float):
            bad = not math.isfinite(v) or (integer and not v.is_integer())
        elif not integer:
            bad = abs(v) > sys.float_info.max
        bad = bad or (positive and not v > 0)
    if bad:
        raise ConfigError(f"config {name}.{key} must be {what}, got {json.dumps(v)}")
    return int(v) if integer else float(v)


def _flag(sec: dict, name: str, key: str) -> bool:
    """Config switch ``sec[key]``, false when absent; anything but a JSON boolean
    is a ConfigError that names ``name.key``."""
    v = sec.get(key, False)
    if not isinstance(v, bool):
        raise ConfigError(f"config {name}.{key} must be true or false, got {json.dumps(v)}")
    return v


def _seed(sec: dict, name: str) -> int:
    """``_number`` of ``sec["seed"]`` (0 when absent), held to be non-negative."""
    v = _number(sec, name, "seed", 0, integer=True)
    if v < 0:
        raise ConfigError(f"config {name}.seed must be a non-negative integer, got {v}")
    return v


def _optional(sec: dict, name: str, key: str, **kw):
    """``_number`` of an optional key: None when it is absent or null."""
    return None if sec.get(key) is None else _number(sec, name, key, None, **kw)


def _manifold(cfg: dict) -> Manifold:
    sec = _section(cfg, "manifold", {"kind": "circle", "d": 1})
    d = _number(sec, "manifold", "d", 1, integer=True)
    try:
        return Manifold(sec.get("kind", "circle"), d)
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
        g = _section(sec, "generator")
        for key in ("n", "K"):
            if key not in g:
                raise ConfigError(f"config damping.generator misses field {key!r}")
        name = "damping.generator"
        return damping.random_field(_number(g, name, "n", None, integer=True),
                                    _number(g, name, "K", None, integer=True),
                                    _number(g, name, "amplitude", 1.0),
                                    _seed(g, name), d=manifold.d)
    raise ConfigError("config damping needs either 'field' or 'generator'")


def _output_dir(cfg: dict) -> Path:
    d = _section(cfg, "output").get("dir", "out")
    if not isinstance(d, str):
        raise ConfigError(f"config output.dir must be a string, got {json.dumps(d)}")
    return Path(d)


def _write(outdir: Path, name: str, text: str) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(text)
    return path


def _json_report(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _band_params(cfg: dict):
    sec = _section(cfg, "lyapunov")
    return {
        "T": _number(sec, "lyapunov", "T", lyapunov.DEFAULT_HORIZON, positive=True),
        "m": _number(sec, "lyapunov", "samples", lyapunov.DEFAULT_SAMPLES, integer=True,
                     positive=True),
        "dt": _number(sec, "lyapunov", "dt", lyapunov.DEFAULT_DT, positive=True),
        "seed": _seed(sec, "lyapunov"),
    }


def _band_estimates(field: damping.DampingField, p: dict) -> lyapunov.BandEstimates:
    """Band edges and C bounds with the step error of a rerun at dt/2: QR on
    tori, where only the two samples attaining the edges are rerun; exact
    Floquet values on the circle's two shell orbits, with C = -(edges)."""
    if field.d != 1:
        est = lyapunov.band_estimates(field, p["T"], p["m"], p["dt"], p["seed"])
        points = sample_shell(p["m"], lyapunov.SHELL_ENERGY, d=field.d, seed=p["seed"])
        lo, hi = est.diagnostics["lambda_minus_sample"], est.diagnostics["lambda_plus_sample"]
        half_step = {i: lyapunov.lyapunov_spectrum(field, points[i], p["T"], 0.5 * p["dt"]).exponents
                     for i in {lo, hi}}
        step_error = max(abs(est.lambda_minus - half_step[lo][0]),
                         abs(est.lambda_plus - half_step[hi][-1]))
        return dataclasses.replace(est, diagnostics={**est.diagnostics, "step_error": step_error})
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
    doc = dataclasses.asdict(est)
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
    N = _number(sec, "solver", "N", 64, integer=True)
    rel = _number(sec, "solver", "reliability", spectrum.DEFAULT_RELIABILITY)
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
    asec = _section(cfg, "analysis")
    eps = _number(asec, "analysis", "epsilon", 0.1, positive=True)
    width = _number(asec, "analysis", "window_width", 1.0, positive=True)
    dump_points = _flag(asec, "analysis", "dump_points")
    spec = _solve_spectrum(cfg, manifold, field)
    est = _band_estimates(field, p)
    report = analysis.band_outliers(spec, est.lambda_minus, est.lambda_plus, eps,
                                    width, c_minus=est.c_minus, c_plus=est.c_plus)
    doc = dataclasses.asdict(report)
    doc["config_hash"] = _config_hash(cfg)
    doc["band_diagnostics"] = dict(est.diagnostics)
    doc["params"] = {"N": spec.N, "T": est.T, "epsilon": eps,
                     "window_width": width, "samples": est.m}
    path = _write(outdir, "band_report.json", _json_report(doc))
    if dump_points:
        rel = spec.reliable()
        rows = "\n".join(f"{t.real:.17g} {t.imag:.17g}" for t in rel)
        _write(outdir, "spectrum.dat", rows + "\n")
    print(analysis.format_band_table(report))
    print(f"wrote {path}")
    return 0


def run_weyl(cfg: dict, outdir: Path) -> int:
    manifold = _manifold(cfg)
    field = _field(cfg, manifold)
    asec = _section(cfg, "analysis")
    lam = _optional(asec, "analysis", "lambda", positive=True)
    tol = _optional(asec, "analysis", "ratio_tolerance")
    spec = _solve_spectrum(cfg, manifold, field)
    rep = analysis.weyl_report(spec, lam)
    rep["config_hash"] = _config_hash(cfg)
    rep["params"] = {"N": spec.N, "lambda": rep["lambda"]}
    path = _write(outdir, "weyl.json", _json_report(rep))
    print(f"count={rep['count']} prediction={rep['prediction']:.6g} ratio={rep['ratio']:.6g}")
    print(f"wrote {path}")
    if tol is not None and abs(rep["ratio"] - 1.0) > tol:
        print(f"weyl ratio deviates more than {tol}", file=sys.stderr)
        return 2
    return 0


def run_decay(cfg: dict, outdir: Path) -> int:
    manifold = _manifold(cfg)
    if manifold.d != 1:
        raise ConfigError("decay runs on the circle")
    field = _field(cfg, manifold)
    sec = _section(cfg, "evolution")
    N = _number(sec, "evolution", "N", 8, integer=True)
    T = _number(sec, "evolution", "T", 10.0)
    dt = _number(sec, "evolution", "dt", 1e-4)
    stride = _number(sec, "evolution", "stride", 2, integer=True)
    mode = _number(sec, "evolution", "mode", 1, integer=True)
    cap = _optional(sec, "evolution", "max_residual")
    dump_states = _flag(sec, "evolution", "dump_states")
    gen = spectrum.assemble(field, manifold, N)
    state = evolution.single_mode_state(N, k=mode, n=field.n)
    traj = evolution.evolve(gen, state, T, dt, stride)
    residual = evolution.energy_balance_residual(field, traj)
    _write(outdir, "energy.csv", evolution.energy_csv(traj))
    if dump_states:
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
    if cap is not None and residual > cap:
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
    h = _number(sec, "quantize", "h", 0.05, positive=True)
    L = _number(sec, "quantize", "L", 8.0, positive=True)
    xi_max = _number(sec, "quantize", "xi_max", 3.0, positive=True)
    if (quantize.TAIL_CUT + 2.0) * math.sqrt(h) >= L:
        raise ConfigError(f"config quantize: h={h} leaves no certified region inside L={L}; "
                          f"need {quantize.TAIL_CUT + 2.0:g} sqrt(h) < L")
    try:
        grid = quantize.GridSpec.build(L, h, xi_max)
    except ValueError as exc:
        raise ConfigError(f"config quantize: {exc}")
    probes = _psd_probe_symbols()
    side = grid.points * max(sym.n for sym in probes)
    if side > spectrum.SIDE_CAP:
        raise ConfigError(f"config quantize: h={h}, L={L}, xi_max={xi_max} need {grid.points} "
                          f"grid points, a dense side {side} above the cap {spectrum.SIDE_CAP}")
    id_err = quantize.identity_error(grid)
    checks = {"identity_error": id_err, "identity_pass": bool(id_err < 1e-6)}
    pos = []
    norm_ok = True
    xs, xis, _ = quantize._aw_nodes(grid)
    for sym in probes:
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
        outdir = Path(args.out) if args.out else _output_dir(cfg)
        return _COMMANDS[args.command](cfg, outdir)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, FloatingPointError) as exc:  # LinAlgError is a ValueError
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
