import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from dampedwave import cli, evolution, lyapunov, quantize, spectrum
from dampedwave.cli import main
from dampedwave.damping import DampingField, random_field
from dampedwave.geometry import sample_shell
from dampedwave.lyapunov import band_estimates, lyapunov_spectrum
from dampedwave.quantize import GridSpec

UNDAMPED = {
    "manifold": {"kind": "circle", "d": 1},
    "damping": {"field": {"n": 1, "d": 1, "K": 0,
                          "coeffs": [{"k": [0], "re": [[0.0]], "im": [[0.0]]}]}},
    "solver": {"N": 200, "reliability": 0.5},
}

CONSTANT = {
    "manifold": {"kind": "circle", "d": 1},
    "damping": {"field": {"n": 1, "d": 1, "K": 0,
                          "coeffs": [{"k": [0], "re": [[0.7]], "im": [[0.0]]}]}},
    "solver": {"N": 48, "reliability": 0.5},
    "lyapunov": {"T": 40, "dt": 0.002, "samples": 8, "seed": 1},
    "analysis": {"epsilon": 0.1, "window_width": 1.0, "dump_points": True},
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc, indent=1))
    return str(p)


def test_weyl_undamped_example(tmp_path, capsys):
    cfg = dict(UNDAMPED, output={"dir": str(tmp_path / "out")})
    code = main(["weyl", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    rep = json.loads((tmp_path / "out" / "weyl.json").read_text())
    assert rep["count"] == 201
    assert rep["prediction"] == pytest.approx(200.0)
    assert rep["ratio"] == pytest.approx(1.005)
    assert "config_hash" in rep and rep["params"]["N"] == 200


def test_missing_config_exits_one(tmp_path, capsys):
    code = main(["weyl", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    assert "nope.json" in capsys.readouterr().err


def test_malformed_config_reports_line(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"manifold": {\n  "kind": circle}}\n')
    code = main(["weyl", "--config", str(p)])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_bands_constant_field(tmp_path, capsys):
    cfg = dict(CONSTANT, output={"dir": str(tmp_path / "out")})
    code = main(["bands", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    doc = json.loads((tmp_path / "out" / "band_report.json").read_text())
    beyond = [w for w in doc["windows"] if w["re_min"] >= 1.0]
    assert sum(w["outliers_above"] + w["outliers_below"] for w in beyond) == 0
    assert (tmp_path / "out" / "spectrum.dat").exists()
    assert doc["band_diagnostics"]["source"] == "floquet"
    assert doc["lambda_minus"] == doc["lambda_plus"] == pytest.approx(-0.7, abs=1e-10)
    assert doc["c_minus"] == -doc["lambda_plus"]
    table = capsys.readouterr().out
    assert "re_min" in table


#: a(x) = 1.2 I + 1.2 [[cos 2x, sin 2x], [sin 2x, -cos 2x]], whose eigenvalues 0 and 2.4 rotate
ROTATING = {"n": 2, "d": 1, "K": 2, "coeffs": [
    {"k": [0], "re": [[1.2, 0.0], [0.0, 1.2]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    {"k": [2], "re": [[0.6, 0.0], [0.0, -0.6]], "im": [[0.0, -0.6], [-0.6, 0.0]]},
    {"k": [-2], "re": [[0.6, 0.0], [0.0, -0.6]], "im": [[0.0, 0.6], [0.6, 0.0]]}]}


def test_bands_follow_the_unit_speed_exponents_of_a_rotating_field(tmp_path):
    # at the wave speed 1 the Floquet exponents are -(1.2 +- sqrt(0.44)); the spectrum
    # follows those lines, not the Birkhoff edges 0 and 2.4 of the eigenvalues of a
    cfg = {"manifold": {"kind": "circle", "d": 1}, "damping": {"field": ROTATING},
           "solver": {"N": 128},
           "analysis": {"epsilon": 0.1, "window_width": 1.0, "dump_points": True},
           "output": {"dir": str(tmp_path / "out")}}
    assert main(["bands", "--config", write_cfg(tmp_path, cfg)]) == 0
    doc = json.loads((tmp_path / "out" / "band_report.json").read_text())
    lines = np.array([1.2 + math.sqrt(0.44), 1.2 - math.sqrt(0.44)])
    assert abs(doc["lambda_minus"] + lines[0]) < 1e-9 and abs(doc["lambda_plus"] + lines[1]) < 1e-9
    beyond = [w for w in doc["windows"] if w["re_min"] >= 8.0]
    assert beyond and sum(w["outliers_above"] + w["outliers_below"] for w in beyond) == 0
    re, im = np.loadtxt(tmp_path / "out" / "spectrum.dat").T
    far = im[re >= 16.0]
    assert far.size > 0
    assert np.max(np.min(np.abs(far[:, None] - lines), axis=1)) < 0.01
    assert np.min(np.abs(far[:, None] - [0.0, 2.4])) > 0.4


def test_artifacts_are_deterministic(tmp_path):
    cfg = dict(CONSTANT, output={"dir": str(tmp_path / "a")})
    path = write_cfg(tmp_path, cfg)
    assert main(["spectrum", "--config", path]) == 0
    first = (tmp_path / "a" / "eigenvalues.csv").read_bytes()
    meta1 = (tmp_path / "a" / "eigenvalues.meta.json").read_bytes()
    assert main(["spectrum", "--config", path, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "eigenvalues.csv").read_bytes() == first
    assert (tmp_path / "b" / "eigenvalues.meta.json").read_bytes() == meta1


def test_lyapunov_command(tmp_path):
    cfg = {
        "manifold": {"kind": "circle", "d": 1},
        "damping": {"generator": {"n": 2, "K": 1, "amplitude": 0.5, "seed": 3}},
        "lyapunov": {"T": 20, "dt": 0.002, "samples": 10, "seed": 0},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert main(["lyapunov", "--config", write_cfg(tmp_path, cfg)]) == 0
    doc = json.loads((tmp_path / "out" / "lyapunov.json").read_text())
    assert set(doc) >= {"c_minus", "c_plus", "lambda_minus", "lambda_plus",
                        "config_hash", "a_minus", "a_plus", "indefinite_damping"}
    assert doc["c_minus"] <= doc["c_plus"]
    diag = doc["diagnostics"]
    assert diag["source"] == "floquet"
    assert doc["c_minus"] == -doc["lambda_plus"] and doc["c_plus"] == -doc["lambda_minus"]
    assert doc["T"] == diag["period"] == pytest.approx(2.0 * math.pi)
    assert doc["m"] == 2
    assert 0.0 <= diag["step_error"] < 1e-8


def test_lyapunov_rejects_zero_horizon(tmp_path, capsys):
    cfg = {
        "manifold": {"kind": "circle", "d": 1},
        "damping": {"generator": {"n": 2, "K": 1, "amplitude": 0.5, "seed": 3}},
        "lyapunov": {"T": 0, "dt": 0.002, "samples": 4, "seed": 0},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert main(["lyapunov", "--config", write_cfg(tmp_path, cfg)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "lyapunov.json").exists()


def test_lyapunov_rejects_unstable_step(tmp_path, capsys):
    cfg = {
        "manifold": {"kind": "circle", "d": 1},
        "damping": {"field": {"n": 1, "d": 1, "K": 0,
                              "coeffs": [{"k": [0], "re": [[400.0]], "im": [[0.0]]}]}},
        "lyapunov": {"T": 64, "dt": 0.5, "samples": 4, "seed": 0},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert main(["lyapunov", "--config", write_cfg(tmp_path, cfg)]) == 1
    assert "stability" in capsys.readouterr().err
    assert not (tmp_path / "out" / "lyapunov.json").exists()


TORUS = {
    "manifold": {"kind": "flat_torus", "d": 2},
    "damping": {"generator": {"n": 2, "K": 1, "amplitude": 0.6, "seed": 4}},
    "solver": {"N": 6, "reliability": 0.5},
    "lyapunov": {"T": 5, "dt": 0.002, "samples": 3, "seed": 2},
}


def test_lyapunov_torus_reads_qr(tmp_path):
    cfg = dict(TORUS, output={"dir": str(tmp_path / "out")})
    assert main(["lyapunov", "--config", write_cfg(tmp_path, cfg)]) == 0
    doc = json.loads((tmp_path / "out" / "lyapunov.json").read_text())
    f = random_field(2, 1, 0.6, seed=4, d=2)
    est = band_estimates(f, T=5.0, m=3, dt=0.002, seed=2)
    assert doc["diagnostics"]["source"] == "qr"
    # the CLI adds the step error of the two edge samples rerun at dt/2
    points = sample_shell(3, lyapunov.SHELL_ENERGY, d=2, seed=2)
    lo, hi = est.diagnostics["lambda_minus_sample"], est.diagnostics["lambda_plus_sample"]
    half_lo = lyapunov_spectrum(f, points[lo], 5.0, 0.001).exponents[0]
    half_hi = lyapunov_spectrum(f, points[hi], 5.0, 0.001).exponents[-1]
    expected = dataclasses.asdict(est)
    expected["diagnostics"]["step_error"] = max(abs(est.lambda_minus - half_lo),
                                                abs(est.lambda_plus - half_hi))
    assert {k: doc[k] for k in expected} == expected
    assert 0.0 < doc["diagnostics"]["step_error"] < 1e-8


def stiff_torus_cfg(tmp_path, dt):
    # a(x) = diag(1, 300) + 0.5 cos x_1 [[0, 1], [1, 0]] on T^2
    X, Z = [[0.0, 0.25], [0.25, 0.0]], [[0.0, 0.0], [0.0, 0.0]]
    field = {"n": 2, "d": 2, "K": 1, "coeffs": [
        {"k": [0, 0], "re": [[1.0, 0.0], [0.0, 300.0]], "im": Z},
        {"k": [1, 0], "re": X, "im": Z}, {"k": [-1, 0], "re": X, "im": Z}]}
    return {"manifold": {"kind": "flat_torus", "d": 2}, "damping": {"field": field},
            "lyapunov": {"T": 1.0, "dt": dt, "samples": 2, "seed": 1},
            "output": {"dir": str(tmp_path / "out")}}


def test_torus_step_error_flags_a_stable_but_inaccurate_step(tmp_path):
    # h * 300 = 1.5 is inside RK4's stability interval, yet lambda_minus reads
    # about -259 where the truth is about -300
    cfg = stiff_torus_cfg(tmp_path, 5e-3)
    assert main(["lyapunov", "--config", write_cfg(tmp_path, cfg)]) == 0
    diag = json.loads((tmp_path / "out" / "lyapunov.json").read_text())["diagnostics"]
    assert diag["rank_ok"] and diag["step_error"] > 1.0
    # at h * 300 = 0.03 what is left is RK4's leading error in the rate -300,
    # 300 (0.03)^4 / 120 at dt and 1/16 of it at dt/2
    cfg = stiff_torus_cfg(tmp_path, 1e-4)
    assert main(["lyapunov", "--config", write_cfg(tmp_path, cfg)]) == 0
    diag = json.loads((tmp_path / "out" / "lyapunov.json").read_text())["diagnostics"]
    assert diag["step_error"] < 1e-5
    assert diag["step_error"] == pytest.approx(300.0 * 0.03**4 / 120.0 * 15.0 / 16.0, rel=0.1)


@pytest.mark.parametrize("override", [{"T": 0}, {"T": -5}, {"samples": 0}, {"seed": 0.5},
                                      {"dt": 0}, {"dt": -1e-3}, {"dt": float("nan")},
                                      {"seed": -1}])
@pytest.mark.parametrize("base", [CONSTANT, TORUS], ids=["circle", "torus"])
@pytest.mark.parametrize("command", ["lyapunov", "bands"])
def test_band_params_rejected_on_every_manifold(tmp_path, capsys, command, base, override):
    cfg = dict(base, output={"dir": str(tmp_path / "out")})
    cfg["lyapunov"] = dict(base["lyapunov"], **override)
    assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 1
    (key,) = override
    assert capsys.readouterr().err.startswith(f"error: config lyapunov.{key} must be")
    assert not (tmp_path / "out").exists()


def test_negative_generator_seed_names_its_key(tmp_path, capsys):
    cfg = json.loads(json.dumps(dict(TORUS, output={"dir": str(tmp_path / "out")})))
    cfg["damping"]["generator"]["seed"] = -2
    assert main(["spectrum", "--config", write_cfg(tmp_path, cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: config damping.generator.seed must be a non-negative integer")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_lyapunov_ignores_renorm_every(tmp_path):
    # the QR cadence is a numerical knob, clamped to the field's safe group
    # length; the config does not set it
    docs = []
    for name, extra in (("plain", {}), ("cadence", {"renorm_every": 7})):
        cfg = dict(TORUS, output={"dir": str(tmp_path / name)})
        cfg["lyapunov"] = dict(TORUS["lyapunov"], **extra)
        assert main(["lyapunov", "--config", write_cfg(tmp_path, cfg, f"{name}.json")]) == 0
        docs.append(json.loads((tmp_path / name / "lyapunov.json").read_text()))
        del docs[-1]["config_hash"]
    assert docs[0] == docs[1]


@pytest.mark.parametrize("raw", ["[1, 2]", "3", "null", '"spectrum"'])
def test_config_must_be_an_object(tmp_path, capsys, raw):
    path = tmp_path / "cfg.json"
    path.write_text(raw)
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: config {path} must be a JSON object")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    cfg = dict(CONSTANT, output={"dir": str(tmp_path / "out")})
    assert main(["spectrum", "--config", write_cfg(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure:") and "side" in err
    assert not (tmp_path / "out" / "eigenvalues.csv").exists()


def test_eigenvalues_lost_to_overflow_exit_3(tmp_path, capsys):
    cfg = {"damping": {"generator": {"n": 2, "K": 1, "amplitude": 1e308}}, "solver": {"N": 4},
           "output": {"dir": str(tmp_path / "out")}}
    assert main(["spectrum", "--config", write_cfg(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure:") and "side 36" in err
    assert not (tmp_path / "out").exists()


def test_a_config_directory_is_an_input_error(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["spectrum", "decay"])
@pytest.mark.parametrize("by_flag", [True, False])
def test_an_output_dir_below_a_file_is_an_input_error(tmp_path, capsys, command, by_flag):
    (tmp_path / "plain").write_text("")
    out = str(tmp_path / "plain" / "out")
    cfg = dict(EVOLUTION if command == "decay" else CONSTANT, output={"dir": out})
    argv = [command, "--config", write_cfg(tmp_path, cfg)] + (["--out", out] if by_flag else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert (tmp_path / "plain").read_text() == "" and sorted(tmp_path.iterdir()) == [
        tmp_path / "cfg.json", tmp_path / "plain"]


@pytest.mark.parametrize("command, module, solver", [("spectrum", spectrum, "solve"),
                                                     ("decay", evolution, "evolve")])
@pytest.mark.parametrize("below", [True, False])
def test_an_unusable_output_dir_fails_before_the_solver(tmp_path, capsys, monkeypatch, command,
                                                        module, solver, below):
    def reached(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(module, solver, reached)
    (tmp_path / "plain").write_text("")
    out = tmp_path / "plain" / "a" / "b" if below else tmp_path / "plain"
    cfg = write_cfg(tmp_path, EVOLUTION if command == "decay" else CONSTANT)
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err and "Traceback" not in err
    assert (tmp_path / "plain").read_text() == ""


def test_decay_command_and_residual_gate(tmp_path):
    cfg = {
        "manifold": {"kind": "circle", "d": 1},
        "damping": {"field": {"n": 1, "d": 1, "K": 1, "coeffs": [
            {"k": [0], "re": [[1.0]], "im": [[0.0]]},
            {"k": [1], "re": [[0.5]], "im": [[0.0]]},
            {"k": [-1], "re": [[0.5]], "im": [[0.0]]}]}},
        "evolution": {"N": 6, "T": 2.0, "dt": 1e-4, "stride": 2, "mode": 2},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert main(["decay", "--config", write_cfg(tmp_path, cfg)]) == 0
    doc = json.loads((tmp_path / "out" / "decay.json").read_text())
    assert doc["balance_residual"] < 1e-5
    assert (tmp_path / "out" / "energy.csv").read_text().startswith("t,energy")
    cfg["evolution"]["max_residual"] = 1e-30
    assert main(["decay", "--config", write_cfg(tmp_path, cfg, "strict.json")]) == 2


@pytest.mark.parametrize("override, word", [
    ({"stride": 0}, "stride"),
    ({"stride": -2}, "stride"),
    ({"dt": 0}, "dt"),
    ({"dt": -1e-4}, "dt"),
    ({"T": float("nan")}, "T"),
    ({"mode": 20}, "mode"),
    # 2 a dt = 4 lies outside RK4's stability interval although dt < 0.5/N^2: the run overflows
    ({"T": 1.0, "dt": 1e-3, "stride": 10}, "finite"),
])
def test_decay_bad_input_is_diagnosed(tmp_path, capsys, override, word):
    cfg = {
        "manifold": {"kind": "circle", "d": 1},
        "damping": {"field": {"n": 1, "d": 1, "K": 0,
                              "coeffs": [{"k": [0], "re": [[2000.0]], "im": [[0.0]]}]}},
        "evolution": dict({"N": 8, "T": 0.01, "dt": 1e-4, "stride": 2, "mode": 1}, **override),
        "output": {"dir": str(tmp_path / "out")},
    }
    assert main(["decay", "--config", write_cfg(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and word in err
    assert not (tmp_path / "out" / "decay.json").exists()


def test_decay_out_of_memory_is_an_input_error(tmp_path, capsys):
    # T / dt = 1e12 recorded steps: the trajectory arrays would take terabytes
    cfg = dict(EVOLUTION, output={"dir": str(tmp_path / "out")})
    cfg["evolution"] = {"N": 4, "T": 1e9, "dt": 0.001, "stride": 1}
    assert main(["decay", "--config", write_cfg(tmp_path, cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: out of memory:") and "Traceback" not in captured.err
    assert not (tmp_path / "out" / "decay.json").exists()


def test_quantize_check_command(tmp_path):
    cfg = {"quantize": {"h": 0.1, "L": 5.0, "xi_max": 3.0},
           "output": {"dir": str(tmp_path / "out")}}
    assert main(["quantize-check", "--config", write_cfg(tmp_path, cfg)]) == 0
    doc = json.loads((tmp_path / "out" / "quantize.json").read_text())
    checks = doc["checks"]
    assert checks["identity_pass"] and checks["positivity_pass"]
    assert checks["norm_bound_pass"] and checks["mollified_pass"]


@pytest.mark.parametrize("perturb", [lambda A: (1 + 1e-4) * A,
                                     lambda A: A + 1e-2j * np.eye(len(A))],
                         ids=["scaled", "anti_hermitian"])
def test_quantize_check_fails_a_probe_operator_above_its_sup(tmp_path, monkeypatch, perturb):
    # ||Op_AW(1)||_2 is sup |1| = 1 to 1.6e-15; scaled by 1 + 1e-4, or plus 1e-2 i I, which
    # leaves the Hermitian part as it was, its norm is above 1 + 1e-6 and the bound must fail
    probes = cli._psd_probe_symbols()
    build = quantize.antiwick_build
    monkeypatch.setattr(cli, "_psd_probe_symbols", lambda: probes)
    monkeypatch.setattr(quantize, "antiwick_build", lambda sym, grid: (
        perturb(build(sym, grid)) if any(sym is p for p in probes) else build(sym, grid)))
    cfg = dict(QUANTIZE, output={"dir": str(tmp_path / "out")})
    assert main(["quantize-check", "--config", write_cfg(tmp_path, cfg)]) == 2
    checks = json.loads((tmp_path / "out" / "quantize.json").read_text())["checks"]
    assert not checks["norm_bound_pass"]
    assert checks["identity_pass"] and checks["positivity_pass"] and checks["mollified_pass"]


QUANTIZE = {"quantize": {"h": 0.1, "L": 5.0}}


@pytest.mark.parametrize("quant, words", [
    ({"h": 1e-9, "L": 1.0}, ["h=1e-09", "L=1.0", "xi_max=3.0", "1910020371 grid points"]),
    ({"h": 5e-324, "L": 1.0}, ["h=5e-324", "L=1.0", "overflows"]),
    ({"h": 0.1, "L": 1e308}, ["L=1e+308", "overflows"]),
])
def test_quantize_check_rejects_a_grid_above_the_dense_cap(tmp_path, capsys, quant, words):
    # rejected before any array is built: h = 1e-9 would ask for about 14 GiB
    cfg = {"quantize": quant, "output": {"dir": str(tmp_path / "out")}}
    assert main(["quantize-check", "--config", write_cfg(tmp_path, cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: config quantize: ")
    assert all(w in captured.err for w in words) and "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_quantize_check_cap_counts_the_matrix_probe(tmp_path, capsys, monkeypatch):
    # the 2 x 2 probe symbol makes the largest dense side twice the point count
    points = GridSpec.build(5.0, 0.1).points
    monkeypatch.setattr(spectrum, "SIDE_CAP", 2 * points - 1)
    cfg = dict(QUANTIZE, output={"dir": str(tmp_path / "out")})
    assert main(["quantize-check", "--config", write_cfg(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config quantize: ") and f"{points} grid points" in err
    assert f"dense side {2 * points} above the cap {2 * points - 1}" in err


@pytest.mark.parametrize("quant", [{"h": 50}, {"h": 0.25, "L": 5.0}, {"h": 0.1, "L": 3.0}])
def test_quantize_check_rejects_an_empty_certified_region(tmp_path, capsys, quant):
    # (TAIL_CUT + 2) sqrt(h) >= L: no interior left to compare on, so nothing may pass
    cfg = {"quantize": quant, "output": {"dir": str(tmp_path / "out")}}
    assert main(["quantize-check", "--config", write_cfg(tmp_path, cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: config quantize")
    assert "pass" not in captured.out and "Traceback" not in captured.err
    assert not (tmp_path / "out" / "quantize.json").exists()


@pytest.mark.parametrize("override", [{"n": "1"}, {"n": True}, {"n": 0}, {"d": 1.5}, {"d": "1"}])
def test_field_with_bad_sizes_is_diagnosed(tmp_path, capsys, override):
    cfg = {"damping": {"field": dict(UNDAMPED["damping"]["field"], **override)},
           "solver": {"N": 8}, "output": {"dir": str(tmp_path / "out")}}
    assert main(["spectrum", "--config", write_cfg(tmp_path, cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: config damping.field:")
    assert "integer >= 1" in captured.err and "Traceback" not in captured.err
    assert not (tmp_path / "out" / "eigenvalues.csv").exists()


@pytest.mark.parametrize("command", ["lyapunov", "spectrum"])
@pytest.mark.parametrize("second, word", [
    ({"k": [0.7], "re": [[5.0]], "im": [[0.0]]}, "integers"),
    ({"k": [1.5], "re": [[0.5]], "im": [[0.0]]}, "integers"),
    ({"k": [True], "re": [[0.5]], "im": [[0.0]]}, "integers"),
    ({"k": [0], "re": [[5.0]], "im": [[0.0]]}, "repeated"),
    ({"k": [1], "re": [[float("nan")]], "im": [[0.0]]}, "finite"),
])
def test_field_with_bad_frequency_or_coefficient_is_diagnosed(tmp_path, capsys, command, second,
                                                              word):
    # each would otherwise run: int(0.7) = 0 overwrote a = 1 with a = 5, and NaN exited 3
    coeffs = [{"k": [0], "re": [[1.0]], "im": [[0.0]]}, second]
    cfg = {"damping": {"field": {"n": 1, "d": 1, "coeffs": coeffs}},
           "lyapunov": {"T": 1.0, "dt": 0.01}, "solver": {"N": 8},
           "output": {"dir": str(tmp_path / "out")}}
    assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: config damping.field:")
    assert word in captured.err and "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_bands_rejects_a_window_width_with_too_many_windows(tmp_path, capsys):
    # 1e-300 would tile the reliable range in about 1e301 windows
    cfg = {"damping": {"generator": {"n": 2, "K": 1, "seed": 1}}, "solver": {"N": 4},
           "lyapunov": {"dt": 0.01}, "analysis": {"window_width": 1e-300},
           "output": {"dir": str(tmp_path / "out")}}
    assert main(["bands", "--config", write_cfg(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: window_width=1e-300") and "more than 100000" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("k", [1e300, 1.5e308])
def test_lyapunov_names_an_astronomical_band(tmp_path, capsys, k):
    # the coefficient box (8K + 1)^d is checked before any array is built
    coeffs = [{"k": [0], "re": [[1.0]], "im": [[0.0]]}, {"k": [k], "re": [[0.25]], "im": [[0.0]]},
              {"k": [-k], "re": [[0.25]], "im": [[0.0]]}]
    cfg = {"damping": {"field": {"n": 1, "d": 1, "coeffs": coeffs}},
           "lyapunov": {"T": 1.0, "dt": 0.01}, "output": {"dir": str(tmp_path / "out")}}
    assert main(["lyapunov", "--config", write_cfg(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the damping band") and f"K={k:.2e} on d=1" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["lyapunov", "spectrum"])
def test_a_frequency_past_the_float_range_is_diagnosed(tmp_path, capsys, command):
    # k = 10^400 written as a JSON integer used to reach the float mode table
    coeffs = [{"k": [0], "re": [[1.0]], "im": [[0.0]]},
              {"k": [10**400], "re": [[0.25]], "im": [[0.0]]},
              {"k": [-(10**400)], "re": [[0.25]], "im": [[0.0]]}]
    cfg = {"damping": {"field": {"n": 1, "d": 1, "coeffs": coeffs}},
           "lyapunov": {"T": 1.0, "dt": 0.01}, "solver": {"N": 8},
           "output": {"dir": str(tmp_path / "out")}}
    assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config damping.field: frequency component 1.00e+400 is beyond")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, base, section, key, value", [
    ("quantize-check", QUANTIZE, "quantize", "h", 0),
    ("quantize-check", QUANTIZE, "quantize", "h", -0.1),
    ("quantize-check", QUANTIZE, "quantize", "L", float("nan")),
    ("quantize-check", QUANTIZE, "quantize", "xi_max", float("nan")),
    ("quantize-check", QUANTIZE, "quantize", "xi_max", float("inf")),
    ("weyl", CONSTANT, "analysis", "lambda", float("nan")),
    ("bands", CONSTANT, "analysis", "epsilon", float("nan")),
    ("bands", CONSTANT, "analysis", "window_width", float("nan")),
])
def test_zero_and_nan_values_rejected(tmp_path, capsys, command, base, section, key, value):
    cfg = dict(base, output={"dir": str(tmp_path / "out")})
    cfg[section] = dict(base.get(section, {}), **{key: value})
    assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key} must be positive" in err
    assert not (tmp_path / "out").exists()


EVOLUTION = {
    "manifold": {"kind": "circle", "d": 1},
    "damping": {"generator": {"n": 1, "K": 1, "amplitude": 0.5, "seed": 2}},
    "evolution": {"N": 4, "T": 0.01, "dt": 1e-3, "stride": 2, "mode": 1},
}
@pytest.mark.parametrize("T", [1e300, 1e308])
@pytest.mark.parametrize("command, base, section", [("lyapunov", TORUS, "lyapunov"),
                                                    ("decay", EVOLUTION, "evolution")],
                         ids=["torus_lyapunov", "circle_decay"])
def test_a_horizon_past_float64_step_indices_is_diagnosed(tmp_path, capsys, command, base,
                                                          section, T):
    # ceil(T / dt) past 2**53 used to overflow in plan_steps or in the stream
    cfg = json.loads(json.dumps(dict(base, output={"dir": str(tmp_path / "out")})))
    cfg[section]["T"] = T
    assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: horizon T={T:g} at step dt=") and "above 2**53" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


COUNT_KEYS = [("spectrum", CONSTANT, "manifold", "d"),
              ("spectrum", TORUS, "damping.generator", "n"),
              ("spectrum", TORUS, "damping.generator", "K"),
              ("spectrum", TORUS, "damping.generator", "seed"),
              ("lyapunov", TORUS, "lyapunov", "samples"),
              ("lyapunov", TORUS, "lyapunov", "seed"),
              ("bands", CONSTANT, "lyapunov", "samples"),
              ("spectrum", CONSTANT, "solver", "N"),
              ("decay", EVOLUTION, "evolution", "N"),
              ("decay", EVOLUTION, "evolution", "stride"),
              ("decay", EVOLUTION, "evolution", "mode")]
REAL_KEYS = [("spectrum", TORUS, "damping.generator", "amplitude"),
             ("lyapunov", TORUS, "lyapunov", "T"),
             ("lyapunov", TORUS, "lyapunov", "dt"),
             ("spectrum", CONSTANT, "solver", "reliability"),
             ("decay", EVOLUTION, "evolution", "T"),
             ("decay", EVOLUTION, "evolution", "dt"),
             ("quantize-check", QUANTIZE, "quantize", "h"),
             ("quantize-check", QUANTIZE, "quantize", "L"),
             ("quantize-check", QUANTIZE, "quantize", "xi_max"),
             ("bands", CONSTANT, "analysis", "epsilon"),
             ("bands", CONSTANT, "analysis", "window_width")]
# null means "not given" for these
OPTIONAL_KEYS = [("weyl", CONSTANT, "analysis", "lambda"),
                 ("weyl", CONSTANT, "analysis", "ratio_tolerance"),
                 ("decay", EVOLUTION, "evolution", "max_residual")]
BAD_NUMBERS = ["1e400", "-1e400", "[3]", '"x"', "NaN", "true"]
# switches must be JSON booleans and the output directory a string
FLAG_KEYS = [("bands", CONSTANT, "analysis", "dump_points"),
             ("decay", EVOLUTION, "evolution", "dump_states")]
BAD_FLAGS = ['"false"', '"no"', "0", "1", "null", "[true]"]
BAD_DIRS = ["5", '["out"]', "null", "true"]


@pytest.mark.parametrize("command, base, section, key, raw",
                         [c + (v,) for c in COUNT_KEYS for v in BAD_NUMBERS + ["null", "2.7", "12.5"]]
                         + [c + (v,) for c in REAL_KEYS for v in BAD_NUMBERS + ["null"]]
                         + [c + (v,) for c in OPTIONAL_KEYS for v in BAD_NUMBERS]
                         + [c + (v,) for c in FLAG_KEYS for v in BAD_FLAGS]
                         + [("spectrum", CONSTANT, "output", "dir", v) for v in BAD_DIRS])
def test_bad_numbers_in_config_are_diagnosed(tmp_path, capsys, command, base, section, key, raw):
    # raw JSON text: 1e400 parses to inf, NaN to nan; counts must be integral
    cfg = json.loads(json.dumps(dict(base, output={"dir": str(tmp_path / "out")})))
    sec = cfg
    for part in section.split("."):
        sec = sec.setdefault(part, {})
    sec[key] = "@bad@"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"@bad@"', raw))
    assert main([command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: config {section}.{key} must be")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_the_six_commands_run_without_scipy(tmp_path):
    # scipy is loaded only inside convergence_check and factorization_residual; one fresh
    # interpreter imports the package, runs every command and lists the scipy modules loaded
    jobs = [[command, write_cfg(tmp_path, base, f"{command}.json"), str(tmp_path / command)]
            for command, base in [("spectrum", CONSTANT), ("weyl", CONSTANT), ("bands", CONSTANT),
                                  ("lyapunov", CONSTANT), ("decay", EVOLUTION),
                                  ("quantize-check", QUANTIZE)]]
    script = textwrap.dedent("""
        import json, sys
        import dampedwave
        from dampedwave.cli import main

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        after_import = scipy_modules()
        codes = [main([c, "--config", cfg, "--out", out]) for c, cfg, out in json.loads(sys.argv[1])]
        print(json.dumps({"after_import": after_import, "codes": codes,
                          "after_run": scipy_modules()}))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(jobs)], env=env,
                          capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.splitlines()[-1])
    assert got["codes"] == [0] * len(jobs), done.stderr
    assert got["after_import"] == [] and got["after_run"] == []
