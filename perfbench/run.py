"""Benchmark of the dampedwave package: one workload per invocation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``spectral`` (dense
Galerkin eigensolves), ``cocycle`` (a few long cocycle trajectories) and
``semiclassical`` (anti-Wick quadrature, expm and the evolve loop).

The workload runs in a fresh Python process that imports the package from
the checkout's ``src`` with one BLAS thread.  Before it, a few
set-up-only processes measure set-up time (interpreter start, imports, input
generation), and ``setup_s`` is the median over them and the workload
process.  ``wall_s`` and ``cpu_s`` are the time of one pass, each job at its
median over the untraced passes, taken to a reference host speed
(``calibrate.py``); the raw times are printed beside.  Every check runs in every
pass and counts once, as failed if it failed in any pass, so the counts do
not depend on how many passes fit in the run.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics of a traced run with ``--trace 1``.  Lines before it give the
environment, every metric with its unit, and the failed checks.

``correct`` is false when any check fails, except checks listed as a known
defect of the program (ROADMAP item 1); those still count in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4          # set-up-only processes; the workload process makes one more sample
RUN_LIMIT_S = 175.0       # the whole invocation must end within this
#: One BLAS thread: a second thread does not shorten the dense eigensolves
#: (the Hessenberg QR iteration is mostly serial) but doubles their CPU time,
#: and its spin-waits make every time depend on what else the host runs.
BLAS_THREADS = 1
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_frac": "ratio"}


def _parse(argv=None):
    p = argparse.ArgumentParser(description="dampedwave benchmark")
    p.add_argument("--workload", required=True, choices=("spectral", "cocycle", "semiclassical"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sizes", choices=("full", "smoke"), default="full",
                   help="smoke shrinks every job (for the smoke test)")
    return p.parse_args(argv)


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _child_env(root: Path, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"      # the same dict and set layouts in every process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _spawn_worker(args, root: Path, out: Path, threads: int, setup_only: bool, timeout: float):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sizes", args.sizes, "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    cmd += ["--spawned-at", repr(spawned)]
    proc = subprocess.Popen(cmd, env=_child_env(root, threads), cwd=root,
                            stdout=subprocess.DEVNULL)
    try:
        return proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    t_start = time.monotonic()
    args = _parse(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "dampedwave" / "__init__.py").is_file():
        print(f"error: no src/dampedwave under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = BLAS_THREADS
    out = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - t_start)

    try:
        setups = []
        for _ in range(SETUP_PROBES):
            code = _spawn_worker(args, root, out, threads, True, remaining())
            if code != 0:
                print(f"error: set-up process exited with {code}", file=sys.stderr)
                return 3
            setups.append(json.loads((out / "setup.json").read_text())["setup_s"])
        code = _spawn_worker(args, root, out, threads, False, remaining())
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {RUN_LIMIT_S:.0f} s", file=sys.stderr)
        return 4
    if code != 0:
        print(f"error: workload process exited with {code}", file=sys.stderr)
        return 3
    res = json.loads((out / "result.json").read_text())
    env = res["environment"]
    env.update({"nproc": nproc, "git_commit": _git_commit(root), "workload_seed": args.seed})
    setups.append(res["setup_s"])
    res["setup_samples_s"] = setups
    (out / "result.json").write_text(json.dumps(res, indent=1))

    attempted, failed = res["attempted"], res["failed"]
    unexpected = sorted(set(res["failures"]) - set(res["known_defect"]))
    e2e = {
        "wall_s": res["wall_s"],
        "cpu_s": res["cpu_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "pass_frac": (attempted - failed) / attempted,
    }
    untraced, traced = res["untraced_wall_s"], res["traced_wall_s"]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"sizes={args.sizes} passes={len(untraced) + len(traced)} ({len(traced)} traced)")
    print("environment " + json.dumps(env, sort_keys=True))
    refs = res["ref_wall_s"]
    print(f"wall_s {e2e['wall_s']:.6g} s (one pass at reference speed: jobs at their median of "
          f"{len(untraced)} untraced passes, raw {res['raw_wall_s']:.4g} s, times "
          f"{res['ref_s']} s / median of {len(refs)} reference runs "
          f"{statistics.median(refs):.4g} s; whole passes "
          + ", ".join(f"{w:.4g}" for w in untraced) + ")")
    print(f"cpu_s {e2e['cpu_s']:.6g} s (user+sys, scaled likewise; raw {res['raw_cpu_s']:.4g} s)")
    print(f"setup_s {e2e['setup_s']:.6g} s (median of {len(setups)} processes: "
          + ", ".join(f"{s:.4g}" for s in setups) + ")")
    print(f"peak_rss_mb {e2e['peak_rss_mb']:.6g} MB")
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} checks failed)")
    print(f"pass_frac {e2e['pass_frac']:.6g} ratio")
    for name, detail in sorted(res["failures"].items()):
        tag = "known defect (ROADMAP item 1)" if name in res["known_defect"] else "FAILED"
        print(f"  check {name}: {tag}: {detail}")
    if args.trace:
        metrics = res["per_layer"]
        print(f"per-layer metrics, median of {len(traced)} traced passes "
              f"({', '.join(f'{w:.4g}' for w in traced)} s):")
        for name, value in metrics.items():
            print(f"  {name} {_fmt(value['value'])} {value['unit']}  "
                  f"({res['per_layer_notes'][name]})")
        print("span table over the traced passes (self s, inclusive s, calls):")
        for name, row in res["span_table"].items():
            print(f"  {name:40s} {row['self_s']:10.4f} {row['incl_s']:10.4f} {row['calls']:8d}")
        print(f"spans written to {out / 'spans.json'}")
        shown = metrics
    else:
        shown = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
