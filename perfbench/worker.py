"""One workload in one fresh Python process: set up, run timed passes, report.

Started by ``run.py``; not meant to be run by hand.  The worker imports the
package from the checkout's ``src``, generates the seeded inputs, then runs
passes over the workload's job list until ``--seconds`` is used up (at least
two, so artifacts of two passes can be compared).  With ``--trace 1`` the
passes alternate untraced and traced, and the traced ones record spans.
Untraced passes time each job and, after it, the host speed reference of
``calibrate.py``.  The result and the spans go to JSON files in ``--out``.
"""

from __future__ import annotations

import argparse
import time

SPAWNED_HELP = "parent's time.monotonic() just before it started this process"


def _parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sizes", choices=("full", "smoke"), default="full")
    p.add_argument("--out", required=True)
    p.add_argument("--spawned-at", type=float, required=True, help=SPAWNED_HELP)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def environment() -> dict:
    """Interpreter, numpy, scipy and BLAS versions and the BLAS threads in use."""
    import ctypes
    import os
    import platform
    from pathlib import Path

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    seen = None
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None and seen is None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                seen = int(fn())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads_seen": seen,
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None) -> int:
    args = _parse(argv)
    # everything from here to the first timed job is set-up
    import hashlib
    import json
    import resource
    import shutil
    import statistics
    import sys
    import traceback
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import calibrate
    import dampedwave
    import workloads

    src = Path.cwd().resolve() / "src"
    if src not in Path(dampedwave.__file__).resolve().parents:
        print(f"dampedwave imported from {dampedwave.__file__}, not from {src}", file=sys.stderr)
        return 2

    out = Path(args.out)
    wl = workloads.build(args.workload, args.seed, args.sizes, out / "inputs")
    setup_end = time.monotonic()
    if args.setup_only:
        (out / "setup.json").write_text(json.dumps({"setup_s": setup_end - args.spawned_at}))
        return 0

    import tracer as tracing

    calibrate.reference()            # the first call pays LAPACK's lazy set-up

    tracer = tracing.Tracer() if args.trace else None
    seen = set()                     # every check name that ran
    failures = {}                    # check name -> first failing detail
    hashes = {}                      # cli job -> artifact hash of the first pass
    traced, untraced, layers = [], [], []   # pass wall times (untraced: jobs only)
    elapsed = []                     # whole pass wall times, references included
    job_wall, job_cpu = {}, {}       # job -> its wall and CPU times over the untraced passes
    refs = []                        # reference (wall, cpu) after each untraced job

    def record(name, ok, detail):
        # each check counts once per run, failed if it failed in any pass, so
        # the counts do not depend on how many passes fit in the run
        seen.add(name)
        if not ok:
            failures.setdefault(name, detail)

    def artifact_hash(d: Path) -> str:
        h = hashlib.sha256()
        for f in sorted(p for p in d.rglob("*") if p.is_file()):
            h.update(f.relative_to(d).as_posix().encode() + b"\0" + f.read_bytes())
        return h.hexdigest()

    def run_job(job, pass_dir):
        jdir = pass_dir / job.name
        try:
            got = job.run(jdir)
        except Exception as exc:  # a raising job fails all its checks; the pass goes on
            traceback.print_exc(file=sys.stderr)
            got = {}
            err = f"{type(exc).__name__}: {exc}"
        else:
            err = "check not returned"
        for name in job.checks:
            ok, detail = got.get(name, (False, err))
            record(name, bool(ok), detail)
        if job.cli:
            digest = artifact_hash(jdir)
            first = hashes.setdefault(job.name, digest)
            if traced or untraced:
                record(f"{job.name}.artifacts_identical", digest == first,
                       "artifacts differ between passes")

    def one_pass(i, traced_pass):
        pass_dir = out / f"pass{i}"
        lo = len(tracer.spans) if tracer else 0
        if traced_pass:
            tracer.reset_counts()
            tracer.install()
        t0 = time.perf_counter()
        try:
            if traced_pass:
                with tracer.span("pass"):
                    for job in wl.jobs:
                        with tracer.span(f"job.{job.name}"):
                            run_job(job, pass_dir)
            else:
                for job in wl.jobs:
                    w0, c0 = time.perf_counter(), time.process_time()
                    run_job(job, pass_dir)
                    job_wall.setdefault(job.name, []).append(time.perf_counter() - w0)
                    job_cpu.setdefault(job.name, []).append(time.process_time() - c0)
                    refs.append(calibrate.reference())
        finally:
            if traced_pass:
                tracer.uninstall()
        wall = time.perf_counter() - t0
        elapsed.append(wall)
        shutil.rmtree(pass_dir, ignore_errors=True)
        if traced_pass:
            traced.append(wall)
            layers.append(tracing.layer_metrics(tracer, lo, len(tracer.spans),
                                                tracer.spans[lo][2] - tracer.spans[lo][1]))
        else:
            untraced.append(sum(job_wall[j.name][-1] for j in wl.jobs))

    start = time.monotonic()
    i = 0
    while True:
        one_pass(i, bool(args.trace) and i % 2 == 1)
        i += 1
        used = time.monotonic() - start
        if i >= 2 and used + statistics.median(elapsed) > args.seconds:
            break

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw_wall = sum(statistics.median(v) for v in job_wall.values())
    raw_cpu = sum(statistics.median(v) for v in job_cpu.values())
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_end - args.spawned_at,
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        # one pass, each job at its median, taken to the reference host speed
        "wall_s": raw_wall * calibrate.scale(refs),
        "cpu_s": raw_cpu * calibrate.scale(refs, cpu=True),
        "raw_wall_s": raw_wall,
        "raw_cpu_s": raw_cpu,
        "ref_s": calibrate.REF_S,
        "ref_wall_s": [w for w, _ in refs],
        "job_wall_s": job_wall,
        "job_cpu_s": job_cpu,
        "peak_rss_mb": rss_mb,
        "attempted": len(seen),
        "failed": len(failures),
        "failures": failures,
        "known_defect": sorted({c for j in wl.jobs for c in j.known_defect}),
        "manifest": wl.manifest(),
    }
    result["environment"] = environment()
    if args.trace:
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        per_layer["checks.fail_frac"] = len(failures) / len(seen)
        per_layer = {k: {"value": v, "unit": tracing.LAYER_METRICS[k][0]}
                     for k, v in per_layer.items()}
        result["per_layer_notes"] = {k: f"{what}; should move {e2e} on {where}"
                                     for k, (_, _, what, e2e, where) in tracing.LAYER_METRICS.items()}
        lo = min(i for i, s in enumerate(tracer.spans) if s[0] == "pass")
        selfs, incl, calls = tracing.self_times(tracer.spans, lo)
        result["per_layer"] = per_layer
        result["span_table"] = {k: {"self_s": selfs[k], "incl_s": incl[k], "calls": calls[k]}
                                for k in sorted(selfs, key=selfs.get, reverse=True)}
        (out / "spans.json").write_text(json.dumps(
            [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in tracer.spans]))
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
