"""gjekit benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload solve-demos --seed 0 --seconds 20 --trace 0

Run from the repository root; gjekit is imported from ``src/`` next to this
directory.  The timed run (``--trace 0``) repeats whole passes of the
workload while another pass still fits in ``--seconds`` (at least one) and
reports the median pass time as ``wall_s``, the set-up time as ``setup_s``
and the peak resident memory.  The traced run (``--trace 1``) runs one
plain pass, then one pass with every layer wrapped, and reports the
per-layer metrics.  Every operation's output is checked; the last line of
standard output is the JSON result.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
# one BLAS thread: the kernels are single-threaded numpy, and a second
# thread on a shared two-core machine only adds noise
BLAS_THREADS = 1
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import gjekit.cli, gjekit.estimates, gjekit.optics, "
                "scipy.optimize, scipy.spatial; "
                "print(time.perf_counter() - t)")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["solve-demos", "check-conditions", "dense-envelopes"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _import_seconds(env):
    """Median time to import gjekit and the scipy parts it uses, each in a
    fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _environment():
    import numpy
    import scipy
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "gjekit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".json")):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "commit": commit, "source_sha256": digest.hexdigest()[:16],
            "python": sys.version.split()[0]}


def main(argv=None):
    args = _parse(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    try:
        import gjekit
    except ImportError as exc:
        print(f"cannot import gjekit from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(gjekit.__file__).startswith(SRC + os.sep):
        print(f"gjekit imported from {gjekit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # lazy imports inside gjekit functions, done before anything is timed
    import gjekit.cli, gjekit.estimates, gjekit.optics  # noqa: E401,F401
    import scipy.optimize, scipy.spatial  # noqa: E401,F401

    import spans
    import workloads

    child_env = dict(os.environ, PYTHONPATH=SRC)
    import_s = _import_seconds(child_env)
    work_dir = os.path.join(OUT, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        cls = workloads.WORKLOADS[args.workload]
        gen = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl = cls(args.seed, work_dir)
            gen.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(gen)

        passes = []
        walls = []
        if args.trace:
            plain = workloads.Pass()
            wl.run_pass(plain)
            run_id = f"{args.workload}-s{args.seed}"
            rec = spans.SpanRecorder(run_id)
            rec.install()
            try:
                traced = workloads.Pass(rec)
                wl.run_pass(traced)
            finally:
                rec.uninstall()
            passes = [plain, traced]
            metrics = spans.layer_metrics(rec, traced.op_s, plain.op_s,
                                          traced.bytes_written)
            units = {n: u for n, u, _ in spans.PER_LAYER}
            os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
            rec.write(os.path.join(OUT, "traces", f"{run_id}.npz"))
        else:
            t_start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                p = workloads.Pass()
                wl.run_pass(p)
                passes.append(p)
                walls.append(time.perf_counter() - t0)
                if time.perf_counter() - t_start + statistics.median(walls) > args.seconds:
                    break
            metrics = {"wall_s": statistics.median(p.op_s for p in passes),
                       "setup_s": setup_s,
                       "peak_rss_mb": resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    env = _environment()
    stages = {s: statistics.median(p.stage_s.get(s, 0.0) for p in passes)
              for s in cls.stages}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": len(passes), "environment": env,
              "setup": {"import_s": import_s, "generate_s": gen},
              "stages_median_s": stages, "fail_frac": failed / attempted,
              "failures": [f for p in passes for f in p.failures],
              "notes": passes[-1].notes, "metrics": metrics}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results",
                           f"{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=float)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  attempted {attempted}  failed {failed}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {units[name]}")
    if not args.trace:
        for name, value in stages.items():
            print(f"  {name:48s} {value:>16.6g} s")
    print(f"  {'fail_frac':48s} {failed / attempted:>16.6g} ratio")
    for name, value in passes[-1].notes.items():
        print(f"  note: {name} = {value}")
    for f in report["failures"][:20]:
        print(f"  FAILED {f}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": float(v), "unit": units[n]}
                          for n, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
