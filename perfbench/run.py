"""spintrack benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload run_n8 --seed 1 --seconds 40 --trace 0

--trace 0 times the workload end to end through `spintrack run|sweep` and
reports the `end_to_end` metrics of BENCHMARK.json; --trace 1 makes the
traced pass and reports the `per_layer` metrics.  --smoke shrinks every
workload to N = 2 and a dozen steps, for the benchmark's own tests.  The
last line of standard output is the result; the full record (environment,
every sample, every failure) and, when traced, the spans go to --out.
perfbench/METRICS.md describes each metric.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

# One BLAS thread per process.  numpy is first imported after this, here and
# in the sweep's spawned workers, which inherit the environment.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFERRED = {
    "solver.gmres_iterations": "GMRES does not report its iteration count through a public "
    "call; it needs tracing inside the package",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget of the measured iterations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="N = 2, a dozen steps")
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "out")
    return parser.parse_args(argv)


def llc_bytes():
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
        except OSError:
            continue
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest():
    """SHA-256 over the package sources, which identifies a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "spintrack").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "llc_bytes": llc_bytes(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def stop_resource_tracker():
    """Stop and reap the tracker process multiprocessing starts for the sweep's pool.

    Left to itself it outlives this process by a moment and, orphaned, may
    never be reaped; stopping it here leaves no process of the benchmark behind.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None):
    try:
        return bench(argv)
    finally:
        stop_resource_tracker()


def bench(argv):
    args = parse_args(argv)
    if not (SRC / "spintrack" / "__init__.py").is_file():
        print(f"error: no spintrack package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    from measure import measure
    from workloads import WORKLOADS, Operations, smoke

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    out = args.out / workload.name
    env = environment()
    ops = Operations()

    samples = {}
    metrics = measure(workload, args, out, ops, samples)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    env["loadavg_after"] = os.getloadavg()

    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env,
        "samples": samples,
        "failures": ops.failures,
        "deferred": DEFERRED if args.trace else {},
        "result": result,
    }
    record_path = out / f"record_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="ascii")
    print(f"environment: {json.dumps(env)}")
    for failure in ops.failures:
        print(f"FAILED {failure['op']}: {'; '.join(failure['problems'])}")
    print(f"record: {record_path}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
