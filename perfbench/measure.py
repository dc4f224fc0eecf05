"""The measuring loops: a warm-up, then timed or traced iterations until the
run's time is spent.
"""

import resource
from statistics import median
from time import perf_counter

from spans import Tracer
from traced import per_layer, traced_point
from workloads import WARMUP_STEPS, run_iteration, setup_seconds, shortened, write_config

# Set-up is timed in bursts, one before the first timed iteration and one
# after each, so that its samples spread over the run.  A burst repeats the
# set-up until it has lasted SETUP_BURST_SECONDS: long enough to span the
# few-second swings in speed of a shared host, which a shorter burst catches
# at one extreme.
SETUP_BURST_SECONDS = 1.0


def measure(workload, args, out, ops, samples):
    """Warm up, then measure; returns the metrics `args.trace` selects."""
    # One discarded warm-up iteration of the same configuration, cut to a few
    # steps of the same dt: imports, first-call paths and the factorization
    # all run once before anything is timed.
    warm = shortened(workload, WARMUP_STEPS)
    cfg, out_dir = write_config(warm, args.seed, out / "warmup")
    run_iteration(warm, cfg, out_dir, ops, "warm-up")
    if args.trace:
        return measure_per_layer(workload, args, out, ops, samples)
    return measure_end_to_end(workload, args, out, ops, samples)


def peak_rss_mb():
    """Peak RSS of this process or of any child it waited for (sweep workers)."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib * 1024 / 1e6


def iterations(seconds):
    """Count iterations while one more, as long as the last, fits in `seconds`.

    The first iteration always runs, so a run measures at least one.
    """
    start = perf_counter()
    k, last = 0, 0.0
    while k == 0 or perf_counter() - start + last <= seconds:
        began = perf_counter()
        k += 1
        yield k
        last = perf_counter() - began


def setup_burst(workload, out):
    burst = []
    while sum(burst) < SETUP_BURST_SECONDS:
        burst.append(setup_seconds(workload, out / "setup"))
    return burst


def measure_end_to_end(workload, args, out, ops, samples):
    cfg, out_dir = write_config(workload, args.seed, out / "timed")
    walls, rates = [], []
    setups = setup_burst(workload, out)
    for k in iterations(args.seconds):
        wall, steps, loops = run_iteration(workload, cfg, out_dir, ops, f"iteration {k}")
        walls.append(wall)
        rates.append(steps / sum(loops))
        setups += setup_burst(workload, out)
    samples.update(wall_s=walls, steps_per_s=rates, setup_s=setups)
    return {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "steps_per_s": median(rates),
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": 1.0 - ops.failed / ops.attempted,
    }


def measure_per_layer(workload, args, out, ops, samples):
    cfg, out_dir = write_config(workload, args.seed, out / "timed")
    tracer = Tracer()
    passes, sizes = [], []
    for run_id in iterations(args.seconds):
        wall, _, loops = run_iteration(workload, cfg, out_dir, ops, f"untraced {run_id}")
        tracer.run_id = run_id
        for n, rho in workload.points:
            point_dir = out / "traced" / f"seed{args.seed}" / f"N{n}_rho{rho:g}"
            point_sizes, problems = traced_point(tracer, workload, n, rho, point_dir)
            ops.record(f"traced {run_id} N={n} rho={rho:g}", problems)
            sizes.append(point_sizes)
        metrics, counts = per_layer(tracer, run_id, workload, wall, loops)
        passes.append(metrics)
    tracer.write(out / f"spans_seed{args.seed}.json")
    samples.update(passes=passes, counts=counts, points=sizes)
    metrics = {name: median([p[name] for p in passes]) for name in passes[0]}
    largest = max(sizes, key=lambda s: s["dim"])
    metrics.update({
        "assembly.dim": largest["dim"],
        "assembly.nnz_a": largest["nnz_a"],
        "solver.lu_nnz": largest["lu_nnz"],
        "solver.lu_fill": largest["lu_fill"],
        "solver.solve_bytes_computed": largest["solve_bytes"],
    })
    return metrics
