"""The traced run: spintrack's public calls in the order `cli` and `solver.run`
make them, each wrapped in a span, and the per-layer numbers derived from
the spans' self times.
"""

from statistics import median
from time import perf_counter

import numpy as np

from spintrack import cli, model, observables, solver
from spintrack.assembly import assemble_cn, assemble_hamiltonian
from spintrack.state import StateVector

from spans import list_schedule_makespan, tail_percentile
from workloads import check_summary, point_config

COMPLEX_BYTES = 16
INDEX_BYTES = 4

# Per-step median self time, in ms, by metric name and span name.
PER_STEP = {
    "solver.solve_ms_p50": "solver.solve",
    "solver.rhs_matvec_ms_p50": "solver.rhs_matvec",
    "solver.residual_matvec_ms_p50": "solver.residual_matvec",
    "observables.channel_probs_ms_p50": "observables.channel_probs",
    "observables.class_probs_ms_p50": "observables.class_probs",
    "observables.energy_ms_p50": "observables.energy",
}
# Summed self time over the workload's points, by metric name.
SUMMED = {
    "model.setup_s": "model.setup",
    "assembly.hamiltonian_s": "assembly.hamiltonian",
    "assembly.cn_s": "assembly.cn",
    "solver.factor_s": "solver.factor",
    "cli.resolve_s": "cli.resolve",
    "cli.artifacts_s": "cli.artifacts",
}


def factor_sizes(system, linear_solver):
    """Operator and factor sizes of one point.

    The LU factors are found as the solver's SuperLU object (anything holding
    `L` and `U`).  The iterative solver stores none; its factor counts are 0.
    `solve_bytes` is computed, not measured: every factor entry read once
    (value and row index) plus the right-hand side, the solution and their
    two permutations.
    """
    dim = system.dim
    nnz_a = system.a.nnz
    lu_nnz = 0
    for value in vars(linear_solver).values():
        if hasattr(value, "L") and hasattr(value, "U"):
            lu_nnz = value.L.nnz + value.U.nnz
    solve_bytes = lu_nnz * (COMPLEX_BYTES + INDEX_BYTES) + 4 * dim * COMPLEX_BYTES if lu_nnz else 0
    return {
        "dim": dim,
        "nnz_a": nnz_a,
        "lu_nnz": lu_nnz,
        "lu_fill": lu_nnz / nnz_a,
        "solve_bytes": solve_bytes,
    }


def traced_loop(tracer, system, psi0, setup):
    """solver.run, step by step, with a span around each kernel.

    Returns (RunRecord, worst step residual, sizes, problems).  Like
    solver.step, every step checks that the solution is finite and that its
    residual is within the configured rtol; a step that fails is reported in
    `problems`, not raised.
    """
    h = system.h
    config = setup.solve_config
    sides = setup.layout.sides
    num_steps = setup.tgrid.num_steps
    span = tracer.span
    with span("observables.energy"):
        observables.energy(psi0, h)  # solver.run's step-size accuracy guard
    with span("solver.factor"):
        linear_solver = solver.make_linear_solver(system, config)
    sizes = factor_sizes(system, linear_solver)

    times = system.dt * np.arange(num_steps + 1)
    norm2 = np.empty(num_steps + 1)
    energy = np.empty(num_steps + 1)
    classes = np.empty((num_steps + 1, 5))

    def record(k, state):
        with span("observables.channel_probs"):
            probs = observables.channel_probs(state, t=times[k])
        norm2[k] = probs.total
        with span("observables.energy"):
            energy[k] = observables.energy(state, h)
        with span("observables.class_probs"):
            cls = observables.class_probs(probs, sides)
        classes[k] = (cls.unchanged, cls.one_spin, cls.left_track, cls.right_track, cls.multi_track)

    state = psi0.copy()
    record(0, state)
    worst = 0.0
    problems = []
    for k in range(1, num_steps + 1):
        with span("solver.step"):
            flat = state.values.ravel()
            with span("solver.rhs_matvec"):
                rhs = system.b @ flat
            with span("solver.solve"):
                x = linear_solver.solve(rhs, x0=flat)
            finite = bool(np.all(np.isfinite(x)))
            with span("solver.residual_matvec"):
                ax = system.a @ x
            residual = float(np.linalg.norm(ax - rhs) / np.linalg.norm(rhs))
            state = StateVector(x.reshape(state.values.shape), state.dx)
        worst = max(worst, residual)
        if not finite or not residual <= config.rtol:
            problems.append(f"step {k}: finite={finite}, residual {residual:.3e} > {config.rtol:g}")
        record(k, state)
    rec = solver.RunRecord(
        times=times,
        norm2=norm2,
        energy=energy,
        unchanged=classes[:, 0],
        one_spin=classes[:, 1],
        left_track=classes[:, 2],
        right_track=classes[:, 3],
        multi_track=classes[:, 4],
        final_state=state,
    )
    return rec, worst, sizes, problems


def traced_point(tracer, workload, num_spins, rho, out_dir):
    """One point from config to artifacts on disk, as `spintrack run` does it.

    Returns (sizes, problems).
    """
    span = tracer.span
    cfg = point_config(workload, num_spins, rho, out_dir)
    with span("point"):
        with span("cli.resolve"):
            setup = cli.resolve_run_config(cfg)
        with span("model.setup"):
            notes = model.validate_regime(setup.params, setup.geom)
        with span("assembly.hamiltonian"):
            h = assemble_hamiltonian(
                setup.params, setup.grid, setup.layout, boundary_mode=setup.boundary_mode
            )
        with span("assembly.cn"):
            system = assemble_cn(h, setup.tgrid.dt, setup.params.hbar)
        with span("model.setup"):
            psi0 = model.initial_state(setup.params, setup.grid, h.num_channels)
        loop_start = perf_counter()
        with span("solver.run"):
            rec, worst, sizes, problems = traced_loop(tracer, system, psi0, setup)
        loop_seconds = perf_counter() - loop_start
        with span("cli.artifacts"):
            final_channels = observables.channel_probs(rec.final_state, t=setup.tgrid.t_final)
            final_classes = observables.class_probs(final_channels, setup.layout.sides)
            result = cli.SimulationResult(
                setup=setup,
                record=rec,
                final_channels=final_channels,
                final_classes=final_classes,
                arrival=observables.arrival_time(rec, setup.arrival_drop),
                regime_notes=notes,
                wall_seconds=loop_seconds,
            )
            summary = cli.write_run_artifacts(result, setup.out_dir)
    sizes["worst_residual"] = worst
    return sizes, problems + check_summary(summary, num_spins, workload.check_reference)


def per_layer(tracer, run_id, workload, untraced_wall, untraced_loop):
    """Per-layer metrics of one traced pass over the workload's points.

    `untraced_wall` and `untraced_loop` come from the untraced iteration the
    pass is paired with: cli.main's wall time and the per-point solver.run
    seconds the CLI recorded.
    """
    spans = dict(tracer.of_run(run_id))
    self_time = tracer.self_times(run_id)
    by_name = {}
    for i, s in spans.items():
        by_name.setdefault(s[0], []).append(i)

    def durations(name):
        return [spans[i][2] - spans[i][1] for i in by_name[name]]

    steps = durations("solver.step")
    metrics = {
        "solver.step_ms_p50": 1e3 * median(steps),
        "solver.step_ms_p97": 1e3 * tail_percentile(steps),
    }
    for metric, name in PER_STEP.items():
        metrics[metric] = 1e3 * median([self_time[i] for i in by_name[name]])
    for metric, name in SUMMED.items():
        metrics[metric] = sum(self_time[i] for i in by_name[name])

    run_spans = durations("solver.run")
    observed = sum(
        self_time[i]
        for name in ("observables.channel_probs", "observables.class_probs", "observables.energy")
        for i in by_name[name]
    )
    metrics["observables.share"] = observed / sum(run_spans)

    # Each point's time with the traced loop swapped for the untraced
    # solver.run time the CLI recorded, so the tracing cost drops out.
    busy = [
        point - traced + untraced
        for point, traced, untraced in zip(durations("point"), run_spans, untraced_loop)
    ]
    metrics["cli.sweep_spawn_overhead_s"] = untraced_wall - list_schedule_makespan(busy, workload.workers)
    metrics["cli.sweep_worker_busy_frac"] = sum(busy) / (workload.workers * untraced_wall)
    metrics["trace.overhead_frac"] = sum(run_spans) / sum(untraced_loop) - 1.0
    counts = {"step_samples": len(steps)}
    return metrics, counts
