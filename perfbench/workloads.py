"""Workload definitions, untraced measurement and output checks.

Every workload drives spintrack through its public calls: `cli.main` for the
timed iterations, and the setup functions of `cli`, `assembly`, `solver` and
`model` for the set-up probe.
"""

import csv
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from spintrack import cli, model, solver
from spintrack.assembly import assemble_cn, assemble_hamiltonian

EPSILON = 0.1
T_FINAL = 0.065
WARMUP_STEPS = 10

# Frozen acceptance rows at rho = 100: (UC, OS, LRC one side) by detector
# count, and the criterion-2 tolerances on UC and LRC.
REFERENCE_RHO100 = {
    6: (0.394108332939, 0.459327397789, 0.0732817073769),
    8: (0.259847521850, 0.467653883264, 0.136249083320),
}
REFERENCE_TOL = {6: (0.03, 0.02), 8: (0.03, 0.03)}
MAX_DRIFT = 1e-8
MIN_ROW_SUM = 0.9999


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # "run" or "sweep"
    points: tuple           # ((N, rho), ...) in the order the CLI runs them
    method: str             # linear-solve method
    workers: int            # sweep parallelism; 1 for a single run
    num_steps: int = 350
    t_final: float = T_FINAL
    check_reference: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload("run_n8", "run", ((8, 100.0),), "direct", 1),
        Workload(
            "sweep_small", "sweep",
            tuple((n, r) for n in (2, 4, 6) for r in (50.0, 100.0, 150.0)),
            "direct", 2, check_reference=False,
        ),
        Workload("gmres_n6", "run", ((6, 100.0),), "iterative", 1),
    )
}


def shortened(workload, num_steps):
    """The same workload cut to `num_steps` steps of the same dt."""
    return replace(
        workload,
        num_steps=num_steps,
        t_final=workload.t_final * num_steps / workload.num_steps,
        check_reference=False,
    )


def smoke(workload):
    """The workload shrunk to N = 2 and a dozen steps, for the benchmark's tests."""
    points = ((2, 50.0), (2, 100.0)) if workload.command == "sweep" else ((2, 100.0),)
    return shortened(replace(workload, points=points), 12)


def point_config(workload, num_spins, rho, out_dir):
    """The run config of one point, as `spintrack run` reads it."""
    return {
        "preset": {
            "epsilon": EPSILON,
            "num_spins": num_spins,
            "rho": rho,
            "num_steps": workload.num_steps,
            "t_final": workload.t_final,
        },
        "solver": {"method": workload.method},
        "out_dir": str(out_dir),
    }


def write_config(workload, seed, out_dir):
    """Write the config file one iteration reads; returns its path.

    The seed orders the sweep's N and rho lists (the CLI sorts them, so the
    results must not depend on it) and names the output directory.  The run
    workloads are the frozen acceptance configurations and take nothing else
    from it.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload.command == "run":
        (n, rho), = workload.points
        cfg = point_config(workload, n, rho, out_dir / f"seed{seed}")
    else:
        rng = random.Random(seed)
        spins = sorted({n for n, _ in workload.points})
        rhos = sorted({r for _, r in workload.points})
        rng.shuffle(spins)
        rng.shuffle(rhos)
        cfg = {
            "epsilon": EPSILON,
            "num_spins": spins,
            "rho": rhos,
            "num_steps": workload.num_steps,
            "t_final": workload.t_final,
            "solver": {"method": workload.method},
            "parallelism": workload.workers,
            "out_dir": str(out_dir / f"seed{seed}"),
        }
    path = out_dir / f"config_seed{seed}.json"
    path.write_text(json.dumps(cfg), encoding="ascii")
    return path, Path(cfg["out_dir"])


class Operations:
    """Counts attempted and failed operations and keeps each failure's reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append({"op": label, "problems": problems})

    @property
    def failed(self):
        return len(self.failures)


def check_summary(summary, num_spins, check_reference):
    """Problems with one run's summary.json (empty when it passes)."""
    res = summary["results"]
    problems = []
    row_sum = res["UC"] + res["OS"] + res["LRC_left"] + res["LRC_right"] + res["MT"]
    if not row_sum >= MIN_ROW_SUM:
        problems.append(f"row sum {row_sum:.6f} < {MIN_ROW_SUM}")
    for key in ("norm2_max_drift", "energy_max_rel_drift"):
        if not res[key] <= MAX_DRIFT:
            problems.append(f"{key}={res[key]:.3e} > {MAX_DRIFT:g}")
    if check_reference:
        uc_ref, _, lrc_ref = REFERENCE_RHO100[num_spins]
        uc_tol, lrc_tol = REFERENCE_TOL[num_spins]
        if not abs(res["UC"] - uc_ref) <= uc_tol:
            problems.append(f"UC={res['UC']:.6f}, reference {uc_ref:.6f} +- {uc_tol}")
        if not abs(res["LRC_left"] - lrc_ref) <= lrc_tol:
            problems.append(f"LRC={res['LRC_left']:.6f}, reference {lrc_ref:.6f} +- {lrc_tol}")
    return problems


def check_sweep_row(row):
    """Problems with one sweep.csv row: a failed point writes nan cells."""
    row_sum = float(row["row_sum"])
    if not row_sum >= MIN_ROW_SUM:
        return [f"N={row['N']} rho={row['rho']}: row_sum={row['row_sum']}"]
    return []


def run_iteration(workload, config_path, out_dir, ops, label):
    """One untraced `spintrack run|sweep` through cli.main, checked.

    Returns (wall seconds, CN steps done, per-point solver.run seconds in
    CLI order).  The previous iteration's result file is removed first, so a
    run that writes none fails here instead of being checked on stale data.
    """
    (out_dir / ("summary.json" if workload.command == "run" else "sweep.csv")).unlink(missing_ok=True)
    start = perf_counter()
    code = cli.main([workload.command, "-c", str(config_path)])
    wall = perf_counter() - start
    exit_problem = [] if code == cli.EXIT_OK else [f"exit code {code}"]
    if workload.command == "run":
        summary = json.loads((out_dir / "summary.json").read_text(encoding="ascii"))
        (n, _), = workload.points
        ops.record(label, exit_problem + check_summary(summary, n, workload.check_reference))
        loop = [summary["results"]["wall_seconds"]]
        steps = summary["resolved"]["num_steps"]
    else:
        with open(out_dir / "sweep.csv", encoding="ascii", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(workload.points):
            exit_problem.append(f"{len(rows)} sweep rows, expected {len(workload.points)}")
        ops.record(label, exit_problem)
        for row in rows:
            ops.record(f"{label} N={row['N']} rho={row['rho']}", check_sweep_row(row))
        loop = [float(row["wall_seconds"]) for row in rows]
        steps = len(rows) * workload.num_steps
    return wall, steps, loop


def setup_seconds(workload, out_dir):
    """Config-to-ready-to-step time summed over the workload's points.

    Calls, per point and in the order a run makes them: resolve_run_config,
    assemble_hamiltonian, assemble_cn, make_linear_solver, initial_state.
    """
    total = 0.0
    for n, rho in workload.points:
        cfg = point_config(workload, n, rho, out_dir)
        start = perf_counter()
        setup = cli.resolve_run_config(cfg)
        h = assemble_hamiltonian(
            setup.params, setup.grid, setup.layout, boundary_mode=setup.boundary_mode
        )
        system = assemble_cn(h, setup.tgrid.dt, setup.params.hbar)
        solver.make_linear_solver(system, setup.solve_config)
        model.initial_state(setup.params, setup.grid, h.num_channels)
        total += perf_counter() - start
    return total
