"""Command-line interface: single runs, parameter sweeps, validation, info.

Subcommands
-----------
run       one simulation from a JSON config file; writes timeseries.csv,
          channels_final.csv and summary.json into the output directory
sweep     a grid of (N, rho) points sharing one epsilon-scaled preset;
          writes sweep.csv plus per-point artifacts in subdirectories
validate  production vs dense oracle over a coupling matrix, plus kappa controls
info      resolve a config without running; prints its parameters as JSON

Exit codes: 0 success, 1 validation mismatch, 2 config error,
3 solver failure, 4 I/O error.
"""

import argparse
import functools
import inspect
import json
import math
import os
import resource
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import model, observables, oracle, solver
from .assembly import BOUNDARY_MODES, assemble_cn, assemble_hamiltonian
from .model import ConfigurationError
from .solver import SolveConfig, SolverError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

# an expected failure -> (exit code, message prefix); `main` prints and
# exits with it, and a failed sweep point records its code
_FAILURES = {
    ConfigurationError: (EXIT_CONFIG, "config error"),
    # a run that outgrows memory despite the footprint check is refused like one that fails it
    MemoryError: (EXIT_CONFIG, "config error: out of memory"),
    SolverError: (EXIT_SOLVER, "solver failure"),
    OSError: (EXIT_IO, "I/O error"),
}


@functools.cache
def _parameters(builder):
    """The parameters of `builder`, inspected once: `inspect.signature` is slow."""
    return tuple(inspect.signature(builder).parameters.values())


def _keys(*builders):
    """The config keys of a section: the parameter names of its builders."""
    return {p.name for fn in builders for p in _parameters(fn)}


_TOP_KEYS = {"preset", "explicit", "solver", "out_dir", "arrival_drop"}
_PRESET_KEYS = {"boundary_mode", *_keys(model.preset_from_epsilon)}
_EXPLICIT_KEYS = {
    "num_points", "boundary_mode", *_keys(model.PhysicalParams, model.Geometry, model.TimeGrid)
}
_SOLVER_KEYS = {"method", *_keys(SolveConfig)}  # "method" is obsolete, kept for saved configs
# the run keys a sweep passes on to each of its points unchanged
_FORWARDED_KEYS = _TOP_KEYS - {"preset", "explicit", "out_dir"}
_SWEEP_KEYS = _PRESET_KEYS | _FORWARDED_KEYS | {"out_dir", "parallelism"}


# A preset run's peak RSS above the interpreter, reached while `run` steps,
# is 2.7-6.4 state vectors at N = 6 and 8 on either stepping path (README,
# "Performance notes"), so a run must have room for this many.
WORKING_SET_VECTORS = 8

# summary.json's boundary_mass is the final probability within this many
# packet widths sigma of either end of the domain.  Above BOUNDARY_MASS_LIMIT
# the run warns: the packet has reached a boundary, where the ghost closure
# does not conserve the norm and the results stop describing an open line.
# The N = 8 preset reads 4.3e-9.
BOUNDARY_SIGMAS = 4.0
BOUNDARY_MASS_LIMIT = 1e-6


def _cpu_count():
    """The CPUs this process may run on, not every CPU of the host."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _fmt(x):
    """12 significant digits, the precision the reference tables are printed at."""
    return f"{x:.11e}"


@dataclass
class RunSetup:
    """A fully resolved single-run configuration."""

    params: model.PhysicalParams
    geom: model.Geometry
    grid: model.Grid
    tgrid: model.TimeGrid
    layout: model.DetectorLayout
    solve_config: SolveConfig
    boundary_mode: str
    out_dir: str
    arrival_drop: float
    regime_notes: list  # model.validate_regime's, derived once: info, the runner and simulate read these


@dataclass
class SimulationResult:
    setup: RunSetup
    record: solver.RunRecord
    final_channels: observables.ChannelProbabilities
    final_classes: observables.ClassProbabilities
    arrival: float | None
    regime_notes: list
    wall_seconds: float


def _convert(kind, value):
    """`value` converted by `kind`, which must take it as it is typed in JSON.

    A float takes a finite number, an int an integral one that fits in 64
    bits, a str a string; no number takes a boolean.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float and not (number and math.isfinite(value)):
        raise ValueError(f"must be a finite number, got {value!r}")
    if kind is int and not (number and (isinstance(value, int) or value.is_integer())):
        raise ValueError(f"must be an integer, got {value!r}")
    if kind is int and not -(2**63) <= value < 2**63:  # numpy's int64, which sizes its arrays
        raise ValueError(f"must fit in a 64-bit integer, got {value!r}")
    if kind is str and not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return kind(value)


def _section(name, cfg, allowed):
    """read(key, kind, default) of config section `name`: cfg[key] converted by `kind`.

    `cfg` must be an object whose keys are all in `allowed`.  A missing or
    null key takes `default` (an error when none is given); a value `kind`
    cannot convert is a ConfigurationError naming the key.
    """
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"'{name}' must be an object")
    for key in cfg:
        if key not in allowed:
            raise ConfigurationError(f"unknown key {key!r} in {name} config")

    def read(key, kind, default=inspect.Parameter.empty):
        if cfg.get(key) is None:
            if default is inspect.Parameter.empty:
                raise ConfigurationError(f"{name} config missing key {key!r}")
            return default
        try:
            return _convert(kind, cfg[key])
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigurationError(f"{name} config key {key!r}: {err}") from err

    return read


def _build(builder, read):
    """builder(**values), each parameter read under its own name as config key.

    The parameter's annotation converts its value, and its default, if any,
    makes the key optional.
    """
    return builder(**{p.name: read(p.name, p.annotation, p.default) for p in _parameters(builder)})


def _sorted_list(kind):
    """Converter for a non-empty JSON list whose entries `kind` converts."""

    def convert(values):
        if not isinstance(values, list) or not values:
            raise ValueError("must be a non-empty list")
        return sorted(_convert(kind, v) for v in values)

    return convert


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigurationError(f"cannot read config {path}: {err}") from err
    except (json.JSONDecodeError, UnicodeDecodeError) as err:  # JSON text is UTF-8
        raise ConfigurationError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be a JSON object")
    return cfg


def _solve_config_from(cfg):
    read = _section("solver", {} if cfg.get("solver") is None else cfg["solver"], _SOLVER_KEYS)
    if read("method", str, "direct") not in ("direct", "iterative"):  # both name the one solve
        raise ConfigurationError("solver config key 'method': must be 'direct' or 'iterative'")
    return _build(SolveConfig, read)


def resolve_run_config(cfg):
    """Validate a run config dict and build every object the run needs."""
    top = _section("run", cfg, _TOP_KEYS)
    if ("preset" in cfg) == ("explicit" in cfg):
        raise ConfigurationError("exactly one of 'preset' or 'explicit' is required")

    if "preset" in cfg:
        read = _section("preset", cfg["preset"], _PRESET_KEYS)
        params, geom, grid, tgrid = _build(model.preset_from_epsilon, read)
    else:
        read = _section("explicit", cfg["explicit"], _EXPLICIT_KEYS)
        params = _build(model.PhysicalParams, read)
        geom = _build(model.Geometry, read)
        grid = model.build_grid(geom.half_length, read("num_points", int))
        tgrid = _build(model.TimeGrid, read)
    boundary_mode = read("boundary_mode", str, "ghost")
    if boundary_mode not in BOUNDARY_MODES:
        raise ConfigurationError(f"boundary_mode must be one of {BOUNDARY_MODES}, got {boundary_mode!r}")
    layout = model.place_detectors(geom, grid)

    drop = top("arrival_drop", float, 0.01)
    if not 0.0 < drop < 1.0:
        raise ConfigurationError("arrival_drop must be in (0, 1)")

    return RunSetup(
        params=params,
        geom=geom,
        grid=grid,
        tgrid=tgrid,
        layout=layout,
        solve_config=_solve_config_from(cfg),
        boundary_mode=boundary_mode,
        out_dir=top("out_dir", str, "spintrack_out"),
        arrival_drop=drop,
        regime_notes=model.validate_regime(params, geom),
    )


def _state_vector_bytes(setup):
    """Bytes of one state vector: 2^N channels of Nx complex128 values."""
    return (1 << setup.geom.num_spins) * setup.grid.num_points * 16


def _working_set_bytes(setup):
    """The memory a run must have room for: WORKING_SET_VECTORS state vectors."""
    return WORKING_SET_VECTORS * _state_vector_bytes(setup)


def _memory_bytes():
    """The memory this process can get: physical memory, or RLIMIT_AS when that is lower."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    return physical if limit == resource.RLIM_INFINITY else min(physical, limit)


def _peak_rss_mb():
    """This process image's peak resident set size in MB (1e6 bytes).

    VmHWM where /proc has it: on Linux `ru_maxrss` also keeps the peak of
    the image that exec replaced, such as the one a spawned process was forked from.
    """
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) * 1024 / 1e6 for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak / 1e6 if sys.platform == "darwin" else peak * 1024 / 1e6  # bytes there, KiB elsewhere


def resolved_dict(setup):
    """JSON-safe view of every resolved parameter; shared by `info` and summaries."""
    params, geom, grid, tgrid = setup.params, setup.geom, setup.grid, setup.tgrid
    m = 1 << geom.num_spins
    return {
        "schema_version": SCHEMA_VERSION,
        "num_channels": m,
        **asdict(params),
        "boundary_mode": setup.boundary_mode,
        **asdict(geom),
        "num_points": grid.num_points,
        "dx": grid.dx,
        **asdict(tgrid),
        "dt": tgrid.dt,
        "detector_nominal": [float(y) for y in setup.layout.nominal_positions],
        "detector_positions": [float(y) for y in setup.layout.positions],
        "detector_indices": [int(i) for i in setup.layout.grid_indices],
        "sides": list(setup.layout.sides.signs),
        # the packets travel at |p0| either way; at p0 = 0 they never arrive
        "predicted_arrival": geom.cluster_distance / abs(params.p0) if params.p0 else None,
        "state_vector_bytes": _state_vector_bytes(setup),
        "working_set_bytes": _working_set_bytes(setup),
        "solver": asdict(setup.solve_config),
        "arrival_drop": setup.arrival_drop,
    }


def _check_footprint(setup):
    """Raise ConfigurationError unless the run's working set (`_working_set_bytes`) fits in memory."""
    needed = _working_set_bytes(setup)
    available = _memory_bytes()
    if needed > available:
        raise ConfigurationError(
            f"the run needs about {needed} bytes ({WORKING_SET_VECTORS} state vectors), "
            f"but this process can get {available} bytes"
        )


def simulate(setup, threads=2):
    """Assemble, integrate, and aggregate one configured run.

    `wall_seconds` times `solver.run`, on at most `threads` threads (a
    sweep passes fewer when its concurrent points fill the CPUs); the
    record's `profile` gains the assembly's seconds before it.  The
    result's `regime_notes` are the setup's followed by the run's own
    (`RunRecord.notes`), so they reach summary.json's `warnings`.
    """
    start = time.perf_counter()
    h = assemble_hamiltonian(
        setup.params, setup.grid, setup.layout, boundary_mode=setup.boundary_mode
    )
    system = assemble_cn(h, setup.tgrid.dt, setup.params.hbar)
    assembled = time.perf_counter()
    # psi0 is passed by position and not kept: CPython 3.11 then lets `run`
    # free it once it has gathered its stored rows, where a keyword argument
    # stays alive until the call returns
    record = solver.run(
        system,
        model.initial_state(setup.params, setup.grid, h.num_channels),
        setup.tgrid.num_steps,
        setup.solve_config,
        setup.layout.sides,
        threads,
    )
    wall = time.perf_counter() - assembled
    record.profile = {"assembly": assembled - start, **record.profile}
    final_channels = observables.channel_probs(record.final_state, t=setup.tgrid.t_final)
    final_classes = observables.class_probs(final_channels, setup.layout.sides)
    arrival = observables.arrival_time(record, setup.arrival_drop)
    return SimulationResult(
        setup=setup,
        record=record,
        final_channels=final_channels,
        final_classes=final_classes,
        arrival=arrival,
        regime_notes=setup.regime_notes + record.notes,
        wall_seconds=wall,
    )


def _mask_string(mask, num_spins):
    """Bit j of the mask at character j, so the string reads left detector first."""
    return "".join("1" if (mask >> j) & 1 else "0" for j in range(num_spins))


def _boundary_notes(mass):
    """The warning of a boundary mass above BOUNDARY_MASS_LIMIT: a list of no note or one."""
    if mass <= BOUNDARY_MASS_LIMIT:
        return []
    return [
        f"boundary mass {mass:.3e} > {BOUNDARY_MASS_LIMIT:g}: the packet reached within "
        f"{BOUNDARY_SIGMAS:g} sigma of the domain's ends"
    ]


# the artifact columns of the five track classes, in observables.CLASS_FIELDS
# order: timeseries.csv's class columns and summary.json's class results
_CLASS_COLUMNS = ("UC", "OS", "LRC_left", "LRC_right", "MT")


def _class_columns(classes):
    """Artifact column -> class value of `classes`, a RunRecord or a ClassProbabilities."""
    return {column: getattr(classes, name) for column, name in zip(_CLASS_COLUMNS, observables.CLASS_FIELDS)}


def write_run_artifacts(result, out_dir):
    """Write timeseries.csv, channels_final.csv and summary.json.

    summary.json comes last, written under a temporary name and then renamed,
    so a directory that holds it holds a complete point.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rec, setup = result.record, result.setup

    with open(out / "timeseries.csv", "w", encoding="ascii") as fh:
        columns = {"t": rec.times, "norm2": rec.norm2, "energy": rec.energy, **_class_columns(rec)}
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(_fmt(v) for v in row) + "\n")

    n = setup.geom.num_spins
    with open(out / "channels_final.csv", "w", encoding="ascii") as fh:
        fh.write("mask,probability\n")
        for mask, p in enumerate(result.final_channels.probs):
            fh.write(f"{_mask_string(mask, n)},{_fmt(p)}\n")

    cls = result.final_classes
    iters = rec.capacitance_iterations
    boundary_mass = observables.boundary_mass(rec.final_state, setup.grid, BOUNDARY_SIGMAS * setup.params.sigma)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "resolved": resolved_dict(setup),
        "results": {
            **_class_columns(cls),
            "total": cls.total,
            "norm2_final": float(rec.norm2[-1]),
            "norm2_max_drift": float(np.max(np.abs(rec.norm2 - 1.0))),
            "energy_initial": float(rec.energy[0]),
            "energy_max_rel_drift": float(
                np.max(np.abs(rec.energy - rec.energy[0])) / abs(rec.energy[0])
            )
            if rec.energy[0] != 0.0
            else 0.0,
            "max_step_residual": rec.max_step_residual,
            "capacitance_iterations_max": int(iters.max()) if iters is not None else None,
            "capacitance_iterations_mean": float(iters.mean()) if iters is not None else None,
            "stored_channels": rec.stored_channels,
            "refined_steps": rec.refined_steps,
            "arrival_time": result.arrival,
            "boundary_mass": boundary_mass,
            "wall_seconds": result.wall_seconds,
            "threads": rec.threads,
            "profile": rec.profile,
            "peak_rss_mb": _peak_rss_mb(),
        },
        "warnings": result.regime_notes + _boundary_notes(boundary_mass),
    }
    with open(out / "summary.json.partial", "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    os.replace(fh.name, out / "summary.json")
    return summary


def _run_point(cfg, threads, warn):
    """Run config `cfg` on at most `threads` threads; return (setup, summary results).

    `warn` takes each note in summary.json's `warnings` order: the regime
    notes before the run, the run's own and the boundary-mass note after it,
    or the run's notes before a failed step's SolverError propagates.
    """
    setup = resolve_run_config(cfg)
    for note in setup.regime_notes:
        warn(note)
    _check_footprint(setup)  # a refused run leaves no output directory behind
    Path(setup.out_dir).mkdir(parents=True, exist_ok=True)  # unusable: fail before the run
    try:
        result = simulate(setup, threads)
    except SolverError as err:
        for note in err.notes:
            warn(note)
        raise
    summary = write_run_artifacts(result, setup.out_dir)
    for note in summary["warnings"][len(setup.regime_notes):]:
        warn(note)
    return setup, summary["results"]


def _print_warning(note):
    print(f"warning: {note}", file=sys.stderr)


def cmd_run(args):
    setup, res = _run_point(load_config(args.config), 2, _print_warning)
    print(
        f"N={setup.geom.num_spins} rho={setup.params.rho:g}: "
        f"UC={res['UC']:.6f} OS={res['OS']:.6f} "
        f"LRC_left={res['LRC_left']:.6f} LRC_right={res['LRC_right']:.6f} "
        f"MT={res['MT']:.3e} ({res['wall_seconds']:.1f}s) -> {setup.out_dir}"
    )
    return EXIT_OK


def _sweep_point(cfg, threads):
    """Run one sweep point's run config on at most `threads` threads.

    The row carries the point's warnings, also when it fails.  Must stay a
    top-level function for process pools.
    """
    row = {"N": cfg["preset"]["num_spins"], "rho": cfg["preset"]["rho"], "warnings": []}
    try:
        _, res = _run_point(cfg, threads, row["warnings"].append)
        two_lrc = res["LRC_left"] + res["LRC_right"]
        row.update(
            LRC_one_side=res["LRC_left"], two_LRC=two_lrc, OS=res["OS"], UC=res["UC"], MT=res["MT"],
            row_sum=two_lrc + res["OS"] + res["UC"] + res["MT"],
            arrival_time=res["arrival_time"], wall_seconds=res["wall_seconds"],
        )
    except Exception as err:  # per-point isolation: a bad point must not kill the sweep
        row.update(error=str(err), exit_code=_failure(err)[0])
    return row


def _failure(err):
    """(exit code, message prefix) of `err` from _FAILURES; (1, None) for an unexpected one."""
    for kind, failure in _FAILURES.items():
        if isinstance(err, kind):
            return failure
    return EXIT_MISMATCH, None


# A forked sweep worker is a copy of the already-imported `sweep` process and
# starts its first point at once; a spawned one must import numpy, scipy and
# the package first.  Outside Linux fork is not a safe default, so workers spawn.
_POOL_CONTEXT = get_context("fork" if sys.platform == "linux" else "spawn")


def _end_on_interrupt():
    """Pool initializer: a Ctrl-C ends a sweep worker at once, before it takes another point.

    A worker that inherited SIGINT ignored (a background job of a
    non-interactive shell) keeps ignoring it.
    """
    if signal.getsignal(signal.SIGINT) is not signal.SIG_IGN:
        signal.signal(signal.SIGINT, signal.SIG_DFL)


def _run_points(points, workers):
    """The rows of `_sweep_point` over `points`, in their order.

    Points start largest first (descending N; within one N, in the order of
    `points`), so that no worker is left alone with a large point at the end.
    With `workers` > 1 this process runs no point: it maps the points over a
    pool of `workers` processes and waits for their rows.  On Linux the pool
    forks all its workers at the first submit, before it starts its manager
    thread, and this process must then have no other thread: a forked copy of
    another thread's lock would stay held.  A failure that a point raises
    (Ctrl-C, a broken pool) cancels the points the pool has not yet queued
    for its workers and propagates once the running ones end.  A Ctrl-C at
    the terminal also reaches the workers and ends them (`_end_on_interrupt`),
    so no point starts after it.  Each point may step on its share of this
    process's CPUs, at least 1 and at most 2 threads.
    """
    order = sorted(range(len(points)), key=lambda k: -points[k]["preset"]["num_spins"])
    args = ([points[k] for k in order], [max(1, min(2, _cpu_count() // workers))] * len(order))
    if workers == 1:
        done = map(_sweep_point, *args)
    else:
        # the rows come in start order, so that a failure of the first points is seen first
        with ProcessPoolExecutor(workers, mp_context=_POOL_CONTEXT, initializer=_end_on_interrupt) as pool:
            done = list(pool.map(_sweep_point, *args))
    rows = dict(zip(order, done))
    return [rows[k] for k in range(len(points))]


_SWEEP_COLUMNS = (
    "N", "rho", "LRC_one_side", "two_LRC", "OS", "UC", "MT",
    "row_sum", "arrival_time", "wall_seconds",
)


def cmd_sweep(args):
    cfg = load_config(args.config)
    read = _section("sweep", cfg, _SWEEP_KEYS)
    spins = read("num_spins", _sorted_list(int))
    rhos = read("rho", _sorted_list(float))
    if any(n % 2 or n < 2 for n in spins):
        raise ConfigurationError("every entry of 'num_spins' must be even and >= 2")
    out_root = Path(read("out_dir", str, "spintrack_sweep"))
    parallelism = read("parallelism", int, 0)
    if parallelism < 0:
        raise ConfigurationError(f"parallelism must be >= 0 (0: every available CPU), got {parallelism}")
    preset = {key: cfg[key] for key in _PRESET_KEYS & cfg.keys()}
    shared = {key: cfg[key] for key in _FORWARDED_KEYS & cfg.keys()}
    points = [
        {
            "preset": {**preset, "num_spins": n, "rho": r},
            **shared,
            "out_dir": str(out_root / f"N{n}_rho{r:g}"),
        }
        for n in spins
        for r in rhos
    ]
    out_dirs = [p["out_dir"] for p in points]
    for k, out_dir in enumerate(out_dirs):
        if out_dir in out_dirs[:k]:
            raise ConfigurationError(
                f"two sweep points share the output directory {out_dir}; the entries of "
                "'num_spins' must be distinct, and those of 'rho' distinct to 6 digits"
            )
    resolve_run_config(points[0])  # fail early on a bad shared key
    out_root.mkdir(parents=True, exist_ok=True)  # and on an unusable output directory

    workers = min(parallelism or _cpu_count(), len(points))
    rows = _run_points(points, workers)

    with open(out_root / "sweep.csv", "w", encoding="ascii") as fh:
        fh.write(",".join(_SWEEP_COLUMNS) + "\n")
        for row in rows:
            cells = [str(row["N"]), f"{row['rho']:.6g}"]
            for col in _SWEEP_COLUMNS[2:]:
                v = row.get(col)
                cells.append("nan" if v is None else _fmt(v))
            fh.write(",".join(cells) + "\n")

    failed = [row for row in rows if "error" in row]
    for row in rows:
        for note in row.get("warnings", ()):
            print(f"N={row['N']} rho={row['rho']:g}: warning: {note}", file=sys.stderr)
        if "error" in row:
            print(f"N={row['N']} rho={row['rho']:g}: FAILED: {row['error']}", file=sys.stderr)
        else:
            print(
                f"N={row['N']} rho={row['rho']:g}: UC={row['UC']:.6f} "
                f"2LRC={row['two_LRC']:.6f} OS={row['OS']:.6f} ({row['wall_seconds']:.1f}s)"
            )
    print(f"sweep: {len(rows) - len(failed)}/{len(rows)} points ok -> {out_root / 'sweep.csv'}")
    return failed[0]["exit_code"] if failed else EXIT_OK


def cmd_info(args):
    setup = resolve_run_config(load_config(args.config))
    for note in setup.regime_notes:
        _print_warning(note)
    json.dump(resolved_dict(setup), sys.stdout, indent=2)
    print()
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate: the production path against the dense oracle


def _validate_checks():
    """Yield (name, max state diff, max probability diff, must agree) for each check.

    A check compares the production and dense evolutions of one case of the
    matrix, which must agree.  For rho > 0 a control pairs the kappa=2
    production state with the kappa=1 dense state, which must not.
    """
    # Started at the origin, the N=2 packet would not reach its detectors
    # (x = +-0.56) in 50 steps, so it starts on the right one.
    for n, nx, steps, x0 in ((2, 100, 50, 0.5), (3, 128, 40, 0.0)):
        grid, layout = oracle.small_instance(n, nx)
        tgrid = model.TimeGrid(t_final=0.065 * steps / 350.0, num_steps=steps)
        for rho in (0.0, 10.0, 100.0):
            for beta in (0.0, 1e-4):
                final = {}  # kappa -> (production, dense) final states
                for kappa in (1, 2):
                    params = oracle.scaled_params(rho, beta, kappa, x0=x0)
                    final[kappa] = oracle.final_states(params, grid, layout, tgrid)
                    name = f"oracle N={n} rho={rho:g} beta={beta:g} kappa={kappa}"
                    yield name, *oracle.differences(*final[kappa]), True
                if rho:  # at rho = 0, kappa has nothing to scale
                    name = f"control N={n} rho={rho:g} beta={beta:g} kappa=2 vs dense kappa=1"
                    yield name, *oracle.differences(final[2][0], final[1][1]), False


def cmd_validate(args):
    results = {True: [], False: []}  # must agree -> (passed, state diff, name, detail) of each
    for name, max_abs, prob_diff, must_agree in _validate_checks():
        passed = (max_abs <= 1e-10 and prob_diff <= 1e-12) == must_agree
        detail = f"state diff {max_abs:.2e}, prob diff {prob_diff:.2e}"
        print(f"[{' ok ' if passed else 'FAIL'}] {name}: {detail}")
        results[must_agree].append((passed, max_abs, name, detail))
    checks, controls = (f"{sum(r[0] for r in results[k])}/{len(results[k])}" for k in (True, False))
    print(f"validate: {checks} checks passed, {controls} controls caught")
    failed = [r for r in results[True] if not r[0]] or [r for r in results[False] if not r[0]]
    if failed:  # the failed check with the largest state diff, else an uncaught control
        _, _, name, detail = max(failed)
        print(f"worst offender: {name} ({detail})", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spintrack",
        description="1D particle + spin-detector array simulator (Crank-Nicolson, multi-channel point interactions)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation from a JSON config")
    p_run.add_argument("-c", "--config", required=True, help="path to the JSON run config")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a (N, rho) grid from a JSON sweep config")
    p_sweep.add_argument("-c", "--config", required=True, help="path to the JSON sweep config")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="check the production path against the dense oracle")
    p_val.set_defaults(func=cmd_validate)

    p_info = sub.add_parser("info", help="print the resolved parameters as JSON without running")
    p_info.add_argument("-c", "--config", required=True, help="path to the JSON run config")
    p_info.set_defaults(func=cmd_info)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_FAILURES) as err:
        code, prefix = _failure(err)
        print(f"{prefix}: {err}", file=sys.stderr)
        return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
