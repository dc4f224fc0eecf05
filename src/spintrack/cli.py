"""Command-line interface: single runs, parameter sweeps, validation, info.

Subcommands
-----------
run       one simulation from a JSON config file; writes timeseries.csv,
          channels_final.csv and summary.json into the output directory
sweep     a grid of (N, rho) points sharing one epsilon-scaled preset;
          writes sweep.csv plus per-point artifacts in subdirectories
validate  the built-in oracle / structural check suite
info      resolve and print the parameters of a config without running

Exit codes: 0 success, 1 validation mismatch, 2 config error,
3 solver failure, 4 I/O error.
"""

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import model, observables, oracle, solver
from .assembly import assemble_cn, assemble_hamiltonian
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
    SolverError: (EXIT_SOLVER, "solver failure"),
    OSError: (EXIT_IO, "I/O error"),
}

_TOP_KEYS = {"preset", "explicit", "solver", "out_dir", "arrival_drop"}
# dataclass field (and model.preset_from_epsilon argument) -> config key,
# where the two differ
_CONFIG_NAMES = {"sigma_w": "sigma", "coupling_factor": "kappa"}
_FIELD_NAMES = {key: name for name, key in _CONFIG_NAMES.items()}
# optional preset keys -> value type; a key left out takes the default of
# model.preset_from_epsilon
_PRESET_OPTIONS = {"rho": float, "kappa": int, "num_points": int, "num_steps": int, "t_final": float}
_PRESET_KEYS = {"epsilon", "num_spins", "boundary_mode", *_PRESET_OPTIONS}


def _config_key(field):
    return _CONFIG_NAMES.get(field.name, field.name)


_EXPLICIT_KEYS = {
    "num_points", "boundary_mode",
    *(
        _config_key(f)
        for cls in (model.PhysicalParams, model.Geometry, model.TimeGrid)
        for f in fields(cls)
    ),
}
_SOLVER_KEYS = {f.name for f in fields(SolveConfig)}
_SWEEP_KEYS = _PRESET_KEYS | {"solver", "out_dir", "parallelism", "arrival_drop"}


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


@dataclass
class SimulationResult:
    setup: RunSetup
    record: solver.RunRecord
    final_channels: observables.ChannelProbabilities
    final_classes: observables.ClassProbabilities
    arrival: float | None
    regime_notes: list
    wall_seconds: float


def _reject_unknown(section, keys, allowed):
    for key in keys:
        if key not in allowed:
            raise ConfigurationError(f"unknown key {key!r} in {section} config")


def _reader(section, cfg):
    """read(key, kind, default): cfg[key] converted by `kind`.

    A missing key takes `default`, or is an error when no default is given;
    a value `kind` cannot convert is a ConfigurationError naming the key.
    """

    def read(key, kind, default=MISSING):
        if key not in cfg:
            if default is MISSING:
                raise ConfigurationError(f"{section} config missing key {key!r}")
            return default
        try:
            return kind(cfg[key])
        except (TypeError, ValueError) as err:
            raise ConfigurationError(f"{section} config key {key!r}: {err}") from err

    return read


def _sorted_list(kind):
    """Converter for a non-empty JSON list whose entries `kind` converts."""

    def convert(values):
        if not isinstance(values, list) or not values:
            raise ValueError("must be a non-empty list")
        return sorted(kind(v) for v in values)

    return convert


def _from_fields(cls, read):
    """Dataclass `cls` from the config keys of its fields.

    Each field's type converts its value; a field with a default makes its
    key optional.
    """
    return cls(**{f.name: read(_config_key(f), f.type, f.default) for f in fields(cls)})


def _config_view(obj):
    """The dataclass's field values under their config keys, in field order."""
    return {_config_key(f): getattr(obj, f.name) for f in fields(obj)}


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigurationError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be a JSON object")
    return cfg


def _solve_config_from(cfg):
    section = cfg.get("solver", {})
    if not isinstance(section, dict):
        raise ConfigurationError("'solver' must be an object")
    _reject_unknown("solver", section, _SOLVER_KEYS)
    try:
        return _from_fields(SolveConfig, _reader("solver", section))
    except ValueError as err:
        raise ConfigurationError(f"solver config: {err}") from err


def resolve_run_config(cfg):
    """Validate a run config dict and build every object the run needs."""
    _reject_unknown("run", cfg, _TOP_KEYS)
    if ("preset" in cfg) == ("explicit" in cfg):
        raise ConfigurationError("exactly one of 'preset' or 'explicit' is required")

    section = "preset" if "preset" in cfg else "explicit"
    values = cfg[section]
    if not isinstance(values, dict):
        raise ConfigurationError(f"'{section}' must be an object")
    read = _reader(section, values)
    if section == "preset":
        _reject_unknown("preset", values, _PRESET_KEYS)
        options = {
            _FIELD_NAMES.get(key, key): read(key, kind)
            for key, kind in _PRESET_OPTIONS.items()
            if values.get(key) is not None
        }
        params, geom, grid, tgrid = model.preset_from_epsilon(
            eps=read("epsilon", float), num_spins=read("num_spins", int), **options
        )
    else:
        _reject_unknown("explicit", values, _EXPLICIT_KEYS)
        params = _from_fields(model.PhysicalParams, read)
        geom = _from_fields(model.Geometry, read)
        grid = model.build_grid(geom.half_length, read("num_points", int))
        tgrid = _from_fields(model.TimeGrid, read)
    boundary_mode = values.get("boundary_mode", "ghost")

    if boundary_mode not in ("ghost", "symmetrized"):
        raise ConfigurationError(f"boundary_mode must be 'ghost' or 'symmetrized', got {boundary_mode!r}")
    layout = model.place_detectors(geom, grid)

    top = _reader("run", cfg)
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
    )


def resolved_dict(setup):
    """JSON-safe view of every resolved parameter; shared by `info` and summaries."""
    params, geom, grid, tgrid = setup.params, setup.geom, setup.grid, setup.tgrid
    m = 1 << geom.num_spins
    return {
        "schema_version": SCHEMA_VERSION,
        "num_channels": m,
        **_config_view(params),
        "boundary_mode": setup.boundary_mode,
        **_config_view(geom),
        "num_points": grid.num_points,
        "dx": grid.dx,
        **_config_view(tgrid),
        "dt": tgrid.dt,
        "detector_nominal": [float(y) for y in setup.layout.nominal_positions],
        "detector_positions": [float(y) for y in setup.layout.positions],
        "detector_indices": [int(i) for i in setup.layout.grid_indices],
        "sides": list(setup.layout.sides.signs),
        "predicted_arrival": geom.cluster_distance / params.p0,
        "state_vector_bytes": m * grid.num_points * 16,
        "solver": _config_view(setup.solve_config),
        "arrival_drop": setup.arrival_drop,
    }


def simulate(setup):
    """Assemble, integrate, and aggregate one configured run."""
    regime_notes = model.validate_regime(setup.params, setup.geom)
    h = assemble_hamiltonian(
        setup.params, setup.grid, setup.layout, boundary_mode=setup.boundary_mode
    )
    system = assemble_cn(h, setup.tgrid.dt, setup.params.hbar)
    psi0 = model.initial_state(setup.params, setup.grid, h.num_channels)
    start = time.perf_counter()
    record = solver.run(
        system,
        psi0,
        setup.tgrid.num_steps,
        config=setup.solve_config,
        sides=setup.layout.sides,
    )
    wall = time.perf_counter() - start
    final_channels = observables.channel_probs(record.final_state, t=setup.tgrid.t_final)
    final_classes = observables.class_probs(final_channels, setup.layout.sides)
    arrival = observables.arrival_time(record, setup.arrival_drop)
    return SimulationResult(
        setup=setup,
        record=record,
        final_channels=final_channels,
        final_classes=final_classes,
        arrival=arrival,
        regime_notes=regime_notes,
        wall_seconds=wall,
    )


def _mask_string(mask, num_spins):
    """Bit j of the mask at character j, so the string reads left detector first."""
    return "".join("1" if (mask >> j) & 1 else "0" for j in range(num_spins))


def write_run_artifacts(result, out_dir):
    """Write timeseries.csv, channels_final.csv and summary.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rec = result.record

    with open(out / "timeseries.csv", "w", encoding="ascii") as fh:
        fh.write("t,norm2,energy,UC,OS,LRC_left,LRC_right,MT\n")
        for k in range(len(rec.times)):
            fh.write(
                ",".join(
                    _fmt(v)
                    for v in (
                        rec.times[k], rec.norm2[k], rec.energy[k],
                        rec.unchanged[k], rec.one_spin[k],
                        rec.left_track[k], rec.right_track[k], rec.multi_track[k],
                    )
                )
                + "\n"
            )

    n = result.setup.geom.num_spins
    with open(out / "channels_final.csv", "w", encoding="ascii") as fh:
        fh.write("mask,probability\n")
        for mask, p in enumerate(result.final_channels.probs):
            fh.write(f"{_mask_string(mask, n)},{_fmt(p)}\n")

    cls = result.final_classes
    summary = {
        "schema_version": SCHEMA_VERSION,
        "resolved": resolved_dict(result.setup),
        "results": {
            "UC": cls.unchanged,
            "OS": cls.one_spin,
            "LRC_left": cls.left_track,
            "LRC_right": cls.right_track,
            "MT": cls.multi_track,
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
            "arrival_time": result.arrival,
            "wall_seconds": result.wall_seconds,
        },
        "warnings": result.regime_notes,
    }
    with open(out / "summary.json", "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary


def _apply_overrides(cfg, args):
    """Fold command-line flags over the config dict (flags win)."""
    section = cfg.get("preset") if "preset" in cfg else cfg.get("explicit")
    if section is None or not isinstance(section, dict):
        return  # resolve_run_config will report the structural problem
    if getattr(args, "epsilon", None) is not None:
        if "preset" not in cfg:
            raise ConfigurationError("--epsilon only applies to preset configs")
        section["epsilon"] = args.epsilon
    for key in ("rho", "num_spins", "kappa", "boundary_mode"):
        value = getattr(args, key, None)
        if value is not None:
            section[key] = value
    if getattr(args, "solver", None) is not None:
        cfg.setdefault("solver", {})["method"] = args.solver
    if getattr(args, "out_dir", None) is not None:
        cfg["out_dir"] = args.out_dir


def _setup_from_args(args):
    """The run config file with the command-line flags folded in, resolved."""
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    return resolve_run_config(cfg)


def cmd_run(args):
    setup = _setup_from_args(args)
    for note in model.validate_regime(setup.params, setup.geom):
        print(f"warning: {note}", file=sys.stderr)
    result = simulate(setup)
    summary = write_run_artifacts(result, setup.out_dir)
    res = summary["results"]
    print(
        f"N={setup.geom.num_spins} rho={setup.params.rho:g}: "
        f"UC={res['UC']:.6f} OS={res['OS']:.6f} "
        f"LRC_left={res['LRC_left']:.6f} LRC_right={res['LRC_right']:.6f} "
        f"MT={res['MT']:.3e} ({result.wall_seconds:.1f}s) -> {setup.out_dir}"
    )
    return EXIT_OK


def _sweep_point(cfg):
    """Run one sweep point's run config; must stay a top-level function for process pools."""
    row = {"N": cfg["preset"]["num_spins"], "rho": cfg["preset"]["rho"]}
    try:
        setup = resolve_run_config(cfg)
        result = simulate(setup)
        write_run_artifacts(result, setup.out_dir)
        cls = result.final_classes
        two_lrc = cls.left_track + cls.right_track
        row.update(
            LRC_one_side=cls.left_track,
            two_LRC=two_lrc,
            OS=cls.one_spin,
            UC=cls.unchanged,
            MT=cls.multi_track,
            row_sum=two_lrc + cls.one_spin + cls.unchanged + cls.multi_track,
            arrival_time=result.arrival,
            wall_seconds=result.wall_seconds,
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


_SWEEP_COLUMNS = (
    "N", "rho", "LRC_one_side", "two_LRC", "OS", "UC", "MT",
    "row_sum", "arrival_time", "wall_seconds",
)


def cmd_sweep(args):
    cfg = load_config(args.config)
    _reject_unknown("sweep", cfg, _SWEEP_KEYS)
    read = _reader("sweep", cfg)
    spins = read("num_spins", _sorted_list(int))
    rhos = read("rho", _sorted_list(float))
    if any(n % 2 or n < 2 for n in spins):
        raise ConfigurationError("every entry of 'num_spins' must be even and >= 2")
    out_root = Path(args.out_dir or read("out_dir", str, "spintrack_sweep"))
    parallelism = args.parallelism or read("parallelism", int, 0) or (os.cpu_count() or 1)
    preset = {key: cfg[key] for key in _PRESET_KEYS & cfg.keys()}
    shared = {key: cfg[key] for key in ("solver", "arrival_drop") if key in cfg}
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

    workers = max(1, min(parallelism, len(points)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
            rows = list(pool.map(_sweep_point, points))
    else:
        rows = [_sweep_point(p) for p in points]

    out_root.mkdir(parents=True, exist_ok=True)
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
    setup = _setup_from_args(args)
    info = resolved_dict(setup)
    if args.json:
        json.dump(info, sys.stdout, indent=2)
        print()
        return EXIT_OK
    vec_bytes = info["state_vector_bytes"]
    print(f"channels (2^N)      : {info['num_channels']}  (N={info['num_spins']})")
    print(f"grid                : Nx={info['num_points']}, dx={info['dx']:.6g}, domain (-{info['half_length']:g}, {info['half_length']:g})")
    print(f"time                : K={info['num_steps']} steps, dt={info['dt']:.6g}, t*={info['t_final']:g}")
    print(f"hbar, mass          : {info['hbar']:g}, {info['mass']:g}")
    print(f"alpha, beta, rho    : {info['alpha']:g}, {info['beta']:g}, {info['rho']:g}")
    print(f"p0, sigma, trunc_a  : {info['p0']:.6g}, {info['sigma']:g}, {info['trunc_a']:g}")
    print(f"kappa, boundary     : {info['kappa']}, {info['boundary_mode']}")
    print(f"detectors (nominal) : {['%.6g' % y for y in info['detector_nominal']]}")
    print(f"detectors (snapped) : {['%.6g' % y for y in info['detector_positions']]}")
    print(f"detector indices    : {info['detector_indices']}")
    print(f"predicted arrival   : D/p0 = {info['predicted_arrival']:.6g}")
    print(f"state vector        : {vec_bytes} B ({vec_bytes / 1e6:.1f} MB); working set ~{12 * vec_bytes / 1e6:.1f} MB (peak while stepping)")
    print(f"solver              : {info['solver']['method']} (rtol={info['solver']['rtol']:g}, max_iter={info['solver']['max_iter']})")
    for note in model.validate_regime(setup.params, setup.geom):
        print(f"warning             : {note}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate: structural and oracle cross-checks


def _production_final_state(params, grid, layout, tgrid, boundary_mode="ghost"):
    h = assemble_hamiltonian(params, grid, layout, boundary_mode=boundary_mode)
    system = assemble_cn(h, tgrid.dt, params.hbar)
    psi0 = model.initial_state(params, grid, h.num_channels)
    rec = solver.run(system, psi0, tgrid.num_steps)
    return rec, h


def _validate_checks(perturb_kappa=False):
    """Yield (name, passed, detail) triples for the whole validation suite."""
    # structural: stored nonzeros match (3 Nx - 2) M + N M
    for n in (2, 4, 6, 8):
        for nx in (50, 1000):
            if nx >= 1000:
                params, geom, grid, _ = model.preset_from_epsilon(0.1, n)
                layout = model.place_detectors(geom, grid)
            else:
                grid, layout = oracle.small_instance(n, nx)
                params = oracle.scaled_params()
            h = assemble_hamiltonian(params, grid, layout)
            expect = (3 * nx - 2) * 2**n + n * 2**n
            stored = h.to_sparse("csr").nnz
            yield (
                f"nnz N={n} Nx={nx}",
                h.nnz == expect and stored == expect,
                f"expected {expect}, structure {h.nnz}, stored {stored}",
            )

    # every cross-channel entry of the sparse H has its conjugate-transpose partner
    grid, layout = oracle.small_instance(3, 200)

    def cross_channel(params):
        coo = assemble_hamiltonian(params, grid, layout).to_sparse("coo")
        off = coo.row // grid.num_points != coo.col // grid.num_points
        return dict(zip(zip(coo.row[off], coo.col[off]), coo.data[off]))

    entries = cross_channel(oracle.scaled_params())
    paired = bool(entries) and all(
        (c, r) in entries and entries[(c, r)] == np.conj(v)
        for (r, c), v in entries.items()
    )
    yield ("coupling partner symmetry", paired, f"{len(entries)} entries")

    # rho = 0 removes every cross-channel entry
    stored = len(cross_channel(oracle.scaled_params(rho=0.0)))
    yield ("rho=0 decoupling", stored == 0, f"{stored} couplings stored")

    # A + B = 2I exactly
    grid2, layout2 = oracle.small_instance(2, 100)
    h2 = assemble_hamiltonian(oracle.scaled_params(), grid2, layout2)
    system = assemble_cn(h2, 0.065 / 350, 0.1)
    import scipy.sparse as sparse

    dev = system.a + system.b - 2.0 * sparse.identity(system.dim, dtype=complex, format="csc")
    worst = np.max(np.abs(dev.data)) if dev.nnz else 0.0
    yield ("A + B = 2I", worst == 0.0, f"max deviation {worst:g}")

    # dense reference Hermitian in symmetrized mode; eigenvalues real
    params = oracle.scaled_params()
    grid_h, layout_h = oracle.small_instance(2, 60)
    hd = oracle.dense_hamiltonian(params, grid_h, layout_h, boundary_mode="symmetrized")
    herm = float(np.max(np.abs(hd - hd.conj().T)))
    yield ("dense Hermiticity (symmetrized)", herm == 0.0, f"max |H - H^dag| = {herm:g}")

    grid_e, layout_e = oracle.small_instance(1, 50)
    he = oracle.dense_hamiltonian(params, grid_e, layout_e, boundary_mode="symmetrized")
    imag = float(np.max(np.abs(np.linalg.eigvals(he).imag)))
    yield ("dense eigenvalues real", imag <= 1e-10, f"max |Im(eig)| = {imag:.3e}")

    # oracle vs production across the coupling matrix
    for n, nx, steps in ((2, 100, 50), (3, 128, 40)):
        grid_c, layout_c = oracle.small_instance(n, nx)
        tgrid = model.TimeGrid(t_final=0.065 * steps / 350.0, num_steps=steps)
        for rho in (0.0, 10.0, 100.0):
            for beta in (0.0, 1e-4):
                for kappa in (1, 2):
                    params_o = oracle.scaled_params(rho, beta, kappa)
                    prod_kappa = 2 if (perturb_kappa and kappa == 1) else kappa
                    params_p = replace(params_o, coupling_factor=prod_kappa)
                    rec, _ = _production_final_state(params_p, grid_c, layout_c, tgrid)
                    ref = oracle.dense_run(params_o, grid_c, layout_c, tgrid)
                    max_abs, _ = oracle.compare(rec.final_state, ref)
                    p_prod = observables.channel_probs(rec.final_state).probs
                    p_ref = observables.channel_probs(ref).probs
                    prob_diff = float(np.max(np.abs(p_prod - p_ref)))
                    yield (
                        f"oracle N={n} rho={rho:g} beta={beta:g} kappa={kappa}",
                        max_abs <= 1e-10 and prob_diff <= 1e-12,
                        f"state diff {max_abs:.2e}, prob diff {prob_diff:.2e}",
                    )

    # norm conservation and time reversal on a small instance
    grid_n, layout_n = oracle.small_instance(2, 100)
    params_n = oracle.scaled_params()
    tgrid_n = model.TimeGrid(t_final=0.065 * 50 / 350.0, num_steps=50)
    rec, h_n = _production_final_state(params_n, grid_n, layout_n, tgrid_n)
    drift = float(np.max(np.abs(rec.norm2 - 1.0)))
    yield ("norm conservation (small run)", drift <= 1e-10, f"max |norm2 - 1| = {drift:.2e}")

    system_fwd = assemble_cn(h_n, tgrid_n.dt, params_n.hbar)
    system_bwd = assemble_cn(h_n, -tgrid_n.dt, params_n.hbar)
    psi0 = model.initial_state(params_n, grid_n, h_n.num_channels)
    fwd = solver.run(system_fwd, psi0, tgrid_n.num_steps).final_state
    back = solver.run(system_bwd, fwd, tgrid_n.num_steps).final_state
    err, _ = oracle.compare(back, psi0)
    yield ("time reversal (small run)", err <= 1e-8, f"max |psi - psi0| = {err:.2e}")


def cmd_validate(args):
    perturb = getattr(args, "perturb_kappa", False)
    failures = []
    count = 0
    for name, passed, detail in _validate_checks(perturb_kappa=perturb):
        count += 1
        tag = " ok " if passed else "FAIL"
        print(f"[{tag}] {name}: {detail}")
        if not passed:
            failures.append((name, detail))
    print(f"validate: {count - len(failures)}/{count} checks passed")
    if failures:
        worst = failures[0]
        print(f"worst offender: {worst[0]} ({worst[1]})", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_override_flags(parser):
    parser.add_argument("--rho", type=float, help="override the flip coupling strength")
    parser.add_argument("--num-spins", dest="num_spins", type=int, help="override the detector count")
    parser.add_argument("--kappa", type=int, choices=(1, 2), help="override the coupling factor")
    parser.add_argument(
        "--boundary-mode", dest="boundary_mode", choices=("ghost", "symmetrized"),
        help="override the boundary closure",
    )
    parser.add_argument("--epsilon", type=float, help="override the preset scale")
    parser.add_argument(
        "--solver", choices=("direct", "iterative"), help="override the linear-solve method"
    )
    parser.add_argument("--out-dir", dest="out_dir", help="override the output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spintrack",
        description="1D particle + spin-detector array simulator (Crank-Nicolson, multi-channel point interactions)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation from a JSON config")
    p_run.add_argument("-c", "--config", required=True, help="path to the JSON run config")
    _add_override_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a (N, rho) grid from a JSON sweep config")
    p_sweep.add_argument("-c", "--config", required=True, help="path to the JSON sweep config")
    p_sweep.add_argument("--out-dir", dest="out_dir", help="override the output directory")
    p_sweep.add_argument("--parallelism", type=int, help="max concurrent points")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the oracle / structural check suite")
    p_val.add_argument(
        "--perturb-kappa", dest="perturb_kappa", action="store_true",
        help="negative control: force a coupling-factor mismatch (must fail)",
    )
    p_val.set_defaults(func=cmd_validate)

    p_info = sub.add_parser("info", help="print resolved parameters without running")
    p_info.add_argument("-c", "--config", required=True, help="path to the JSON run config")
    _add_override_flags(p_info)
    p_info.add_argument("--json", action="store_true", help="emit machine-readable JSON")
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
