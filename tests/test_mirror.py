"""The mirror-symmetric path of `run`: one stored channel per mirror orbit.

A symmetric input (mirror-symmetric H, mirror-even initial state) makes
`run` store one channel of each orbit {m, mirror m}; every other input
stores all 2^N.  Each check compares the stored path with the full path
of the same input, which monkeypatching the orbit function forces.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from spintrack import (
    SolverError,
    StateVector,
    assemble_cn,
    assemble_hamiltonian,
    build_grid,
    initial_state,
    make_linear_solver,
    model,
    run,
)
from spintrack import solver as solver_module
from spintrack.oracle import dense_run, differences, scaled_params
from spintrack.assembly import _identity_plus
from spintrack.solver import SolveConfig, _Orbits
from spintrack.spinspace import mirrors

# stored rows, one per mirror orbit: (2^N + 2^(N/2)) / 2
ORBITS = {2: 3, 4: 10, 6: 36, 8: 136}
# agreement of the stored and the full path: final state, class series
STATE_BOUND = 1e-13
CLASS_BOUND = 1e-14
CLASSES = ("unchanged", "one_spin", "left_track", "right_track", "multi_track")
STEPS = 60  # of dt = 0.065 / 100 on `_compact`'s instances


def _compact(num_spins, num_points=201, half_length=0.75, rho=100.0, kappa=1, x0=0.0,
             boundary_mode="ghost"):
    """A small symmetric instance whose packet crosses the clusters at +-0.3 in 60 steps.

    Returns (system, psi0, layout).  At 201 points the packet's wavenumber
    is resolved (k0 dx = 1.0), and it stays clear of the boundary.
    """
    grid = build_grid(half_length, num_points)
    geom = model.Geometry(
        half_length=half_length, cluster_distance=0.3, spacing=0.03, num_spins=num_spins
    )
    layout = model.place_detectors(geom, grid)
    params = scaled_params(rho=rho, beta=1e-4, kappa=kappa, x0=x0)
    h = assemble_hamiltonian(params, grid, layout, boundary_mode=boundary_mode)
    system = assemble_cn(h, 0.065 / 100, params.hbar)
    return system, initial_state(params, grid, h.num_channels), layout


def _full_run(system, psi0, layout, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(solver_module, "_mirror_images", lambda h, values: np.arange(len(values)))
        return run(system, psi0, STEPS, sides=layout.sides)


def _disagreement(stored, full):
    """(max final-state difference, max difference of any class series)."""
    state = np.max(np.abs(stored.final_state.values - full.final_state.values))
    classes = max(np.max(np.abs(getattr(stored, c) - getattr(full, c))) for c in CLASSES)
    return state, classes


@pytest.mark.parametrize("boundary_mode", ["ghost", "symmetrized"])
@pytest.mark.parametrize("num_spins", [2, 4, 6, 8])
def test_stored_path_matches_full_path(num_spins, boundary_mode, monkeypatch):
    for rho in (0.0, 10.0, 100.0, 150.0):
        for kappa in (1, 2):
            system, psi0, layout = _compact(num_spins, rho=rho, kappa=kappa, boundary_mode=boundary_mode)
            stored = run(system, psi0, STEPS, sides=layout.sides)
            full = _full_run(system, psi0, layout, monkeypatch)
            assert stored.stored_channels == ORBITS[num_spins]
            assert full.stored_channels == 1 << num_spins
            state, classes = _disagreement(stored, full)
            case = f"rho={rho:g} kappa={kappa}"
            assert state <= STATE_BOUND, case
            assert classes <= CLASS_BOUND, case
            np.testing.assert_allclose(stored.norm2, full.norm2, rtol=0, atol=CLASS_BOUND)
            np.testing.assert_allclose(stored.energy, full.energy, rtol=1e-13)
            assert stored.max_step_residual <= SolveConfig().rtol
            # the stored path is left/right symmetric by construction
            np.testing.assert_allclose(stored.left_track, stored.right_track, rtol=0, atol=1e-16)
    # the packet crossed the clusters, so the comparison saw the coupling
    assert stored.unchanged[-1] < 0.6


def _control(monkeypatch, name, broken):
    """Run the N=4, rho=100 instance with `_Orbits.<name>` replaced by `broken`.

    The residual check covers every channel, so it must stop the run once
    the packet reaches the detectors.
    """
    system, psi0, layout = _compact(4)
    monkeypatch.setattr(_Orbits, name, broken)
    with pytest.raises(SolverError, match="solve residual"):
        run(system, psi0, STEPS, sides=layout.sides)


def test_control_b_without_reversing_x(monkeypatch):
    # B's rows then read an unstored partner at i_j, not at Nx - 1 - i_j
    init = _Orbits.__init__

    def unreflected(self, images, group_of):
        init(self, images, group_of)
        self.reflected = np.zeros_like(self.reflected)

    _control(monkeypatch, "__init__", unreflected)


def test_control_expand_without_reversing_detectors(monkeypatch):
    def fill(self, values):
        values[self.unstored] = values[self.images]

    _control(monkeypatch, "fill", fill)


def test_folded_b_is_b_on_the_stored_rows(rng):
    # each stored row sums its entries in B's order, so the product of a
    # mirror-even state equals B's, bit for bit: on the mirror orbits, and
    # on the one-channel orbits an input without the symmetry gets
    system, _, _ = _compact(6, num_points=81, half_length=0.6)
    h = system.h
    m, nx = h.num_channels, h.num_points
    values = rng.standard_normal((m, nx)) + 1j * rng.standard_normal((m, nx))
    images = mirrors(6)
    values = values + values[images, ::-1]  # mirror-even
    full = (system.b @ values.ravel()).reshape(m, nx)
    full_norm2 = np.vdot(values, values).real
    solver = make_linear_solver(system, SolveConfig())
    for orbit_images, num_stored in ((images, ORBITS[6]), (np.arange(m), m)):
        orbits = solver.orbits(orbit_images)
        assert len(orbits.channels) == num_stored
        assert np.all(np.diff(h.channel_shift[orbits.channels]) >= 0)  # group order
        stored_b = _identity_plus(h, -1j * system.dt / (2.0 * system.hbar), layout=orbits)
        # row s is B's row at channels[s], its entries in B's order
        rows = system.b[(orbits.channels[:, None] * nx + np.arange(nx)).ravel()]
        np.testing.assert_array_equal(stored_b.data, rows.data)
        np.testing.assert_array_equal(stored_b.indptr, rows.indptr)
        stored = values[orbits.channels]
        product = (stored_b @ stored.ravel()).reshape(stored.shape)
        np.testing.assert_array_equal(product, full[orbits.channels])
        np.testing.assert_array_equal(orbits.expand(stored), values)
        # the weighted row sums are the full-space sums
        assert orbits.weights.sum() == m
        norm = solver_module._weighted_norm(stored, orbits.weights)
        assert norm**2 == pytest.approx(full_norm2, rel=1e-14)


@pytest.mark.parametrize("kind", ["mirror", "one-channel"])
@pytest.mark.parametrize("num_spins", [6, 8])
def test_stored_b_build_allocates_little_beyond_b(num_spins, kind):
    # run's B is written straight onto the stored rows, with no natural-order
    # B to copy from, so the build traces little beyond B's own arrays
    params, geom, grid, tgrid = model.preset_from_epsilon(0.1, num_spins)
    h = assemble_hamiltonian(params, grid, model.place_detectors(geom, grid))
    system = assemble_cn(h, tgrid.dt, params.hbar)
    images = mirrors(num_spins) if kind == "mirror" else np.arange(h.num_channels)
    orbits = make_linear_solver(system, SolveConfig()).orbits(images)
    assert len(orbits.channels) == (ORBITS[num_spins] if kind == "mirror" else h.num_channels)
    tracemalloc.start()
    try:
        b = _identity_plus(h, -1j * system.dt / (2.0 * system.hbar), layout=orbits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (b.data.nbytes + b.indices.nbytes + b.indptr.nbytes)


def test_dense_oracle_on_the_stored_path():
    # a symmetric N=2 instance started at the origin whose packet reaches
    # the detectors; it must meet `validate`'s bounds
    grid = build_grid(0.75, 121)
    geom = model.Geometry(half_length=0.75, cluster_distance=0.3, spacing=0.06, num_spins=2)
    layout = model.place_detectors(geom, grid)
    params = scaled_params(rho=100.0, beta=1e-4)
    tgrid = model.TimeGrid(t_final=0.045, num_steps=70)
    h = assemble_hamiltonian(params, grid, layout)
    system = assemble_cn(h, tgrid.dt, params.hbar)
    record = run(system, initial_state(params, grid, h.num_channels), tgrid.num_steps, sides=layout.sides)
    assert record.stored_channels == ORBITS[2]
    assert 1.0 - record.unchanged[-1] >= 1e-3
    max_abs, prob_diff = differences(record.final_state, dense_run(params, grid, layout, tgrid))
    assert max_abs <= 1e-10
    assert prob_diff <= 1e-12


def _stores_every_channel(system, psi0):
    images = solver_module._mirror_images(system.h, psi0.values)
    return np.array_equal(images, np.arange(system.h.num_channels))


def test_packet_off_the_origin_takes_the_full_path():
    system, psi0, layout = _compact(4, x0=0.05)
    assert _stores_every_channel(system, psi0)
    assert run(system, psi0, 5, sides=layout.sides).stored_channels == 16


def test_mirror_broken_snap_takes_the_full_path():
    grid = build_grid(0.75, 151)
    geom = model.Geometry(half_length=0.75, cluster_distance=0.3, spacing=0.03, num_spins=4)
    with pytest.warns(UserWarning, match="mirror symmetry"):
        layout = model.place_detectors(geom, grid)
    params = scaled_params()
    h = assemble_hamiltonian(params, grid, layout)
    system = assemble_cn(h, 0.065 / 100, params.hbar)
    psi0 = initial_state(params, grid, h.num_channels)
    assert _stores_every_channel(system, psi0)
    assert run(system, psi0, 5, sides=layout.sides).stored_channels == 16


def test_nan_in_an_unstored_row_takes_the_full_path_and_raises():
    system, psi0, layout = _compact(4)
    values = psi0.values.copy()
    # channel 8 (bit 3) is the mirror of the stored channel 1 (bit 0); a NaN
    # at mirrored points of both is still no mirror-even state
    values[8, 40] = np.nan
    values[1, 200 - 40] = np.nan
    psi0 = StateVector(values, psi0.dx)
    assert _stores_every_channel(system, psi0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SolverError, match="step 1"):
            run(system, psi0, 5, sides=layout.sides)
