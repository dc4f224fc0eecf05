"""Dense reference implementation and the small instances it is checked on.

The dense Hamiltonian is written directly from the stencil definitions,
entry by entry, on purpose sharing no construction code with `assembly`,
and `dense_run` evolves it with dense LU instead of the structured direct
solve: a transcription slip in either implementation shows up as a mismatch
when the two evolutions are compared.  Only `production_vs_dense` runs
production code, to make that comparison.  Size is capped so the dense
matrices stay trivially cheap.  `scaled_params` and `small_instance` build
the coarse instances that `spintrack validate` and the test suite run on.
"""

import numpy as np
import scipy.linalg

from . import model
from .assembly import assemble_cn, assemble_hamiltonian
from .observables import channel_probs
from .solver import run
from .spinspace import SideAssignment
from .state import StateVector

MAX_DENSE_DIM = 2048


def scaled_params(rho=100.0, beta=1e-4, kappa=1, alpha=1e-4, x0=0.0):
    """The epsilon = 0.1 physical constants with overridable couplings and start."""
    return model.PhysicalParams(
        hbar=0.1, mass=1.0, alpha=alpha, beta=beta, rho=rho,
        p0=40.0 / 3.0, sigma=0.025, trunc_a=0.5, x0=x0, kappa=kappa,
    )


def small_instance(num_spins=2, num_points=100):
    """Coarse grid over the standard domain with wide detector spacing.

    Returns (grid, layout).  Even counts go through the production placement;
    odd counts (used only to exercise assembly and the oracle) are placed by
    hand since they have no symmetric layout.
    """
    grid = model.build_grid(1.5, num_points)
    if num_spins % 2 == 0:
        geom = model.Geometry(
            half_length=1.5, cluster_distance=0.5,
            spacing=max(0.1, 3.0 * grid.dx), num_spins=num_spins,
        )
        return grid, model.place_detectors(geom, grid)
    want = np.linspace(-0.52, 0.5, num_spins)
    idx = np.ceil((want + 1.5) / grid.dx - 0.5).astype(np.int64)
    pos = grid.xs[idx]
    layout = model.DetectorLayout(
        positions=pos,
        grid_indices=idx,
        sides=SideAssignment(tuple(-1 if y < 0 else 1 for y in pos)),
        nominal_positions=want,
    )
    return grid, layout


def _check_size(num_channels, num_points):
    if num_channels * num_points > MAX_DENSE_DIM:
        raise ValueError(
            f"dense oracle capped at dimension {MAX_DENSE_DIM}, "
            f"got {num_channels} x {num_points} = {num_channels * num_points}"
        )


def dense_hamiltonian(params, grid, layout, boundary_mode="ghost"):
    """Dense Hamiltonian built entry by entry from the stencil definitions."""
    n = layout.num_spins
    m = 2**n
    nx = grid.num_points
    _check_size(m, nx)
    dx = grid.dx
    hb2m = params.hbar**2 / (2.0 * params.mass)

    h = np.zeros((m * nx, m * nx), dtype=np.complex128)
    for mask in range(m):
        base = mask * nx
        sigma_total = sum(1 if (mask >> j) & 1 else -1 for j in range(n))
        for i in range(nx):
            h[base + i, base + i] = 2.0 * hb2m / dx**2 + params.alpha * sigma_total
            if i > 0:
                h[base + i, base + i - 1] = -hb2m / dx**2
            if i < nx - 1:
                h[base + i, base + i + 1] = -hb2m / dx**2
        if boundary_mode == "ghost":
            h[base, base + 1] = -2.0 * hb2m / dx**2
            h[base + nx - 1, base + nx - 2] = -2.0 * hb2m / dx**2
        elif boundary_mode != "symmetrized":
            raise ValueError(f"unknown boundary mode {boundary_mode!r}")
        for j in range(n):
            ij = int(layout.grid_indices[j])
            h[base + ij, base + ij] += hb2m * params.beta / dx
            sigma_j = 1.0 if (mask >> j) & 1 else -1.0
            partner = mask ^ (1 << j)
            h[base + ij, partner * nx + ij] = (
                -1j * sigma_j * params.kappa * params.rho * hb2m / dx
            )
    return h


def dense_run(params, grid, layout, time_grid):
    """Crank-Nicolson evolution of the standard initial state with dense LU, factored once.

    Returns the final StateVector.
    """
    m = 2**layout.num_spins
    _check_size(m, grid.num_points)
    h = dense_hamiltonian(params, grid, layout)
    factor = 1j * time_grid.dt / (2.0 * params.hbar)
    eye = np.eye(h.shape[0], dtype=np.complex128)
    a = eye + factor * h
    b = eye - factor * h
    lu, piv = scipy.linalg.lu_factor(a)
    v = model.initial_state(params, grid, m).values.ravel()
    for _ in range(time_grid.num_steps):
        v = scipy.linalg.lu_solve((lu, piv), b @ v)
    return StateVector(v.reshape(m, grid.num_points), grid.dx)


def production_vs_dense(params, grid, layout, time_grid, production_params=None):
    """(max state diff, max channel-probability diff) of the two evolutions.

    The production path (`assemble_hamiltonian`, `assemble_cn`,
    `initial_state`, `run`) evolves one instance with `production_params`
    (default `params`), and `dense_run` evolves it with `params`.
    """
    production_params = production_params or params
    h = assemble_hamiltonian(production_params, grid, layout)
    system = assemble_cn(h, time_grid.dt, production_params.hbar)
    psi0 = model.initial_state(production_params, grid, h.num_channels)
    production = run(system, psi0, time_grid.num_steps).final_state
    reference = dense_run(params, grid, layout, time_grid)
    max_abs = np.max(np.abs(production.values - reference.values))
    prob_diff = np.max(np.abs(channel_probs(production).probs - channel_probs(reference).probs))
    return float(max_abs), float(prob_diff)
