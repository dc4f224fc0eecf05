"""Cross-checking the sparse production path against a dense reference.

The dense oracle rebuilds the Hamiltonian entry by entry from the stencil
definitions, shares no construction code with the sparse assembly, and
evolves with dense LU instead of the structured direct solve.  On a small
instance the two evolutions must agree to near machine precision; this is
the cross-check the `spintrack validate` subcommand runs over a whole
coupling matrix.
"""

import numpy as np

import spintrack as st
from spintrack.oracle import compare, dense_run

params = st.PhysicalParams(
    hbar=0.1, mass=1.0, alpha=1e-4, beta=1e-4, rho=100.0,
    p0=40.0 / 3.0, sigma=0.025, trunc_a=0.5,
)
geom = st.Geometry(half_length=1.5, cluster_distance=0.5, spacing=0.12, num_spins=2)
grid = st.build_grid(1.5, 100)
layout = st.place_detectors(geom, grid)
tgrid = st.TimeGrid(t_final=50 * 0.065 / 350, num_steps=50)

h = st.assemble_hamiltonian(params, grid, layout)
system = st.assemble_cn(h, tgrid.dt, params.hbar)
psi0 = st.initial_state(params, grid, h.num_channels)
production = st.run(system, psi0, tgrid.num_steps).final_state
reference = dense_run(params, grid, layout, tgrid)

max_abs, norm_diff = compare(production, reference)
prob_gap = np.max(np.abs(
    st.channel_probs(production).probs - st.channel_probs(reference).probs
))
print(f"instance: N=2 (4 channels), Nx=100, K={tgrid.num_steps}")
print(f"max |psi_sparse - psi_dense|      : {max_abs:.3e}")
print(f"|norm difference|                 : {norm_diff:.3e}")
print(f"max channel-probability difference: {prob_gap:.3e}")
assert max_abs <= 1e-10 and prob_gap <= 1e-12
print("sparse production path and dense reference agree.")
