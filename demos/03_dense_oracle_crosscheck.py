"""Cross-checking the sparse production path against a dense reference.

The dense oracle rebuilds the Hamiltonian entry by entry from the stencil
definitions, shares no construction code with the sparse assembly, and
evolves with dense LU instead of the structured direct solve.
`oracle.final_states` runs both evolutions on one instance, and
`oracle.differences` returns the largest state and channel-probability
differences of their final states; on this small instance they must agree
to near machine precision.  The packet
starts on the right-hand detector, so the 50 steps exercise the spin-flip
coupling; started at the origin it would not reach them in time.
`spintrack validate` runs the same comparison over a whole coupling matrix.
"""

import spintrack as st
from spintrack.oracle import differences, final_states

params = st.PhysicalParams(
    hbar=0.1, mass=1.0, alpha=1e-4, beta=1e-4, rho=100.0,
    p0=40.0 / 3.0, sigma=0.025, trunc_a=0.5, x0=0.5,
)
geom = st.Geometry(half_length=1.5, cluster_distance=0.5, spacing=0.12, num_spins=2)
grid = st.build_grid(1.5, 100)
layout = st.place_detectors(geom, grid)
tgrid = st.TimeGrid(t_final=50 * 0.065 / 350, num_steps=50)

max_abs, prob_gap = differences(*final_states(params, grid, layout, tgrid))
print(f"instance: N=2 (4 channels), Nx=100, K={tgrid.num_steps}")
print(f"max |psi_sparse - psi_dense|      : {max_abs:.3e}")
print(f"max channel-probability difference: {prob_gap:.3e}")
assert max_abs <= 1e-10 and prob_gap <= 1e-12
print("sparse production path and dense reference agree.")
