"""A single track-formation run, start to finish.

An energetic particle starts at the origin as a superposition of two
identical wavepackets with opposite average momentum.  Two clusters of two
detectors each sit symmetrically around +-0.5.  As the packets sweep over
the clusters, spin flips accumulate, and by the final time the state is
essentially an incoherent mixture of "nothing happened", "one flip", and
"a track formed on one side".

Runs the standard epsilon = 0.1 configuration with N = 4 detectors
(16 channels) and prints the final class probabilities.  Takes a few
seconds on one core.
"""

import numpy as np

import spintrack as st

params, geom, grid, tgrid = st.preset_from_epsilon(epsilon=0.1, num_spins=4, rho=100.0)
layout = st.place_detectors(geom, grid)

print("detectors at", np.round(layout.positions, 5), "sides", layout.sides.signs)
print(f"packet speed p0/m = {params.p0:.4f}, predicted arrival D/p0 = "
      f"{geom.cluster_distance / params.p0:.4f}")

h = st.assemble_hamiltonian(params, grid, layout)
system = st.assemble_cn(h, tgrid.dt, params.hbar)
psi0 = st.initial_state(params, grid, h.num_channels)

record = st.run(system, psi0, tgrid.num_steps, sides=layout.sides)
classes = st.class_probs(st.channel_probs(record.final_state), layout.sides)

print(f"\nfinal time t* = {tgrid.t_final}")
print(f"  no flip        (UC) : {classes.unchanged:.9f}")
print(f"  one flip       (OS) : {classes.one_spin:.9f}")
print(f"  left track          : {classes.left_track:.9f}")
print(f"  right track         : {classes.right_track:.9f}")
print(f"  flips both sides    : {classes.multi_track:.3e}")
print(f"  sum                 : {classes.total:.12f}")
print(f"\nnorm drift over the run : {np.max(np.abs(record.norm2 - 1.0)):.2e}")
print(f"energy drift (relative) : "
      f"{np.max(np.abs(record.energy - record.energy[0])) / abs(record.energy[0]):.2e}")
print("\nfor comparison, the frozen reference row (N=4, rho=100):")
print("  UC = 0.659609415084, OS = 0.275253381822, LRC(one side) = 0.0325685025765")
