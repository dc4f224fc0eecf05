"""Watching the flip probability switch on when the packet arrives.

Until the wavepacket reaches the detector clusters the environment barely
notices it; once the leading edge overlaps the clusters the no-flip
probability drops fast.  The crossing of a small threshold marks the onset
of flipping, which the packet's faint leading tail already triggers at this
coupling (0.0297 for UC < 0.99), well before the ballistic prediction
D / p0 = 0.0375.  The time at which UC has made half of its total fall by
t* (the median first-flip time, 0.0384 here) tracks D / p0.

Also prints the per-run conservation numbers: the implicit trapezoidal
step preserves the discrete norm and the energy expectation up to the
linear-solver tolerance.
"""

import numpy as np

import spintrack as st

params, geom, grid, tgrid = st.preset_from_epsilon(0.1, 4, rho=150.0)
layout = st.place_detectors(geom, grid)
h = st.assemble_hamiltonian(params, grid, layout)
system = st.assemble_cn(h, tgrid.dt, params.hbar)
psi0 = st.initial_state(params, grid, h.num_channels)
record = st.run(system, psi0, tgrid.num_steps)

print("   t       UC         OS         2*LRC")
for t_probe in (0.01, 0.02, 0.03, 0.0375, 0.045, 0.055, 0.065):
    k = int(round(t_probe / tgrid.dt))
    print(
        f"{record.times[k]:.4f}  {record.unchanged[k]:.6f}  "
        f"{record.one_spin[k]:.6f}  {record.left_track[k] + record.right_track[k]:.6f}"
    )

for drop in (0.01, 0.05, 0.2):
    t = st.arrival_time(record, drop)
    print(f"first time UC < {1 - drop:g}: t = {t:.4f}")
half_fall = 0.5 * (1.0 - record.unchanged[-1])
print(f"half of UC's total fall : t = {st.arrival_time(record, half_fall):.4f}")
print(f"ballistic estimate D/p0 = {geom.cluster_distance / params.p0:.4f}")

print(f"\nmax |norm^2 - 1|        : {np.max(np.abs(record.norm2 - 1.0)):.2e}")
drift = np.max(np.abs(record.energy - record.energy[0])) / abs(record.energy[0])
print(f"max relative energy drift: {drift:.2e}")
