"""The more detectors, the more decoherence.

Sweeps the detector count at fixed coupling and watches the probability of
seeing a track on one side grow while the no-flip probability collapses:
the environment gets better at "measuring" the particle's direction as the
number of its constituents grows.

Runs N = 4 and 6 here to stay fast (about a second); N = 8 takes a few
more and follows the same trend.  The CLI does full tables in parallel:

    spintrack sweep -c sweep.json
"""

import spintrack as st


def final_classes(num_spins, rho=100.0):
    params, geom, grid, tgrid = st.preset_from_epsilon(0.1, num_spins, rho=rho)
    layout = st.place_detectors(geom, grid)
    h = st.assemble_hamiltonian(params, grid, layout)
    system = st.assemble_cn(h, tgrid.dt, params.hbar)
    psi0 = st.initial_state(params, grid, h.num_channels)
    record = st.run(system, psi0, tgrid.num_steps)
    return st.class_probs(st.channel_probs(record.final_state), layout.sides)


print(f"{'N':>3} {'UC':>12} {'OS':>12} {'2*LRC':>12} {'MT':>10}")
for n in (4, 6):
    c = final_classes(n)
    print(
        f"{n:>3} {c.unchanged:>12.6f} {c.one_spin:>12.6f} "
        f"{c.left_track + c.right_track:>12.6f} {c.multi_track:>10.2e}"
    )
print("\nUC falls and 2*LRC rises with N; flips on both sides stay negligible.")
