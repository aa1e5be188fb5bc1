"""Nominally equivalent preparations that the loop can tell apart.

Two effects with no analogue in linear quantum mechanics:

1. Local vs non-local pure-state preparation. Preparing |psi1> directly
   is NOT the same as preparing it by measuring one half of the
   entangled resource (|0>|psi0> + |1>|psi1>)/sqrt(2): no record of the
   remote outcome exists at the loop, so the loop adapts to the 50/50
   mixture and the discrimination trick collapses to coin flipping.
   (If it did not, the loop would enable faster-than-light signalling.)

2. Proper vs improper mixtures. A mixed input arising from classical
   fluctuations (proper: a different pure state each shot) evolves
   differently from the same density matrix arising as a reduced
   entangled state (improper), because consistency applies shot-by-shot
   only in the first case.

Run: python demos/04_local_vs_nonlocal.py
"""

import math

import numpy as np

from ctcsim import (
    CircuitKind,
    CircuitSpec,
    DensityMatrix,
    ImproperMixed,
    NonLocalEnsemble,
    PureQubit,
    discrimination_sweep,
    proper_mixture_output,
    resource_state_vector,
    run_scenario,
)


def main():
    phi = 3 * math.pi / 2
    psi0, psi1 = PureQubit(0.0), PureQubit(phi)

    print("What the loop sees under non-local preparation:")
    # Trace the ancilla out: rows of `amps` are indexed by the ancilla.
    amps = resource_state_vector(psi0, psi1).reshape(2, 2)
    x, y, z = DensityMatrix(amps.T @ amps.conj()).bloch()
    print(f"  reduced input state has Bloch vector ({x:+.3f}, {y:+.3f}, {z:+.3f})")
    print()

    print("Discrimination at the optimal gate, phi = 3 pi/2:")
    local = discrimination_sweep("local", "fixed-state", 16)
    nonlocal_ = discrimination_sweep("nonlocal", "fixed-state", 16)
    print(f"  {'theta':>8}  {'L local':>8} {'L nonlocal':>11} {'L std QM':>9}")
    for rl, rn in zip(local, nonlocal_):
        print(f"  {rl.theta_xz:8.4f}  {rl.L_ctc_sigma_z:8.5f} {rn.L_ctc_sigma_z:11.5f} "
              f"{rl.L_qm:9.5f}")
    print("  Non-local preparation never beats 1/2 anywhere on the sweep;")
    print("  standard QM cannot tell the two preparations apart at all.")
    print()

    spec = CircuitSpec(kind=CircuitKind.SWAP_THEN_CU, theta_xz=math.pi / 4)
    res = run_scenario(spec, NonLocalEnsemble((psi0, psi1), (0.5, 0.5)))
    out = res.rho_out_per_input[0]
    print("At the optimal gate the non-local outputs are exactly maximally mixed:")
    with np.printoptions(precision=3, suppress=True):
        print(np.array2string(out.mat.real, prefix="  "))
    print()

    print("Proper vs improper mixture under the nonlinear loop")
    print("(ensemble: |H> and the equator state, equal weights):")
    states = [PureQubit(0.0), PureQubit(math.pi / 2)]
    swap_cnot = CircuitSpec(kind=CircuitKind.SWAP_CNOT)
    proper = proper_mixture_output(swap_cnot, states, [0.5, 0.5])
    reduced = DensityMatrix(0.5 * states[0].density().mat + 0.5 * states[1].density().mat)
    improper = run_scenario(swap_cnot, ImproperMixed(reduced)).rho_out_per_input[0]
    print(f"  proper   (shot-by-shot) output populations: "
          f"({proper.mat[0, 0].real:.4f}, {proper.mat[1, 1].real:.4f})")
    print(f"  improper (reduced state) output populations: "
          f"({improper.mat[0, 0].real:.4f}, {improper.mat[1, 1].real:.4f})")
    print("  Same density matrix in, different states out: the loop reveals")
    print("  how the mixture was made.")


if __name__ == "__main__":
    main()
