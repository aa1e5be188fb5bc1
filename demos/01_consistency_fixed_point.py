"""The self-consistency condition and its fixed points.

A qubit trapped in a closed timelike curve must leave the wormhole in
exactly the state it entered with: rho = Tr_1[E(rho_in (x) rho)], where E
is the two-qubit interaction it undergoes with the chronology-respecting
input. This script solves that equation for a few interactions and shows

* how the loop state adapts instantly to the input and to the gate,
* a degenerate case where a whole family of states is self-consistent
  (the solver returns the entropy maximizer and says so), and
* that both solver methods (min-norm Bloch solve and damped iteration)
  land on the same state.

Run: python demos/01_consistency_fixed_point.py
"""

import math

import numpy as np

from ctcsim import (
    CircuitKind,
    CircuitSpec,
    LocalPure,
    PureQubit,
    build_interaction,
    run_scenario,
    solve_fixed_point,
    trace_distance,
)


def show(label, fp):
    b = fp.rho_ctc.bloch()
    flag = f"  [fixed set dim {fp.fixed_set_dimension}]" if fp.fixed_set_dimension > 1 else ""
    print(f"  {label:<42} Bloch ({b.x:+.4f}, {b.y:+.4f}, {b.z:+.4f})  "
          f"entropy {fp.entropy:.4f}  residual {fp.residual:.1e}{flag}")


def main():
    print("Loop state for the CNOT-then-SWAP interaction, various inputs:")
    swap_cnot = CircuitSpec(kind=CircuitKind.SWAP_CNOT)
    for phi in (0.0, math.pi / 4, math.pi / 2, math.pi):
        res = run_scenario(swap_cnot, LocalPure(PureQubit(phi)))
        show(f"input polar angle {phi:.4f}", res.fixed_point)
    print()
    print("The equator input (polar pi/2) is the degenerate case: every state")
    print("on a whole line segment is self-consistent, and the maximally mixed")
    print("state wins because it has the largest von Neumann entropy.")
    print()

    print("Loop state for SWAP followed by a controlled rotation (gate angle theta):")
    psi = PureQubit(3 * math.pi / 2)
    for theta in (-math.pi / 4, 0.0, math.pi / 8, math.pi / 4):
        spec = CircuitSpec(kind=CircuitKind.SWAP_THEN_CU, theta_xz=theta)
        res = run_scenario(spec, LocalPure(psi))
        show(f"theta = {theta:+.4f}", res.fixed_point)
    print()
    print("At theta = (phi - pi)/2 = pi/4 the rotation maps the input onto |V>,")
    print("so the self-consistent loop state snaps to |V> exactly.")
    print()

    print("Cross-checking the two solver methods on a noisy scenario:")
    spec = CircuitSpec(kind=CircuitKind.SWAP_THEN_CU, theta_xz=0.3, gate_noise=0.2)
    interaction = build_interaction(spec)
    rho_in = PureQubit(2.2, 0.7).density()
    affine = solve_fixed_point(rho_in, interaction)
    damped = solve_fixed_point(rho_in, interaction, method="damped_iteration")
    print(f"  min-norm Bloch solve: residual {affine.residual:.2e}")
    print(f"  damped iteration    : residual {damped.residual:.2e} "
          f"after {damped.iterations} steps")
    print(f"  disagreement        : {trace_distance(affine.rho_ctc, damped.rho_ctc):.2e}")
    print()

    print("The consistency superoperator is tiny (4x4); here it is for the")
    print("noisy scenario above (real parts):")
    from ctcsim import superoperator

    m = superoperator(rho_in, interaction)
    with np.printoptions(precision=3, suppress=True):
        print(np.array2string(m.real, prefix="  "))


if __name__ == "__main__":
    main()
