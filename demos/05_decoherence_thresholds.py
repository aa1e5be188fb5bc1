"""How much noise the discrimination advantage survives.

Two decoherence mechanisms hit the discrimination circuit at its working
point (controlled Hadamard, state pair {|H>, psi1(3 pi/2)}):

* depolarization of the input qubit with strength p (the loop sees the
  resulting improper mixture and adapts to it), and
* failure of the controlled gate with probability epsilon, which the
  loop likewise sees as a mixed process.

The loop keeps its noise-free sigma_z measurement, standard QM its
noise-free optimal measurement. Bisection on the advantage gap locates
the exact break-even points, p* = sqrt(2) - 1 and epsilon* = 1/3.

Run: python demos/05_decoherence_thresholds.py
Writes decoherence_response.svg next to the working directory.
"""

import math

from ctcsim import decoherence_surface, find_threshold
from ctcsim.svgplot import svg


def main():
    print("Advantage thresholds at the working point:")
    thr_p = find_threshold("p")
    thr_e = find_threshold("epsilon")
    print(f"  depolarization:  p* = {thr_p.crossing:.9f}   (sqrt(2)-1 = {math.sqrt(2) - 1:.9f})")
    print(f"  gate failure:  eps* = {thr_e.crossing:.9f}   (1/3       = {1 / 3:.9f})")
    print()

    print("Cuts through the noise surface (L of the loop vs standard QM):")
    grid = [k / 10 for k in range(11)]
    vs_p = decoherence_surface(grid, [0.0])
    vs_e = decoherence_surface([0.0], grid)
    print(f"  {'noise':>6}  {'loop vs p':>10} {'QM vs p':>9}  {'loop vs eps':>12}")
    for x, rp, re in zip(grid, vs_p, vs_e):
        print(f"  {x:6.2f}  {rp.L_ctc_sigma_z:10.5f} {rp.L_qm:9.5f}  {re.L_ctc_sigma_z:12.5f}")
    print()
    print("Against gate failure the standard-QM comparison stays at 0.75")
    print("(that channel has no analogue without a loop); full failure drags")
    print("the loop down to coin flipping.")

    plot = svg(
        [
            ("loop vs p (eps=0)", grid, [r.L_ctc_sigma_z for r in vs_p]),
            ("standard QM vs p", grid, [r.L_qm for r in vs_p]),
            ("loop vs eps (p=0)", grid, [r.L_ctc_sigma_z for r in vs_e]),
        ],
        title="decoherence response at the working point",
        x_label="noise strength",
        y_label="mismatch probability",
    )
    with open("decoherence_response.svg", "w", encoding="utf-8") as fh:
        fh.write(plot)
    print("wrote decoherence_response.svg")


if __name__ == "__main__":
    main()
