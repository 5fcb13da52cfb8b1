"""Port-teleportation fidelity curve against its exact floor.

Prints the entanglement fidelity of square-root port teleportation on
qubits for 1..8 ports, from its Young-diagram closed form, next to the
1 - d^2/N floor, and marks the rows where the floor is vacuous (N < d^2).
The channel becomes perfect only as the port count grows, and its output
on a qubit is depolarizing with contraction (4F - 1)/3.
"""

import sys
import time

from bellforge import entanglement_fidelity


def main() -> None:
    start = time.monotonic()
    d = 2
    print(f"{'ports':>5}  {'fidelity':>18}  {'floor 1-d^2/N':>14}  note")
    for n in range(1, 9):
        fid = entanglement_fidelity(n, d)
        floor = 1.0 - d * d / n
        note = "floor vacuous" if floor <= 0 else ""
        lam = (4.0 * fid - 1.0) / 3.0
        print(f"{n:>5}  {fid:>18.15f}  {floor:>14.6f}  {note}"
              f"  (depolarizing contraction {lam:.6f})")
    print(f"[{time.monotonic() - start:.1f}s] done", file=sys.stderr)


if __name__ == "__main__":
    main()
