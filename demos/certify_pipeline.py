"""End-to-end certification pipeline on the built-in random-access protocol.

Converts the protocol to single-qubit rounds and then to memoryless form,
replaces its one transmission by port teleportation at several port
counts, and evaluates the resulting linear Bell functional against the
exact deterministic-strategy bound.  The printout shows the central
desk-scale effect: the measured value grows toward the source success
cos^2(pi/8) as ports are added, but the index budget the construction
pays for always covers a classical strategy that does just as well, so
no violation is certified at these sizes.
"""

import sys
import time

from bellforge import (
    PortSchedule, bell_value, builtin_qrac,
    generate_correlations, lhv_bound, simulate_with_classical_comm,
    success_probability, to_memoryless, to_single_qubit_rounds,
)


def main() -> None:
    start = time.monotonic()
    source = builtin_qrac()
    ml = to_memoryless(to_single_qubit_rounds(source))
    print(f"source success      {success_probability(source):.15f}")
    print(f"{'ports':>5}  {'bell value':>18}  {'classical':>10}  "
          f"{'budget':>6}  verdict")
    for ports in (1, 2, 4, 8):
        schedule = PortSchedule.for_protocol(ml, (ports,))
        table = generate_correlations(ml, schedule)
        delta = lhv_bound(source.truth, schedule, method="exact")
        report = bell_value(table, delta, "exact")
        verdict = "VIOLATED" if report.shifted_value > delta + 1e-9 \
            else "not violated"
        print(f"{ports:>5}  {report.bell_value:>18.15f}  {delta:>10.4f}  "
              f"{report.budget_bits:>6.1f}  {verdict}")
    sim, bits = simulate_with_classical_comm(
        generate_correlations(ml, PortSchedule.for_protocol(ml, (8,))))
    print(f"classical replay of the 8-port run: success {sim:.15f} "
          f"using {bits:.1f} bits")
    print(f"[{time.monotonic() - start:.1f}s] done", file=sys.stderr)


if __name__ == "__main__":
    main()
