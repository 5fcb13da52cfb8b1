"""The `oneway` box sweep as a per-box loop, the way the CLI once ran it.

Each box gets its `OneWayStats` from a Python sum over the table's
support, and each (box, delta) one `nonlinear_bell_check`.  The CLI's
array sweep must report exactly what this loop reports.
"""

import math
from itertools import product

from bellforge.bell import OneWayStats, nonlinear_bell_check
from bellforge.cli import UsageError
from bellforge.serialize import is_json_int


def box_stats(t, flag, answer):
    p_a = 0.0
    hit = 0.0
    for x, y in t.support():
        if flag[x]:
            p_a += t.mu[x, y]
            if answer[y] == t.f[x, y]:
                hit += t.mu[x, y]
    p_b = hit / p_a if p_a > 0 else 0.5
    return OneWayStats(p_a=p_a, p_b=p_b, truth=t)


def sweep_boxes(t, doc):
    size = t.num_inputs
    boxes = doc.get("boxes")
    if boxes == "deterministic":
        for flag in product((0, 1), repeat=size):
            for answer in product((0, 1), repeat=size):
                yield flag, answer
        return
    for i, box in enumerate(boxes):
        box = box if isinstance(box, dict) else {}
        flag, answer = box.get("flag"), box.get("answer")
        if not (isinstance(flag, list) and isinstance(answer, list)
                and len(flag) == size and len(answer) == size
                and all(is_json_int(v) and v in (0, 1) for v in flag + answer)):
            raise UsageError(f"sweep box {i} needs 0/1 lists of length "
                             f"{size} for flag and answer")
        yield tuple(flag), tuple(answer)


def run_sweep(t, doc, sweep_deltas, oracle):
    count = 0
    failures = 0
    worst = math.inf
    for flag, answer in sweep_boxes(t, doc):
        stats = box_stats(t, flag, answer)
        count += 1
        for delta in sweep_deltas:
            chk = nonlinear_bell_check(stats, float(delta), oracle)
            margin = chk.lhs_bits - chk.rhs_bits
            worst = min(worst, margin)
            if not chk.holds:
                failures += 1
    return {"boxes": count, "deltas": [float(d) for d in sweep_deltas],
            "failures": failures, "all_hold": failures == 0,
            "worst_margin_bits": worst, "method": "cc_derived"}
