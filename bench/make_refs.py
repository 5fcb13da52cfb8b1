"""Regenerate the stored reference results in bench/refs/.

    python3 bench/make_refs.py [workload ...]

Runs every job of the named workloads (default: all) once at the default
seed, stores each report's `results` and `warnings` as refs/<job>.json,
then checks the fresh reports against the independent references in
check.py and prints any problem.  Regenerate only when a change is meant
to move results by more than check.ATOL, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import check
import run
import workloads


def main(names: list[str]) -> int:
    os.chdir(run.ROOT)
    work = os.path.join(run.WORK, f"refs-{os.getpid()}")
    os.makedirs(work)
    os.makedirs(check.REFS, exist_ok=True)
    bad = 0
    try:
        for workload in names or workloads.WORKLOADS:
            jobs = workloads.build(workload, workloads.DEFAULT_SEED,
                                   os.path.relpath(work, run.ROOT))
            for job in jobs:
                out = job.argv[list(job.argv).index("--out") + 1]
                code = run.spawn(list(job.argv), run.child_env(job.env),
                                 os.path.join(work, f"{job.name}.log"))[3]
                if code != 0:
                    print(f"{job.name}: exit code {code}")
                    bad += 1
                    continue
                with open(out, encoding="utf-8") as fh:
                    report = json.load(fh)
                with open(os.path.join(check.REFS, f"{job.name}.json"), "w",
                          encoding="utf-8") as fh:
                    json.dump({"results": report["results"],
                               "warnings": report["warnings"]}, fh,
                              sort_keys=True, indent=1)
                    fh.write("\n")
                check.reference.cache_clear()
                problems = check.check_job(job, out, workloads.DEFAULT_SEED,
                                           workloads.DEFAULT_SEED, code)
                print(f"{job.name}: " + ("ok" if not problems
                                         else "; ".join(problems)))
                bad += bool(problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
