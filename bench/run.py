"""bellforge benchmark: fixed CLI job lists run as fresh processes.

    python3 bench/run.py --workload pbt-sweep|certify|cc-search \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  One client runs the workload's jobs one
after another (a closed loop), each as a fresh `python -m bellforge ...`
process, and checks every report (see check.py).  Every job runs once;
then each job runs again while its median time still fits in `--seconds`.

--trace 0 reports the end-to-end metrics, from per-job medians:
  wall_s       sum of the jobs' median wall times (imports included)
  cpu_s        sum of the jobs' median user + system CPU times
  peak_rss_mb  largest median peak RSS of any single job
  setup_s      median time of a fresh `python -c "import bellforge"`,
               over imports before and after the jobs
--trace 1 runs the list once untraced and once through traced.py and
reports the per-layer metrics (see layers.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 2 means the benchmark could not
start (for example, no bellforge sources next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy

from check import check_job
from layers import layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, build

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
SETUP_IMPORTS = 6  # timed imports before the jobs, and again after them
TWINS = ("certify_sampled_t1", "certify_sampled_t2")


@dataclass
class JobRun:
    """One finished child process and what the checker found."""
    job: object
    wall: float
    cpu: float
    rss_mb: float
    report: str
    problems: list[str]


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.update(extra or {})
    return env


def spawn(argv: list[str], env: dict, log: str) -> tuple[float, float,
                                                         float, int]:
    """Run one child to completion: (wall s, cpu s, peak RSS MB, exit code),
    with CPU and RSS from the child's own rusage."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


def import_seconds(work: str) -> float:
    """Wall time of one fresh-process `import bellforge`."""
    return spawn(["-c", "import bellforge"], child_env(),
                 os.path.join(work, "import.log"))[0]


def import_times(work: str) -> list[float]:
    return [import_seconds(work) for _ in range(SETUP_IMPORTS)]


def run_job(job, work: str, tag: str, seed: int,
            spans_dir: str | None = None) -> JobRun:
    """Run one job once; with `spans_dir`, through the traced wrapper."""
    argv = list(job.argv)
    report = argv[argv.index("--out") + 1]
    report = report.replace(".report.json", f".{tag}.report.json")
    argv[argv.index("--out") + 1] = report
    if spans_dir is not None:
        argv = [os.path.join(HERE, "traced.py"),
                os.path.join(spans_dir, f"{job.name}.spans.json")] + argv[2:]
    log = os.path.join(work, f"{job.name}.{tag}.log")
    wall, cpu, rss, code = spawn(argv, child_env(job.env), log)
    problems = check_job(job, report, seed, DEFAULT_SEED, code)
    return JobRun(job, wall, cpu, rss, report, problems)


def check_twins(runs: list[JobRun]) -> None:
    """The sampled twins of one round must write byte-identical reports."""
    by_name = {r.job.name: r for r in runs}
    if all(t in by_name for t in TWINS):
        first, second = (by_name[t] for t in TWINS)
        if _read(first.report) != _read(second.report):
            second.problems.append("sampled report differs between "
                                   "BELLFORGE_THREADS=1 and 2")


def run_pass(jobs, work: str, tag: str, seed: int,
             spans_dir: str | None = None) -> list[JobRun]:
    """Run every job once; with `spans_dir`, through the traced wrapper."""
    runs = [run_job(job, work, tag, seed, spans_dir) for job in jobs]
    check_twins(runs)
    return runs


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def report_problems(runs: list[JobRun]) -> int:
    failed = 0
    for r in runs:
        if r.problems:
            failed += 1
            print(f"FAILED {r.job.name}: " + "; ".join(r.problems[:5]),
                  file=sys.stderr)
    return failed


def metadata() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy builds differ in what they expose
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "BELLFORGE_THREADS": os.environ.get("BELLFORGE_THREADS", "unset"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                                   "unset")}


def measure(jobs, work: str, seed: int, seconds: float):
    """End-to-end metrics from rounds over the job list within `seconds`.

    The first round runs every job.  Later rounds run each job again only
    if its median time so far still fits in what is left of `seconds`, so
    the cheap jobs of a list with one long job are sampled more often and
    the samples of every job are spread over the whole run.  Each metric is
    built from per-job medians, so one slow moment of the host moves one
    sample, not the result.  setup_s is the median of the imports timed
    before and after the jobs."""
    import_seconds(work)  # compile bytecode before anything is timed
    imports = import_times(work)
    samples: dict[str, list[JobRun]] = {job.name: [] for job in jobs}
    start = time.perf_counter()
    rounds = 0
    while True:
        runs = []
        for job in jobs:
            left = seconds - (time.perf_counter() - start)
            if rounds and statistics.median(
                    r.wall for r in samples[job.name]) > left:
                continue
            runs.append(run_job(job, work, f"p{rounds}", seed))
            samples[job.name].append(runs[-1])
        check_twins(runs)
        rounds += 1
        if not runs:
            break
    imports += import_times(work)
    for name, runs in samples.items():
        print(f"{name}: " + ", ".join(
            f"{r.wall:.3f}s/{r.rss_mb:.0f}MB" for r in runs))

    def per_job(field: str) -> list[float]:
        return [statistics.median(getattr(r, field) for r in runs)
                for runs in samples.values()]

    metrics = {"setup_s": (statistics.median(imports), "s"),
               "wall_s": (sum(per_job("wall")), "s"),
               "cpu_s": (sum(per_job("cpu")), "s"),
               "peak_rss_mb": (max(per_job("rss_mb")), "MB")}
    all_runs = [r for runs in samples.values() for r in runs]
    return metrics, all_runs


def trace(jobs, work: str, seed: int):
    """Per-layer metrics from one traced pass, against one untraced pass."""
    import_seconds(work)  # compile bytecode before anything is timed
    plain = run_pass(jobs, work, "plain", seed)
    spans_dir = os.path.join(work, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    traced = run_pass(jobs, work, "traced", seed, spans_dir)
    for p, t in zip(plain, traced):
        if _read(p.report) != _read(t.report):
            t.problems.append("traced report bytes differ from untraced")
    dumps = {}
    for t in traced:
        path = os.path.join(spans_dir, f"{t.job.name}.spans.json")
        try:
            with open(path, encoding="utf-8") as fh:
                dumps[t.job.name] = json.load(fh)
        except (OSError, ValueError) as e:
            t.problems.append(f"no span dump: {e}")
    metrics = layer_metrics(dumps, {r.job.name: r.wall for r in plain},
                            {r.job.name: r.wall for r in traced})
    return metrics, plain + traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (os.path.join("src", "bellforge", "cli.py"),
                           os.path.join("docs", "examples", "v1"))
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"error: bellforge sources not found next to the benchmark "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        jobs = build(args.workload, args.seed, os.path.relpath(work, ROOT))
        for k, v in metadata().items():
            print(f"# {k}: {v}")
        if args.trace:
            metrics, runs = trace(jobs, work, args.seed)
        else:
            metrics, runs = measure(jobs, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = report_problems(runs)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed / len(runs):.6g} frac "
          f"({failed} of {len(runs)} jobs)")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
