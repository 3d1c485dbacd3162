"""Benchmark of the ``fedlora-dp`` command line, one workload per invocation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats one closed-loop job, ``fedlora-dp <mode> --seed N`` in a fresh
process with the workload's config, until the next job would end after S
seconds (at least three jobs).  Every job's outputs are checked and
digested.  ``--trace 0`` prints the end-to-end metrics, each the median over
the run's passing jobs; ``--trace 1`` alternates untraced and traced jobs
and prints the per-layer metrics of ``layers.py``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

Without the program's source under ``src/`` the benchmark prints no result
and exits with code 2.
"""

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

from layers import LAYER_METRICS, combine_jobs, job_layer_values  # noqa: E402
from tracer import Spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# name, unit, better; BENCHMARK.json lists the same.  Each value is the median
# over the run's passing jobs.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
BLAS_THREADS = 1  # jobs run one at a time; one thread never exceeds nproc on any box
MIN_JOBS = 3
JOB_TIMEOUT_S = 30
MAX_LOOP_S = 100  # with a last pair of jobs at their timeout, a run still ends within 180 s


@dataclass
class Job:
    """Timings, checks and trace of one job."""

    problems: list[str] = field(default_factory=list)
    wall_s: float = math.nan
    setup_s: float = math.nan
    work_per_s: float = math.nan
    peak_rss_mb: float = math.nan
    digest: str | None = None
    layers: dict[str, float] | None = None


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "FEDLORA_DP_SEED"}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_job(workload: Workload, seed: int, job_dir: Path, trace: bool) -> Job:
    """Run one job in a fresh process, then check and digest its outputs."""
    job_dir.mkdir(parents=True)
    config_path = job_dir / "workload.cfg"
    config_path.write_text(workload.config_text())
    result_path = job_dir / "job.json"
    spans_path = job_dir / "spans.npz"
    cmd = [sys.executable, str(HERE / "job.py")]
    if trace:
        cmd += ["--trace", str(spans_path)]
    cmd += [workload.main_loop, str(result_path), "--", workload.mode, "--config", str(config_path),
            "--seed", str(seed), "--out", str(job_dir)]

    job = Job()
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        job.problems.append(f"job exceeded {JOB_TIMEOUT_S} s")
        return job
    end = time.monotonic()
    if proc.returncode != 0 or not result_path.is_file():
        job.problems.append(f"job exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return job
    result = json.loads(result_path.read_text())
    if result["exit_code"] != 0:
        job.problems.append(f"fedlora-dp {workload.mode} returned {result['exit_code']}: "
                            f"{proc.stderr.strip()[-500:]}")
    if result["first_call"] is None:
        job.problems.append(f"{workload.main_loop} was never called")
        return job

    job.wall_s = end - start
    job.setup_s = result["first_call"] - start
    job.work_per_s = workload.work() / (end - result["first_call"])
    job.peak_rss_mb = result["maxrss_kb"] / 1024
    run_dir = job_dir / workload.run_config().experiment_name
    try:
        job.problems += workload.check(run_dir)
        job.digest = workload.digest(run_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        job.problems.append(f"unreadable outputs: {exc!r}")
    if trace:
        job.layers = job_layer_values(Spans.load(spans_path))
    shutil.rmtree(job_dir)
    return job


def source_digest() -> str:
    """sha256 of the program's source files: identifies the code when no git commit is known."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(workload: Workload, seed: int) -> dict[str, object]:
    import numpy as np

    commit = None  # a checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload.name,
        "seed": seed,
        "commit": commit,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def check_digests(jobs: list[Job], workload: Workload, seed: int, source: str,
                  out_root: Path) -> list[str]:
    """Fail jobs whose digest differs from this code's digest for this seed.

    The reference is the digest an earlier run of the same source recorded,
    else the run's first job.  Digests of other sources are only reported.
    """
    store_path = out_root / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    config_sha = hashlib.sha256(workload.config_text().encode()).hexdigest()
    key = f"{workload.name}|seed={seed}|{config_sha}"
    by_source = store.setdefault(key, {})
    digests = [j.digest for j in jobs if j.digest is not None]
    if not digests:
        return []
    reference = by_source.setdefault(source, digests[0])
    for job in jobs:
        if job.digest is not None and job.digest != reference:
            job.problems.append(f"digest {job.digest} differs from {reference} "
                                "for this source and seed")
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)
    return [f"digest differs from source {other[:12]}: {d}"
            for other, d in by_source.items() if d != reference]


def median(values: list[float]) -> float:
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else math.nan


def bench(workload: Workload, seed: int, seconds: float, trace: bool, out_root: Path) -> dict:
    """One benchmark run; returns the result record."""
    compileall.compile_dir(SRC, quiet=1)
    run_root = out_root / workload.name
    shutil.rmtree(run_root, ignore_errors=True)
    env = environment(workload, seed)

    plain: list[Job] = []
    traced: list[Job] = []
    start = time.monotonic()
    while True:
        plain.append(run_job(workload, seed, run_root / f"job{len(plain)}", trace=False))
        if trace:
            traced.append(run_job(workload, seed, run_root / f"traced{len(traced)}", trace=True))
        elapsed = time.monotonic() - start
        if len(plain) >= MIN_JOBS and elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
        if elapsed > MAX_LOOP_S:
            break
    jobs = plain + traced
    notes = check_digests(jobs, workload, seed, env["source_sha256"], out_root)

    good = [j for j in plain if not j.problems] or plain
    values = {name: median([getattr(j, name) for j in good]) for name, _, _ in END_TO_END}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    if trace:
        good_traced = [j for j in traced if j.layers is not None]
        layer_values, mismatches = combine_jobs([j.layers for j in good_traced])
        for index, problem in mismatches:
            good_traced[index].problems.append(problem)
        traced_wall = median([j.wall_s for j in traced])
        layer_values["tracer.overhead_ratio"] = traced_wall / values["wall_s"]
        metrics = {m.name: {"value": layer_values.get(m.name, math.nan), "unit": m.unit}
                   for m in LAYER_METRICS}
        notes.append(f"wall_s untraced {values['wall_s']:.4f} s, traced {traced_wall:.4f} s")
    for metric in metrics.values():
        if not math.isfinite(metric["value"]):
            metric["value"] = None  # not measured: every job failed
    failed = sum(1 for j in jobs if j.problems)
    return {
        "env": env,
        "seconds": seconds,
        "trace": trace,
        "jobs": len(jobs),
        "e2e": values,
        "per_job": [{name: getattr(j, name) for name, _, _ in END_TO_END} for j in plain],
        "digests": sorted({j.digest for j in jobs if j.digest}),
        "problems": [p for j in jobs for p in j.problems],
        "notes": notes,
        "result": {
            "correct": failed == 0 and all(m["value"] is not None for m in metrics.values()),
            "attempted": len(jobs),
            "failed": failed,
            "metrics": metrics,
        },
    }


def report(workload: Workload, record: dict) -> None:
    """Human-readable lines; the JSON result is printed after them."""
    result = record["result"]
    print(f"perfbench {workload.name}: fedlora-dp {workload.mode}, {record['jobs']} jobs "
          f"in {record['seconds']} s, trace {int(record['trace'])}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    labels = {"work_per_s": f"{workload.work_name} (work_per_s)"}
    for name, unit, _ in END_TO_END:
        print(f"{labels.get(name, name)} = {record['e2e'][name]:.6g} {unit}")
    rate = result["failed"] / result["attempted"]
    print(f"error_rate = {rate:.6g} ({result['failed']} of {result['attempted']} jobs)")
    if record["trace"]:
        for name, metric in result["metrics"].items():
            print(f"{name} = {metric['value']} {metric['unit']}")
    print("digest " + " ".join(record["digests"]))
    for line in record["notes"] + record["problems"]:
        print(line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "fedlora_dp" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC / 'fedlora_dp'}; run from a checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    record = bench(workload, args.seed, args.seconds, bool(args.trace), OUT_ROOT)
    results_dir = OUT_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    report(workload, record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
