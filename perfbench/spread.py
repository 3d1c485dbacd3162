"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 10 [--workloads fl_small,mia_game] [--out FILE]

Runs ``run.py --trace 0`` once per seed and workload, workloads interleaved,
with ``run_seconds`` from ``BENCHMARK.json``.  For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread (q3 - q1) / median next to the metric's bound, and marks a spread
at or above a third of the bound.  ``--out`` writes all of it as JSON, with
the environment record of each workload's last run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            result = run_once(workload, seed, spec["run_seconds"])
            runs[workload].append(result)
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  + ", ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)

    report = {}
    for workload in workloads:
        env = json.loads((ROOT / ".perfbench_out" / "results" /
                          f"{workload}-seed{seeds[-1]}-trace0.json").read_text())["env"]
        report[workload] = {"correct": all(r["correct"] for r in runs[workload]), "env": env,
                            "metrics": {}}
        for metric in spec["end_to_end"]:
            stats = summarize([r["metrics"][metric["name"]]["value"] for r in runs[workload]])
            stats["bound"] = metric["bound"]
            report[workload]["metrics"][metric["name"]] = stats
            flag = "" if stats["spread"] < metric["bound"] / 3 else "  <-- at or above bound/3"
            print(f"{workload:12s} {metric['name']:12s} median {stats['median']:.5g} "
                  f"q1 {stats['q1']:.5g} q3 {stats['q3']:.5g} spread {stats['spread']:.4f} "
                  f"bound {metric['bound']}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({"seeds": list(seeds), "workloads": report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
