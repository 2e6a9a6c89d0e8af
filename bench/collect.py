"""Run the benchmark once per seed and summarise every metric.

    python3 bench/collect.py --workloads suite-all,x2-exact,fd-grid \
        --seeds 1-10 --trace 0 --out bench/out/summary.json

Runs are sequential.  For each workload and metric the summary holds every
value, the median, the quartiles from ``statistics.quantiles(values, n=4)``
and ``spread``: the distance between the quartiles as a share of the median,
the number that a metric's bound in ``BENCHMARK.json`` is compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(SECONDS),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent)
            if proc.returncode != 0:
                print(f"{workload} seed {seed} failed: {proc.stderr.strip()}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(workload, seed, result["correct"],
                  {k: round(m["value"], 4) for k, m in result["metrics"].items()},
                  flush=True)
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        summary[workload] = {
            "seeds": _seeds(args.seeds),
            "all_correct": all(r["correct"] for r in runs),
            "unit": {k: m["unit"] for k, m in runs[0]["metrics"].items()},
            "metrics": metrics,
        }
        for name, s in metrics.items():
            print(f"{workload:10s} {name:40s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
