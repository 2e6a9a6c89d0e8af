"""qsusy benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload suite-all --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 7          # every workload

Every pass runs in a fresh interpreter (``worker.py``), one at a time, with
one BLAS thread: qsusy keeps module-global caches that would turn an
in-process repeat into cache hits, while every CLI user pays for a cold start.

``--trace 0`` first times ``SETUP_PROBES`` cold imports, then repeats whole
passes until ``--seconds`` have elapsed (at least one pass; a pass is not
started when the median pass so far would end past the limit), and reports
medians.  ``--trace 1`` makes one untraced and two traced passes, reports the
per-layer metrics and the tracing overhead, and requires every count to
repeat exactly between the two traced passes.

End-to-end times are scaled to the reference speed of ``speed.py``; the raw
medians are printed among the notes.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from tracing import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 9
# Every run must exit within 180 s; no child may outlive this budget.
BUDGET_S = 170.0
SUITE_NAMES = ("families", "construction", "commutators", "lie-closure",
               "monomial", "models", "x2", "spectrum")

END_TO_END_UNITS = {
    "wall_s": "s", "checks_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MB", "correct_share": "share",
}
PER_LAYER_UNITS = {
    "expr.evaluate.calls": "count", "expr.evaluate.self_s": "s",
    "expr.evaluate_exact.calls": "count", "expr.evaluate_exact.self_s": "s",
    "invariance.safe_points.calls": "count", "invariance.safe_points.self_s": "s",
    "invariance.safe_points.evals_per_point": "ratio",
    "invariance.check_invariant.s": "s", "invariance.check_annihilates.s": "s",
    "invariance.ops_equal_numeric.s": "s",
    "linalg.calls": "count", "linalg.s": "s",
    "diffop.build_s": "s", "families.build_s": "s", "x2.build_s": "s",
    "models.build_s": "s",
    "numerics.fd_spectrum.calls": "count", "numerics.fd_spectrum.s": "s",
    "numerics.eigh_s": "s", "numerics.nodes": "count",
    "x2.verify_x2_identities.s": "s", "x2.exact_fallbacks": "count",
    **{f"suites.{name}.s": "s" for name in SUITE_NAMES},
    "trace.overhead_s": "s", "trace.spans": "count",
}


class ChildError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # one process, no extra threads; a fixed hash seed keeps counts repeatable
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(mode: str, workload: str, seed: int, deadline: float,
           spans: Path | None = None) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildError("time budget exhausted")
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, workload, str(seed)]
    extra = [str(spans)] if spans is not None else []
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(spawned)] + extra, cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} pass of {workload} did not finish in time") from None
    if proc.returncode != 0:
        raise ChildError(f"{mode} pass of {workload} exited with "
                         f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["elapsed_s"] = time.monotonic() - spawned
    return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float) -> dict:
    deadline = time.monotonic() + BUDGET_S
    _child("setup", workload, seed, deadline)  # warm-up: bytecode, file cache
    setups = [_child("setup", workload, seed, deadline)
              for _ in range(SETUP_PROBES)]
    passes = []
    measure_end = time.monotonic() + seconds
    while True:
        p = _child("run", workload, seed, deadline)
        passes.append(p)
        setups.append(p)
        typical = statistics.median(q["elapsed_s"] for q in passes)
        if time.monotonic() + typical > min(measure_end, deadline):
            break
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)

    def median(key, rows=passes):
        return statistics.median(r[key] for r in rows)

    metrics = {
        "wall_s": median("wall_s"),
        "checks_per_s": statistics.median(p["attempted"] / p["wall_s"] for p in passes),
        "setup_s": median("setup_s", setups),
        "peak_rss_mb": median("rss_mb"),
        "correct_share": (attempted - failed) / attempted,
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        "notes": {"passes": len(passes), "setup_samples": len(setups),
                  "wall_raw_s": median("wall_raw_s"), "scale": median("scale"),
                  "setup_raw_s": median("setup_raw_s", setups),
                  "failed_share": failed / attempted,
                  "failed_ids": sorted({f for p in passes for f in p["failed"]})[:20],
                  "extra": passes[0]["extra"]},
    }


def measure_traced(workload: str, seed: int) -> dict:
    deadline = time.monotonic() + BUDGET_S
    OUT.mkdir(exist_ok=True)
    _child("setup", workload, seed, deadline)
    plain = _child("run", workload, seed, deadline)
    traced = [_child("trace", workload, seed, deadline, spans=OUT / f"{workload}.spans{k}.npz")
              for k in (1, 2)]
    first, second = (t["layers"] for t in traced)
    unstable = {m: (first[m], second[m]) for m in COUNT_METRICS if first[m] != second[m]}
    layers = {}
    for name in first:
        values = [t["layers"][name] for t in traced]
        layers[name] = values[0] if name in COUNT_METRICS else statistics.median(values)
    for name in SUITE_NAMES:
        layers[f"suites.{name}.s"] = plain["windows_s"].get(name, 0.0)
    layers["trace.overhead_s"] = (statistics.median(t["wall_raw_s"] for t in traced)
                                  - plain["wall_raw_s"])
    runs = [plain] + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["failed"]) for r in runs)
    return {
        "correct": failed == 0 and not unstable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: _metric(layers[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS},
        "notes": {"unrepeated_counts": unstable, "untraced_wall_raw_s": plain["wall_raw_s"],
                  "traced_wall_raw_s": [t["wall_raw_s"] for t in traced],
                  "extra": plain["extra"]},
    }


def _print_human(workload: str, result: dict):
    print(f"# {workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}")
    for key, value in result["notes"].items():
        print(f"{workload}  ({key}: {json.dumps(value)})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qsusy" / "__init__.py").is_file():
        print(f"no qsusy sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = (measure_traced(name, args.seed) if args.trace
                             else measure(name, args.seed, args.seconds))
            _print_human(name, results[name])
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps({k: final[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
