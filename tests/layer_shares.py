"""Layer shares of one benchmark workload, from a SIGPROF sampling profile.

    python tests/layer_shares.py --workload x2-exact [--seed 7] [--runs 1] [--json]

Each run is one pass of a ``bench/workloads.py`` workload in a fresh
interpreter.  ``setitimer(ITIMER_PROF)`` samples that process every
millisecond of its CPU time; a sample is charged to the innermost frame of
the ``qsusy`` package, or to ``fractions`` when a frame of that module is
innermost, and a comprehension, generator expression or lambda is charged to
the function around it.  ``expr.py`` is split by source position into the
constructors (node classes and the canonicalising constructors), the
rewriters and ``_diff1``, the exact evaluator's compiler (``_instruction``
and ``_term``), its run (``_value`` and ``evaluate_exact``) and the float
kernel; every other module is one layer.
A sample with no such frame on the stack (the workload's own code) is
``other``.  The shares of all runs are summed and printed with their sample
counts.  The timer acts on this process only; ``bench/`` is imported, never
written (no bytecode is saved).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
INTERVAL_S = 0.001
# expr.py's layers, each from the first line of the named definition on
EXPR_LAYERS = (("children", "expr: rewriters and _diff1"),
               ("_instruction", "expr: exact compiler"), ("_value", "expr: exact run"),
               ("Binding", "expr: kernel"))


def _expr_bounds():
    import inspect

    from qsusy import expr

    return [(inspect.getsourcelines(getattr(expr, name))[1], layer)
            for name, layer in EXPR_LAYERS]


def _layer(frame, pkg: str, bounds) -> str:
    while frame is not None:
        code = frame.f_code
        path = code.co_filename
        if path.startswith(pkg):
            while code.co_name.startswith("<") and code.co_name != "<module>":
                frame = frame.f_back  # a comprehension: the function around it
                code = frame.f_code
            module = os.path.splitext(os.path.basename(path))[0]
            if module != "expr":
                return module
            layer = "expr: constructors"
            for first, name in bounds:
                if code.co_firstlineno >= first:
                    layer = name
            return layer
        if path.endswith(os.sep + "fractions.py"):
            return "fractions"
        frame = frame.f_back
    return "other"


def profile_one(workload: str, seed: int) -> Counter:
    """The samples of one pass of the workload in this process, by layer."""
    sys.dont_write_bytecode = True  # bench/ is read, never written
    sys.path.insert(0, str(BENCH))
    import workloads

    import qsusy

    pkg = os.path.dirname(qsusy.__file__) + os.sep
    bounds = _expr_bounds()
    counts: Counter = Counter()

    def sample(signum, frame):
        counts[_layer(frame, pkg, bounds)] += 1

    signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        p = workloads.WORKLOADS[workload](seed)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
    if p.failed:
        raise SystemExit(f"{workload} failed {len(p.failed)} of {p.attempted} checks")
    return counts


def _run(workload: str, seed: int) -> Counter:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                          "--child"], env=env, capture_output=True, text=True, check=True)
    return Counter(json.loads(out.stdout))


def main(argv=None) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    import workloads  # the names only; each run imports it afresh

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--runs", type=int, default=1, help="fresh processes, one after another")
    ap.add_argument("--json", action="store_true", help="one JSON object: samples and shares")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(profile_one(args.workload, args.seed)))
        return 0
    counts: Counter = Counter()
    for _ in range(max(args.runs, 1)):
        counts.update(_run(args.workload, args.seed))
    total = sum(counts.values())
    if not total:
        print("no samples", file=sys.stderr)
        return 1
    shares = {k: 100 * n / total for k, n in counts.most_common()}
    if args.json:
        print(json.dumps({"workload": args.workload, "seed": args.seed, "runs": args.runs,
                          "samples": total, "counts": dict(counts), "shares": shares}))
        return 0
    print(f"{args.workload}, seed {args.seed}, {args.runs} run(s), {total} samples")
    for k, share in shares.items():
        print(f"  {k:28s} {share:5.1f}%  {counts[k]:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
