"""One benchmark pass in a fresh interpreter; ``run.py`` starts it.

    python3 bench/worker.py MODE WORKLOAD SEED SPAWN_TIME [SPANS_PATH]

MODE is ``setup`` (import only), ``run`` (one untraced pass) or ``trace`` (one
traced pass, spans written to SPANS_PATH).  SPAWN_TIME is the parent's
``time.monotonic()`` just before it started this process; the clock is shared
by all processes on Linux, so the set-up time covers interpreter start-up
plus the import of qsusy with numpy and scipy.  The result is one JSON line on stdout.

Times named ``*_raw_s`` are as measured; the others are scaled to the
reference speed of ``speed.py``.  A traced pass runs without the speed probe,
so its span times are raw.
"""

import sys
import time

mode, workload = sys.argv[1], sys.argv[2]
seed, spawned = int(sys.argv[3]), float(sys.argv[4])

import qsusy.cli  # noqa: E402,F401 - imports every layer, numpy and scipy.linalg

setup_raw_s = time.monotonic() - spawned

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_SLICES = 5


def main() -> int:
    if Path(qsusy.cli.__file__).resolve().parent.parent != SRC:
        print(f"qsusy was imported from {qsusy.cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    # the slices right after the import stand for the speed during it
    slice_s = statistics.fmean(speed.calibration_slice() for _ in range(SETUP_SLICES))
    result = {"setup_raw_s": setup_raw_s,
              "setup_s": setup_raw_s * speed.REFERENCE_SLICE_S / slice_s}
    if mode == "run":
        import workloads

        with speed.SpeedProbe() as probe:
            p = workloads.WORKLOADS[workload](seed)
        raw, scale = probe.window(p.start, p.end)
        windows = {name: probe.window(a, b) for name, (a, b) in
                   p.extra.pop("windows", {}).items()}
        result.update(wall_raw_s=raw, wall_s=raw * scale, scale=scale,
                      windows_s={k: r * f for k, (r, f) in windows.items()})
    elif mode == "trace":
        import workloads
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        p = workloads.WORKLOADS[workload](seed)
        result.update(wall_raw_s=p.end - p.start, layers=tracer.layer_metrics())
        tracer.save(sys.argv[5])
    if mode != "setup":
        result.update(attempted=p.attempted, failed=p.failed, extra=p.extra)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
