"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload train-genieblue --seed 1 --seconds 12 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` makes a separate traced run of the same
work and prints the per-layer metrics. Per-layer times and counts are per
optimizer step (train-*) or per request (serve-*), except
``adaptation.build_ms`` and ``data.synth_ms`` (per setup) and
``training.overhead_ms`` (per ``run_stage`` call).

The next-to-last line of standard output is a JSON record of the run: the
environment, the seed, the sample counts behind each percentile, why the
workload was chosen, and notes on any failed check. The last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import ctypes
import json
import os
import platform
import sys
from pathlib import Path

# one BLAS thread: on a 2-core machine it measured as fast as two, with far
# less spread; it must be set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
M_TRIM_THRESHOLD, M_TOP_PAD, M_MMAP_THRESHOLD = -1, -2, -3


def keep_freed_memory() -> bool:
    """Make glibc malloc keep freed memory rather than hand it back to the OS.

    A training step allocates and frees ~140 MB of tape arrays. By default
    each step then faults those pages in again, which in a small VM cost
    ~10% of the run in system time and made step times swing far more from
    run to run. Returns False where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    settings = ((M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 1 << 30), (M_TOP_PAD, 64 << 20))
    return all(mallopt(option, value) == 1 for option, value in settings)


def environment(allocator_tuned: bool) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "malloc_keeps_freed_memory": allocator_tuned,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def result_line(spec: dict, outcome, trace: bool) -> dict:
    """The result object: every metric BENCHMARK.json names for the mode, with its unit."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": float(outcome.metrics[m["name"]]), "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(whys))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "genieblue").is_dir():
        parser.error(f"no program source at {ROOT / 'src' / 'genieblue'}; run from a full checkout")
    allocator_tuned = keep_freed_memory()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    record = {
        "workload": args.workload,
        "why": whys[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(allocator_tuned),
        **outcome.detail,
    }
    print(json.dumps(record))
    print(json.dumps(result_line(spec, outcome, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
