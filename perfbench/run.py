"""Benchmark of the `knnmem` package, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`
there. Workloads: train_m7, serve_m7, index_bm25, train_marker (see
`workloads.py` and `README.md`). Each process runs one workload, so
`peak_rss_mb` is that workload's own high-water mark.

Standard output gives a header, the environment stamp, the workload's
figures under their own names, and last one JSON object with `correct`,
`attempted`, `failed` and `metrics`: with `--trace 0` the end-to-end
metrics, with `--trace 1` the per-layer metrics of a traced run. A failed
output check makes `correct` false and the exit code 1. Without `src/knnmem`
the run stops with exit code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = len(os.sched_getaffinity(0))
# Fixed before numpy loads: BLAS may use every core the process has, no more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

WORK_DIR = ROOT / ".bench_work"


def _parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    import subprocess
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import platform

    import numpy as np
    from knnmem import autodiff

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": BLAS_THREADS,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "float_bits": 8 * np.dtype(autodiff.get_default_dtype()).itemsize,
        "git_commit": _git_commit(),
    }


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def main(argv=None) -> int:
    if not (ROOT / "src" / "knnmem" / "__init__.py").is_file():
        print(f"error: no knnmem package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import json
    import shutil
    import statistics

    from trace_spans import Tracer, layer_metrics
    from workloads import WORKLOADS, Run

    args = _parse_args(argv, WORKLOADS)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    run = Run(seed=args.seed, seconds=args.seconds, workdir=workdir,
              tracer=Tracer() if args.trace else None)
    try:
        report = WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    if run.tracer:
        run.tracer.write(WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        for problem in run.tracer.mismatches:
            run.check(False, problem)
        metrics = layer_metrics(run.tracer, run.overheads[0])
    else:
        metrics = dict(report.metrics, setup_s=(statistics.median(run.setup_times), "s"),
                       peak_rss_mb=(_peak_rss_mb(), "MB"))
        for name, (value, unit) in report.named.items():
            print(f"{name} {value:.6g} {unit}")
        print(f"setup_runs {len(run.setup_times)} count")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for problem in run.failures:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
