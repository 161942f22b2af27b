"""pdmag benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload oracle-verify --seed 1 --seconds 10 --trace 0

Run from the repository root. The program is built from ``src/`` (byte
compilation) and imported from there. With ``--trace 0`` the last stdout
line carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a separate traced run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 3  # before and again after the timed loop
OUT_DIR = ROOT / ".perfbench_out"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build() -> None:
    """Byte-compile the program and the benchmark, so imports time the same
    on the first run of a checkout as on later ones."""
    if not (ROOT / "src" / "pdmag" / "__init__.py").is_file():
        _fail(f"no pdmag sources under {ROOT / 'src'}; run from a repository checkout")
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src/pdmag", "perfbench"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        _fail(f"byte compilation failed:\n{done.stdout}{done.stderr}")


def provenance(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    import numpy
    import scipy

    return {
        "seed": seed,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": THREAD_ENV,
    }


def setup_seconds(workload: str, seed: int, run_child) -> list:
    """Wall times of fresh interpreters that import pdmag, generate the
    inputs and run one warm-up operation."""
    argv = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        rc, _, err, seconds, _ = run_child(argv)
        if rc != 0:
            _fail(f"set-up probe exited {rc}:\n{err.decode('utf-8', 'replace')}")
        times.append(seconds)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle-verify", "closed-form-scan", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # BLAS/OpenMP pools are pinned before numpy is first imported, here and
    # in every child process (children inherit os.environ).
    os.environ.update(THREAD_ENV)

    if args.setup_only:
        import workloads as wl

        wl.setup(args.workload, args.seed)
        return 0

    build()
    import workloads as wl

    setup_times = [] if args.trace else setup_seconds(args.workload, args.seed, wl.run_child)
    stream = wl.setup(args.workload, args.seed)
    prov = provenance(args.seed)

    if args.trace:
        import layers

        metrics, out, extra = layers.traced_run(
            args.workload, args.seed, args.seconds, stream, OUT_DIR
        )
    else:
        out = wl.run_workload(args.workload, stream, args.seconds)
        # Probes on both sides of the loop, so that a slow spell of the host
        # weighs on setup_s no more than on the timed metrics.
        setup_times += setup_seconds(args.workload, args.seed, wl.run_child)
        metrics = wl.end_to_end(args.workload, out, statistics.median(setup_times))
        extra = {}

    print(json.dumps({"provenance": prov, "workload": args.workload, **extra}))
    for reason, count in out.reasons.most_common(10):
        print(f"# failed x{count}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": out.unchecked == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
