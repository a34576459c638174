"""Run one benchmark workload (or all four) and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload powerlaw-200k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every line but the last is for people: the workload's user-facing
metrics by name and unit, then ``meta {...}`` with the host, git sha,
seed, resolved backend and kernel. The last line is one JSON object
with exactly the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Each run also writes that record (and, when
traced, its spans as JSON lines) under ``perfbench/out/``.

The program is imported from ``src/`` of the same checkout; without it
the benchmark exits with status 1 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("powerlaw-200k", "gclr-20k", "service-stream", "churn-20k")


def _import_program() -> None:
    """Put this checkout's ``src/`` first on the path and import the program from it."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: the program source {package} is missing")
    # One process, at most two threads: keep any BLAS pool from adding more.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {package}")


def git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git; ``unknown`` outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, result) -> dict:
    import numpy

    from repro.utils.hardware import host_metadata

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_sha": git_sha(ROOT),
        "backend": result.info.get("backend"),
        "kernel": result.info.get("kernel"),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        **host_metadata(),
    }


def run_one(args) -> int:
    import workloads

    result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    final = {
        "correct": result.failed == 0,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }
    meta = metadata(args, result)
    # Operation count, output digests and, when traced, whether the traced
    # outputs matched the untraced ones.
    meta.update({key: result.info[key] for key in ("ops", "digest", "digests", "identical") if key in result.info})
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps({"meta": meta, "result": final}, indent=2) + "\n")
    if args.trace:
        result.info["recorder"].dump(OUT / f"{stem}-spans.jsonl")

    print(f"# {args.workload}  seed={args.seed}  trace={args.trace}")
    for line in result.report:
        print(line)
    if args.trace:
        for name, (value, unit) in result.metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(final))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stdout.write(completed.stdout)
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            return completed.returncode
        last = json.loads(completed.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="world sizes; 'tiny' is for the benchmark's self-tests",
    )
    args = parser.parse_args(argv)
    _import_program()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
