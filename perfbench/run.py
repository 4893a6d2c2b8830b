"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it analyses the ``repro`` package under
``src/`` of that checkout, so a directory without one is refused (exit 2).
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` also runs the traced replay and prints the per-layer metrics.
Every time is in calibrated seconds (see ``calibrate.py``).  The run record
(raw seconds, burst factors, metrics, spans) goes to
``.perfbench/records/<workload>-s<seed>-t<trace>.json``.

The workload and everything it sends are made from ``--seed``, and so is the
``PYTHONHASHSEED`` every process of the run uses: the script re-executes
itself under it, so the forks and services it starts inherit it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-cold", "service-edit")


def hash_seed(seed: int) -> str:
    """The ``PYTHONHASHSEED`` of a workload seed (its valid range is 0..2**32-1)."""
    return str(seed % 2**32)


def record_path(workload: str, seed: int, trace: int) -> Path:
    """Where a run leaves its record (raw seconds, factors, metrics, spans)."""
    return ROOT / ".perfbench" / "records" / f"{workload}-s{seed}-t{trace}.json"


def invoke(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Run the benchmark in a fresh process; return its result line and record."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    return result, json.loads(record_path(workload, seed, trace).read_text())


def parse_arguments(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    arguments = parser.parse_args(argv)
    if arguments.seconds < 1:
        parser.error("--seconds must be at least 1")
    return arguments


def main(argv: list[str]) -> int:
    arguments = parse_arguments(argv)
    source = ROOT / "src"
    if not (source / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro package under {source}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != hash_seed(arguments.seed):
        os.execve(
            sys.executable,
            [sys.executable, str(HERE / "run.py"), *argv],
            {**os.environ, "PYTHONHASHSEED": hash_seed(arguments.seed)},
        )

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if arguments.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}

    sys.path.insert(0, str(source))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(source), env.get("PYTHONPATH")]))
    # Compile once up front, so no timed interpreter pays for bytecode.
    compileall.compile_dir(str(source / "repro"), quiet=1)

    if arguments.workload == "paper-cold":
        import paper_cold as workload
    else:
        import service_edit as workload
    name = f"{arguments.workload}-s{arguments.seed}-t{arguments.trace}"
    workdir = ROOT / ".perfbench" / "work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report = workload.run(
            arguments.seed, arguments.seconds, bool(arguments.trace), env, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = report["trace"]["metrics"] if arguments.trace else report["metrics"]
    if set(metrics) != set(units):
        print(
            f"perfbench: the run measured {sorted(metrics)}, BENCHMARK.json"
            f" declares {sorted(units)}",
            file=sys.stderr,
        )
        return 3
    path = record_path(arguments.workload, arguments.seed, arguments.trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": arguments.workload,
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "trace": arguments.trace,
        "python_hash_seed": os.environ["PYTHONHASHSEED"],
        **report,
    }
    path.write_text(json.dumps(record, sort_keys=True))
    for check in report["checks"]:
        print(f"perfbench: {check}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    metric: {"value": metrics[metric], "unit": units[metric]}
                    for metric in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
