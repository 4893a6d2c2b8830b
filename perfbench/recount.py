"""Run the traced workload twice at one seed and compare its exact counts.

    python3 perfbench/recount.py --workload paper-cold --seed 5 --seconds 30

The calls of every traced function, the DNF cubes and every memo table's
hits and misses must be the same in both runs: they depend on the seed
(the stream and the hash seed), never on timing.  The script prints both
runs' counts side by side with their tracing overhead and elapsed time, and
exits 1 when a count differs or a run is not correct.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import invoke


def traced_run(workload: str, seed: int, seconds: int) -> dict:
    started = time.monotonic()
    result, record = invoke(workload, seed, seconds, 1)
    trace = record["trace"]
    return {
        "correct": result["correct"],
        "elapsed_s": time.monotonic() - started,
        "overhead_s": trace["metrics"]["trace.overhead_s"],
        "counts": {
            "function_calls": trace["function_calls"],
            "formulas.dnf.cubes": trace["metrics"]["formulas.dnf.cubes"],
            "memo": trace["memo"],
        },
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    arguments = parser.parse_args(argv)
    first, second = (
        traced_run(arguments.workload, arguments.seed, arguments.seconds) for _ in range(2)
    )
    identical = first["counts"] == second["counts"]
    print(
        json.dumps(
            {"workload": arguments.workload, "seed": arguments.seed,
             "identical_counts": identical, "runs": [first, second]},
            indent=1,
        )
    )
    return 0 if identical and first["correct"] and second["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
