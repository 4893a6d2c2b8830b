"""Run a workload under several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload service-edit --seeds 1-10 --seconds 30

The spread of a metric is the distance between the first and third quartile
of its values (``statistics.quantiles(values, n=4)``) as a share of their
median.  It is reported twice: for the calibrated values the benchmark
prints, and for the same runs' raw values from the run records, which shows
what the burst calibration buys.  The summary is printed as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import invoke


def spread(values: list[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="a range such as 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    arguments = parser.parse_args(argv)

    calibrated: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    failures = 0
    for seed in seeds_of(arguments.seeds):
        result, record = invoke(arguments.workload, seed, arguments.seconds, 0)
        failures += result["failed"]
        for name, metric in result["metrics"].items():
            calibrated.setdefault(name, []).append(metric["value"])
            raw.setdefault(name, []).append(record["raw_metrics"][name])
        print(f"seed {seed}: {json.dumps(result)}", file=sys.stderr, flush=True)

    summary = {
        "workload": arguments.workload,
        "seeds": arguments.seeds,
        "seconds": arguments.seconds,
        "failed": failures,
        "metrics": {
            name: {
                "median": statistics.median(values),
                "spread": spread(values),
                "raw_median": statistics.median(raw[name]),
                "raw_spread": spread(raw[name]),
                "values": values,
            }
            for name, values in calibrated.items()
        },
    }
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
