"""Regenerate Figure 3: the SV-COMP recursive cactus plot.

Run with:  python examples/svcomp_cactus.py [--limit N] [--fast] [--jobs N]

For each of the 17 recursive benchmarks the script runs this reproduction of
CHORA and the bounded-unrolling baseline through the batch engine, builds
the cactus series (cumulative time vs. number of benchmarks proved), and
prints them next to the proved-counts the paper reports for CHORA, ICRA,
Ultimate Automizer, UTaipan and VIAP (the external tools cannot be run
offline; see "Deviations from the paper's implementation" in
``docs/architecture.md``).

Caching is disabled here: the per-benchmark wall times *are* the data.
"""

import argparse
import dataclasses

from repro.benchlib import PAPER_FIG3_PROVED_COUNTS
from repro.benchlib.suites import get_suite
from repro.engine import AnalysisTask, BatchEngine
from repro.reporting import build_series, render_csv, render_text


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit", type=int, default=None, help="first N benchmarks")
    parser.add_argument(
        "--fast",
        action="store_true",
        help="only the representative fast subset (see repro.benchlib.suites)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; >1 speeds the sweep up but distorts the "
        "per-benchmark wall times the cactus series is made of",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="per-benchmark deadline in seconds, as a real tool run would use "
        "(timed-out benchmarks count as not proved); 0 disables it",
    )
    arguments = parser.parse_args()

    entries = get_suite("fig3").iter(full=not arguments.fast)
    if arguments.limit is not None:
        entries = entries[: arguments.limit]
    chora_tasks = [AnalysisTask.from_entry(e, suite="fig3") for e in entries]
    unroll_tasks = [
        dataclasses.replace(task, kind="assertion-unrolling", params=(("depth", 12),))
        for task in chora_tasks
    ]
    engine = BatchEngine(
        jobs=arguments.jobs, timeout=arguments.timeout or None, cache=None
    )
    results = engine.run(chora_tasks + unroll_tasks)

    def to_series(name, batch):
        return build_series(
            name, [(bool(r.proved) and r.ok, r.wall_time) for r in batch]
        )

    series = [
        to_series("CHORA", results[: len(entries)]),
        to_series("unrolling", results[len(entries):]),
    ]
    print(render_text(series))
    print()
    print("Paper's proved counts:", PAPER_FIG3_PROVED_COUNTS)
    print()
    print(render_csv(series))


if __name__ == "__main__":
    main()
