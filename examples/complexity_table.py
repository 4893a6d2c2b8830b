"""Regenerate Table 1: asymptotic complexity bounds on the benchmark suite.

Run with:  python examples/complexity_table.py [--full] [--jobs N]

Without ``--full`` only the benchmarks that analyse within a few seconds each
are run; ``--full`` runs all twelve rows (closest_pair is the slowest).
Each row shows the true bound, the bound found by this reproduction of
CHORA, the bound found by the ICRA-style baseline, and the bounds the paper
reports.

The rows run through the batch engine (``repro.engine.BatchEngine``): CHORA
and ICRA tasks execute concurrently in worker processes and results are
cached on disk, so a re-run of an unchanged table is near-instant.
"""

import argparse
import dataclasses

from repro.benchlib.suites import iter_suite
from repro.engine import AnalysisTask, BatchEngine, make_cache
from repro.reporting import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="run all twelve rows")
    parser.add_argument("--jobs", type=int, default=4, help="worker processes")
    parser.add_argument("--no-cache", action="store_true")
    arguments = parser.parse_args()

    entries = iter_suite("table1", full=arguments.full)
    chora_tasks = [AnalysisTask.from_entry(e, suite="table1") for e in entries]
    icra_tasks = [
        dataclasses.replace(task, kind="complexity-icra") for task in chora_tasks
    ]
    engine = BatchEngine(
        jobs=arguments.jobs, cache=make_cache(no_cache=arguments.no_cache)
    )
    results = engine.run(chora_tasks + icra_tasks)
    chora = {r.name: r for r in results[: len(chora_tasks)]}
    icra = {r.name: r for r in results[len(chora_tasks):]}

    rows = []
    for entry in iter_suite("table1", full=True):
        if entry.name not in chora:
            rows.append(
                [entry.name, entry.paper["actual"], "(skipped, use --full)", "-",
                 entry.paper["chora"], entry.paper["icra"], entry.paper["other"]]
            )
            continue
        first, second = chora[entry.name], icra[entry.name]
        verdict = first.bound if first.ok else first.outcome
        cached = ", cached" if first.cache_hit else ""
        rows.append(
            [
                entry.name,
                entry.paper["actual"],
                f"{verdict} ({first.wall_time:.1f}s{cached})",
                second.bound if second.ok else second.outcome,
                entry.paper["chora"],
                entry.paper["icra"],
                entry.paper["other"],
            ]
        )
    print(
        format_table(
            ["benchmark", "actual", "CHORA (this repo)", "ICRA (this repo)",
             "CHORA (paper)", "ICRA (paper)", "other tools (paper)"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
