"""Determinism: results never depend on the hash seed or on warm state.

No verdict, bound or summary text may depend on hash order: set iteration
order changes with ``PYTHONHASHSEED``, and ordering terms by it once made
payloads differ between processes.  Once per module, every fast benchmark
row and every parseable minimized fuzz reproducer in ``tests/regression/fuzz``
(programs selected adversarially, not for tidiness) is analysed cold in two
child interpreters started concurrently with ``PYTHONHASHSEED=0`` and
``=1``.  The fuzz-corpus and suite tests require each program's payload to be
equal under both seeds, ``summaries`` included; the suite tests also compare
the rendered report tables.

The splice test replays the corpus through
:class:`~repro.core.incremental.IncrementalAnalyzer` and requires every
verdict and bound to match a cold run.  Summary texts are excluded there:
spliced summaries keep the fresh auxiliary symbols of the run that first
computed them, and no verdict, bound or table may depend on that numbering.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import ChoraOptions
from repro.core.incremental import IncrementalAnalyzer
from repro.engine import AnalysisTask, suite_tasks
from repro.engine.batch import BatchResult
from repro.engine.tasks import execute_task, set_program_analyzer
from repro.reporting.tables import render_table1, render_table2

SOURCE_ROOT = Path(__file__).resolve().parents[2] / "src"


def _parseable(path: Path) -> bool:
    """Reproducers pinned at parse time (e.g. the arity mismatch) have no
    analysis to compare."""
    from repro.lang import parse_program
    from repro.lang.parser import ParseError

    try:
        parse_program(path.read_text())
    except ParseError:
        return False
    return True


FUZZ_CORPUS = [
    path
    for path in sorted(
        (Path(__file__).parent.parent / "regression" / "fuzz").glob("*.c")
    )
    if _parseable(path)
]

#: Run by each child interpreter: analyse every fast suite row and every
#: corpus program (paths in argv) cold, then print one sorted-key document.
_CHILD = """
import json, sys
from pathlib import Path
from repro.engine import AnalysisTask, execute_task, suite_tasks
from repro.polyhedra.cache import clear_caches

tasks = [(f"{task.suite}/{task.name}", task) for task in suite_tasks("all", full=False)]
for path in map(Path, sys.argv[1:]):
    task = AnalysisTask(name=path.stem, source=path.read_text(), kind="analyze")
    tasks.append((f"fuzz/{path.stem}", task))
document = {}
for key, task in tasks:
    clear_caches(force=True)
    document[key] = execute_task(task)
print(json.dumps(document, sort_keys=True))
"""

#: Seconds each child may take; one pass takes well under a minute.
CHILD_TIMEOUT = 600


def _documents_under_hash_seeds(*seeds: int) -> list[dict]:
    children = []
    try:
        for seed in seeds:
            env = dict(
                os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SOURCE_ROOT)
            )
            children.append(
                subprocess.Popen(
                    [sys.executable, "-c", _CHILD, *map(str, FUZZ_CORPUS)],
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                )
            )
        documents = []
        for seed, child in zip(seeds, children):
            out, err = child.communicate(timeout=CHILD_TIMEOUT)
            assert child.returncode == 0, f"PYTHONHASHSEED={seed} child failed:\n{err}"
            documents.append(json.loads(out))
        return documents
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)


def _comparable(payload: dict) -> dict:
    """The payload minus the symbol-numbering-sensitive summary texts."""
    return {key: value for key, value in payload.items() if key != "summaries"}


def _corpus_task(path: Path) -> AnalysisTask:
    return AnalysisTask(name=path.stem, source=path.read_text(), kind="analyze")


@pytest.fixture(scope="module")
def hash_seed_documents() -> list[dict]:
    """The result documents of the ``PYTHONHASHSEED=0`` and ``=1`` children."""
    return _documents_under_hash_seeds(0, 1)


def _suite_results(document: dict, suite: str) -> list[BatchResult]:
    """One suite's rows of a child document, in suite order."""
    results = []
    for task in suite_tasks(suite, full=False):
        payload = document[f"{suite}/{task.name}"]
        results.append(
            BatchResult(
                name=task.name,
                kind=task.kind,
                outcome="ok",
                wall_time=0.0,
                suite=suite,
                proved=payload.get("proved"),
                bound=payload.get("bound"),
                payload=payload,
            )
        )
    return results


class TestFuzzCorpusDeterminism:
    @pytest.mark.parametrize(
        "path", FUZZ_CORPUS, ids=[path.stem for path in FUZZ_CORPUS]
    )
    def test_corpus_program_payloads_match_serial(self, path, hash_seed_documents):
        """The one serial walk gives each reproducer the same payload,
        summaries included, under either hash seed."""
        first, second = (
            document[f"fuzz/{path.stem}"] for document in hash_seed_documents
        )
        assert first == second, f"{path.stem} differs between hash seeds"


class TestSuiteDeterminism:
    def test_table2_payloads_and_rendered_table(self, hash_seed_documents):
        first, second = (
            _suite_results(document, "table2") for document in hash_seed_documents
        )
        assert [r.payload for r in first] == [r.payload for r in second]
        assert render_table2(first) == render_table2(second)

    def test_table1_and_fig3_sweep(self, hash_seed_documents):
        """Every fast Table-1 and Figure-3 row under both hash seeds."""
        for suite, render in (("table1", render_table1), ("fig3", None)):
            first, second = (
                _suite_results(document, suite) for document in hash_seed_documents
            )
            assert [r.payload for r in first] == [r.payload for r in second], (
                f"{suite} differs between hash seeds"
            )
            if render is not None:
                assert render(first) == render(second)


class TestIncrementalSpliceDeterminism:
    def test_corpus_through_incremental_analyzer(self):
        """A warm store must splice without changing verdicts: second runs
        answer every component from the store."""
        cold = {
            path.stem: _comparable(execute_task(_corpus_task(path), ChoraOptions()))
            for path in FUZZ_CORPUS
        }
        analyzer = IncrementalAnalyzer()
        previous = set_program_analyzer(analyzer.analyze)
        try:
            for repeat in range(2):
                for path in FUZZ_CORPUS:
                    payload = execute_task(_corpus_task(path), ChoraOptions())
                    assert _comparable(payload) == cold[path.stem], (
                        f"{path.stem} diverged on incremental run {repeat}"
                    )
                # Second pass over an unchanged program: nothing re-analysed.
                if repeat == 1:
                    assert analyzer.last_report.analyzed == ()
                    assert analyzer.last_report.reused
        finally:
            set_program_analyzer(previous)
