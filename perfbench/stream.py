"""The seeded service-edit request stream: hits, edits and renames.

Everything here is plain text manipulation owned by the benchmark, so a
change to ``repro`` (its fuzz generator or pretty-printer included) cannot
change the workload.  The stream is a whole number of rounds; one round
sends every fast row once in each class, in a seeded order:

* ``hit`` — the row's set-up request, byte for byte: the result cache
  answers it;
* ``edit`` — the row's program with a fresh, never-called helper procedure
  appended: the result cache misses, every existing SCC is spliced from the
  worker's incremental store and only the helper is analysed;
* ``rename`` — the row's program with every procedure name suffixed: the
  worker re-analyses every SCC, on memo tables warmed by the originals.

Neither transform changes what the program computes, so every request must
keep its source row's expected answer.  Because each round covers every
row in every class, each class's latencies come from the same programs under
every seed; a seed changes only the order, the helper bodies and the names.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

CLASSES = ("hit", "edit", "rename")

#: A top-level procedure definition: ``int name(`` or ``void name(``.
_DEFINITION = re.compile(r"^(?:int|void)\s+(\w+)\s*\(", re.MULTILINE)


@dataclass(frozen=True)
class Request:
    """One request of the stream: its class, source row and JSON body."""

    kind: str
    row: str
    document: Mapping[str, Any]


def setup_document(task: Any) -> dict[str, Any]:
    """The ``POST /v1/analyze`` body that submits a row unchanged."""
    return {
        "name": task.name,
        "source": task.source,
        "kind": task.kind,
        "procedure": task.procedure,
        "cost_variable": task.cost_variable,
        "substitutions": dict(task.substitutions),
    }


def renamed(document: Mapping[str, Any], suffix: str) -> dict[str, Any]:
    """``document`` with every procedure (definitions, calls, target) suffixed."""
    names = _DEFINITION.findall(document["source"])
    call_or_definition = re.compile(
        r"\b(" + "|".join(map(re.escape, names)) + r")\b(?=\s*\()"
    )
    renamed_document = dict(document)
    renamed_document["source"] = call_or_definition.sub(
        lambda match: match.group(1) + suffix, document["source"]
    )
    if document.get("procedure"):
        renamed_document["procedure"] = document["procedure"] + suffix
    return renamed_document


def with_helper(document: Mapping[str, Any], name: str, rng: random.Random) -> dict[str, Any]:
    """``document`` with an uncalled helper procedure ``name`` appended."""
    scale, shift, limit = rng.randint(2, 9), rng.randint(0, 99), rng.randint(0, 99)
    helper = (
        f"int {name}(int x) {{\n"
        f"    int y = x * {scale} + {shift};\n"
        f"    if (y > {limit}) {{ y = y - {scale}; }}\n"
        f"    return y;\n"
        f"}}\n"
    )
    edited = dict(document)
    edited["source"] = document["source"].rstrip("\n") + "\n" + helper
    return edited


def build_stream(
    originals: Mapping[str, Mapping[str, Any]], rounds: int, seed: int
) -> list[Request]:
    """``rounds`` rounds over the rows of ``originals`` (key -> set-up body)."""
    rng = random.Random(seed)
    pairs: list[tuple[str, str]] = []
    for _ in range(rounds):
        round_pairs = [(kind, row) for kind in CLASSES for row in sorted(originals)]
        rng.shuffle(round_pairs)
        pairs.extend(round_pairs)
    stream = []
    for index, (kind, row) in enumerate(pairs):
        document = originals[row]
        if kind == "edit":
            document = with_helper(document, f"helper_{index}", rng)
        elif kind == "rename":
            document = renamed(document, f"_v{index}")
        stream.append(Request(kind, row, document))
    return stream


def class_counts(stream: Sequence[Request]) -> dict[str, int]:
    return {kind: sum(request.kind == kind for request in stream) for kind in CLASSES}
