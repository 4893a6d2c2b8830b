#!/usr/bin/env python3
"""Documentation staleness checker (CI's ``docs`` job, importable by tests).

Three classes of rot are detected across ``README.md`` and ``docs/*.md``:

* **Stale CLI invocations** — every ``repro <subcommand> ...`` line found
  in a fenced code block is checked against the real CLI: the subcommand
  must exist (its ``--help`` must succeed) and every ``--flag`` the docs
  show must appear in that subcommand's help text.  Renaming or removing
  a flag without updating the docs fails the job.
* **Stale HTTP routes** — every ``/v1/<name>`` the docs mention, in prose
  or code, must be a route ``repro serve`` mounts (a key of
  ``AnalysisServer.ROUTES``), so a deleted route cannot linger.
* **Broken intra-repo links** — every relative markdown link target must
  exist on disk (fragments are ignored; external ``http(s)://`` and
  ``mailto:`` links are not checked).

Run from the repository root::

    python tools/check_docs.py

Exit status 0 when the docs are clean, 1 otherwise (problems on stderr).
"""

from __future__ import annotations

import re
import shlex
import subprocess
import sys
from pathlib import Path
from typing import Callable, Collection, Iterator, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]

#: A ``--help`` runner: subcommand -> help text, or None when it failed.
HelpRunner = Callable[[str], Optional[str]]

_FENCE = re.compile(r"^(```|~~~)")
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_PROMPT = re.compile(r"^[\w.-]*\$\s+")
_FLAG = re.compile(r"^--[A-Za-z][A-Za-z-]*")
_ROUTE = re.compile(r"/v1/([A-Za-z_][\w-]*)")


def markdown_files(root: Path = REPO_ROOT) -> list[Path]:
    """README plus everything under docs/, deterministic order."""
    files = [root / "README.md"]
    files.extend(sorted((root / "docs").glob("**/*.md")))
    return [path for path in files if path.is_file()]


def code_block_lines(text: str) -> Iterator[str]:
    """Lines inside fenced code blocks."""
    inside = False
    for line in text.splitlines():
        if _FENCE.match(line.strip()):
            inside = not inside
            continue
        if inside:
            yield line


def cli_invocations(text: str) -> Iterator[tuple[str, list[str]]]:
    """``(subcommand, [--flags])`` for each ``repro`` line in code blocks.

    Handles shell prompts (``$ repro ...``, ``machine-1$ repro ...``) and
    ignores non-repro lines (curl, pytest, comments, JSON output).
    """
    for raw in code_block_lines(text):
        line = _PROMPT.sub("", raw.strip())
        if not line.startswith("repro "):
            continue
        line = line.split("#", 1)[0].strip()  # trailing comments
        try:
            words = shlex.split(line)
        except ValueError:
            words = line.split()
        if len(words) < 2:
            continue
        subcommand = words[1]
        if subcommand.startswith("-"):
            continue
        flags = []
        for word in words[2:]:
            match = _FLAG.match(word)
            if match:
                flags.append(match.group(0))
        yield subcommand, flags


def subprocess_help_runner(subcommand: str) -> Optional[str]:
    """The real CLI's help text for ``subcommand`` (None when it fails)."""
    completed = subprocess.run(
        [sys.executable, "-m", "repro", subcommand, "--help"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO_ROOT,
    )
    if completed.returncode != 0:
        return None
    return completed.stdout


def check_cli_invocations(
    help_runner: HelpRunner = subprocess_help_runner,
    root: Path = REPO_ROOT,
) -> list[str]:
    """Problems with documented ``repro`` invocations (empty when clean)."""
    problems: list[str] = []
    help_texts: dict[str, Optional[str]] = {}
    for path in markdown_files(root):
        relative = path.relative_to(root)
        for subcommand, flags in cli_invocations(path.read_text(encoding="utf-8")):
            if subcommand not in help_texts:
                help_texts[subcommand] = help_runner(subcommand)
            help_text = help_texts[subcommand]
            if help_text is None:
                problems.append(
                    f"{relative}: `repro {subcommand}` is not a working"
                    " subcommand (its --help fails)"
                )
                continue
            for flag in flags:
                if flag not in help_text:
                    problems.append(
                        f"{relative}: `repro {subcommand}` does not accept"
                        f" the documented flag {flag}"
                    )
    return problems


def served_routes() -> frozenset[str]:
    """The route names ``repro serve`` mounts under ``/v1/``."""
    from repro.service.server import AnalysisServer

    return frozenset(AnalysisServer.ROUTES)


def check_routes(
    routes: Optional[Collection[str]] = None, root: Path = REPO_ROOT
) -> list[str]:
    """Documented ``/v1/<name>`` routes that are not ``routes`` (empty when
    clean); ``routes`` defaults to what the service mounts."""
    if routes is None:
        routes = served_routes()
    problems: list[str] = []
    for path in markdown_files(root):
        relative = path.relative_to(root)
        documented = set(_ROUTE.findall(path.read_text(encoding="utf-8")))
        for name in sorted(documented - set(routes)):
            problems.append(
                f"{relative}: `/v1/{name}` is not a route of `repro serve`"
            )
    return problems


def check_links(root: Path = REPO_ROOT) -> list[str]:
    """Broken relative link targets (empty when clean)."""
    problems: list[str] = []
    for path in markdown_files(root):
        relative = path.relative_to(root)
        for match in _LINK.finditer(path.read_text(encoding="utf-8")):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                problems.append(f"{relative}: broken link -> {target}")
    return problems


def main() -> int:
    problems = check_links() + check_cli_invocations() + check_routes()
    for problem in problems:
        print(f"DOCS: {problem}", file=sys.stderr)
    if not problems:
        checked = ", ".join(str(p.relative_to(REPO_ROOT)) for p in markdown_files())
        print(f"docs ok ({checked})")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
