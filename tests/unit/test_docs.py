"""The documentation layer stays truthful.

Runs the same checks as CI's ``docs`` job (``tools/check_docs.py``), with
an in-process ``--help`` runner so the fast suite doesn't fork a Python
per subcommand: every ``repro`` invocation shown in README/docs must name
a real subcommand and only flags that subcommand accepts, every ``/v1/``
route they mention must be served, and every relative markdown link must
resolve.
"""

import sys
from pathlib import Path
from typing import Optional


REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402

from repro.cli import build_parser  # noqa: E402


def in_process_help(subcommand: str) -> Optional[str]:
    """Format a subparser's help without forking (mirrors `repro X --help`)."""
    parser = build_parser()
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        subparser = action.choices.get(subcommand)
        if subparser is not None:
            return subparser.format_help()
    return None


class TestDocsTree:
    def test_docs_exist_and_are_linked_from_readme(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for page in ("architecture.md", "cli.md", "caching.md"):
            assert (REPO_ROOT / "docs" / page).is_file()
            assert f"docs/{page}" in readme

    def test_no_broken_intra_repo_links(self):
        assert check_docs.check_links(REPO_ROOT) == []

    def test_documented_cli_invocations_are_current(self):
        assert check_docs.check_cli_invocations(in_process_help, REPO_ROOT) == []

    def test_every_subcommand_is_documented_in_cli_md(self):
        cli_md = (REPO_ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
        parser = build_parser()
        (subparsers,) = parser._subparsers._group_actions  # noqa: SLF001
        for subcommand in subparsers.choices:
            assert f"repro {subcommand}" in cli_md, (
                f"docs/cli.md does not document `repro {subcommand}`"
            )

    def test_checker_catches_a_stale_flag(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "```console\n$ repro bench --no-such-flag\n```\n", encoding="utf-8"
        )
        problems = check_docs.check_cli_invocations(in_process_help, tmp_path)
        assert problems and "--no-such-flag" in problems[0]

    def test_documented_routes_are_served(self):
        assert check_docs.check_routes(root=REPO_ROOT) == []

    def test_checker_catches_a_stale_route(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "`POST /v1/analyze` serves one program.\n", encoding="utf-8"
        )
        (tmp_path / "docs" / "cli.md").write_text(
            "```console\n$ curl -s localhost:8734/v1/batch -d '{}'\n```\n",
            encoding="utf-8",
        )
        problems = check_docs.check_routes(root=tmp_path)
        assert problems == [
            "docs/cli.md: `/v1/batch` is not a route of `repro serve`"
        ]

    def test_checker_catches_a_broken_link(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text("[gone](docs/gone.md)", encoding="utf-8")
        problems = check_docs.check_links(tmp_path)
        assert problems and "docs/gone.md" in problems[0]

    def test_package_init_docstrings_state_contracts(self):
        import importlib
        import pkgutil

        import repro

        for info in pkgutil.iter_modules(repro.__path__, "repro."):
            if not info.ispkg:
                continue
            module = importlib.import_module(info.name)
            assert module.__doc__ and len(module.__doc__.strip()) > 60, (
                f"{info.name}/__init__.py needs a contract docstring"
            )
