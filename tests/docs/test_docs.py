"""Docs stay true: generated CLI reference in sync, no dead links.

Both checks also run as scripts in the CI ``docs`` job; running them in
tier-1 means a PR cannot land with a stale ``docs/CLI.md`` or a broken
markdown link even when the CI workflow is skipped.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
DOCS = ROOT / "docs"


def _load(script: Path):
    spec = importlib.util.spec_from_file_location(script.stem, script)
    mod = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(mod)
    return mod


class TestGeneratedCli:
    def test_cli_md_is_current(self, capsys):
        gen = _load(DOCS / "gen_cli.py")
        assert gen.main(["--check"]) == 0, (
            "docs/CLI.md is stale; regenerate with: "
            "PYTHONPATH=src python docs/gen_cli.py"
        )

    def test_render_covers_every_subcommand(self):
        gen = _load(DOCS / "gen_cli.py")
        from repro.cli import _build_parser

        import argparse

        parser = _build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        rendered = gen.render(parser)
        for name in sub.choices:
            assert f"## `repro {name}`" in rendered

    def test_check_detects_drift(self, tmp_path):
        gen = _load(DOCS / "gen_cli.py")
        stale = tmp_path / "CLI.md"
        stale.write_text("# not the real page\n")
        assert gen.main(["--check", "--out", str(stale)]) == 1


class TestLinks:
    def test_no_broken_links(self, capsys):
        checker = _load(DOCS / "check_links.py")
        assert checker.main(["--root", str(ROOT)]) == 0, capsys.readouterr().err

    def test_checker_catches_missing_target(self, tmp_path):
        checker = _load(DOCS / "check_links.py")
        md = tmp_path / "x.md"
        md.write_text("[gone](no_such_file.md)\n")
        errors = checker.check_file(md, tmp_path)
        assert errors and "no_such_file.md" in errors[0]

    def test_checker_catches_missing_anchor(self, tmp_path):
        checker = _load(DOCS / "check_links.py")
        (tmp_path / "target.md").write_text("# Real Heading\n")
        md = tmp_path / "x.md"
        md.write_text("[bad](target.md#not-a-heading)\n")
        errors = checker.check_file(md, tmp_path)
        assert errors and "not-a-heading" in errors[0]

    def test_anchor_slugging_matches_github(self):
        checker = _load(DOCS / "check_links.py")
        assert checker._anchor_of("The gates: `benchmarks/compare_bench.py`") == (
            "the-gates-benchmarkscompare_benchpy"
        )


class TestReadmeIsQuickstart:
    def test_readme_links_the_docs_tree(self):
        text = (ROOT / "README.md").read_text()
        for page in ("ARCHITECTURE.md", "TUNING.md", "BENCHMARKS.md", "CLI.md"):
            assert f"docs/{page}" in text

    def test_deep_sections_moved_out(self):
        # The deep-dive sections live in docs/ now; README stays a quickstart.
        text = (ROOT / "README.md").read_text()
        for heading in (
            "## Performance",
            "## Parallel execution",
            "## Process backend",
            "## Embedding tiering",
            "## Observability",
            "## Fault tolerance",
        ):
            assert heading not in text, f"{heading!r} belongs in docs/ now"
        arch = (DOCS / "ARCHITECTURE.md").read_text()
        assert "## Parallel execution" in arch
        assert "## Process backend" in arch


if __name__ == "__main__":
    sys.exit("run under pytest")


class TestEnvironmentKnobs:
    def test_the_tuning_table_lists_exactly_what_src_reads(self):
        """One table in docs/TUNING.md names every environment variable
        the code reads (``_REPRO_MP_WORKER`` is the workers' own marker,
        set by the parent, not a knob)."""
        import re

        read = set()
        for path in (ROOT / "src").rglob("*.py"):
            read |= set(re.findall(r"(?<![_A-Z])REPRO_[A-Z_]+", path.read_text()))
        tuning = (DOCS / "TUNING.md").read_text()
        section = tuning.split("### Environment knobs", 1)[1].split("\n## ", 1)[0]
        rows = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, flags=re.M))
        assert rows == read == {"REPRO_MP_CONTEXT", "REPRO_MP_MAILBOX_MB"}
        architecture = (DOCS / "ARCHITECTURE.md").read_text()
        assert set(re.findall(r"REPRO_[A-Z_]+", architecture)) <= rows
        assert "TUNING.md#environment-knobs" in architecture
