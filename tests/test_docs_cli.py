"""The committed CLI reference must match a fresh regeneration.

``docs/cli.md`` is generated from the live argparse tree by
:mod:`repro.docgen`; if this test fails, run::

    PYTHONPATH=src python -m repro.docgen docs/cli.md
"""

import os

import pytest

from repro.cli import build_parser
from repro.docgen import cli_reference_markdown, main

DOCS_CLI = os.path.join(os.path.dirname(__file__), "..", "docs", "cli.md")


def _committed() -> str:
    with open(DOCS_CLI, "r", encoding="utf-8") as fh:
        return fh.read()


def test_cli_page_is_in_sync_with_argparse_tree():
    assert _committed() == cli_reference_markdown(), (
        "docs/cli.md is stale; regenerate with "
        "`PYTHONPATH=src python -m repro.docgen docs/cli.md`"
    )


def test_cli_page_covers_every_subcommand():
    import argparse

    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    page = _committed()
    for name in sub.choices:
        assert f"## `mapa {name}`" in page


def test_cli_page_documents_sweep_flags():
    page = _committed()
    for flag in ("--grid", "--jobs", "--no-cache", "--cache-dir", "--format"):
        assert f"`{flag}`" in page


def test_generation_is_deterministic():
    assert cli_reference_markdown() == cli_reference_markdown()


def test_help_prints_usage_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "usage:" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_unknown_flag_exits_2_and_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["--bogus"])
    assert exit_info.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_output_path_receives_the_page(tmp_path, capsys):
    out = tmp_path / "cli.md"
    assert main([str(out)]) == 0
    assert out.read_text(encoding="utf-8") == cli_reference_markdown()
    assert main([]) == 0
    assert capsys.readouterr().out.endswith(cli_reference_markdown())
