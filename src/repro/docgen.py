"""Generate the CLI reference page from the live argparse tree.

The docs site's ``cli.md`` is not hand-written: this module walks
:func:`repro.cli.build_parser` and renders every subcommand — help
text, positionals, options, defaults and choices — as deterministic
markdown.  A unit test (``tests/test_docs_cli.py``) regenerates the
page and compares it to the committed ``docs/cli.md``, so the CLI and
its documentation can never drift apart; the CI docs job performs the
same check before building the site.

Regenerate after changing ``cli.py``::

    PYTHONPATH=src python -m repro.docgen docs/cli.md
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .cli import build_parser

#: Header explaining provenance, emitted at the top of the page.
_PREAMBLE = """\
# CLI reference

The toolkit ships one executable, invoked as `python -m repro` (or
`mapa` after an editable install).  Every subcommand below is rendered
from the live `argparse` tree by `repro.docgen`; a unit test keeps this
page in sync with `repro/cli.py`, so what you read here is exactly what
`--help` reports.

"""


def _fmt_default(action: argparse.Action) -> str:
    """Human-readable default value of one argparse action."""
    if action.default is None or action.default is argparse.SUPPRESS:
        return "—"
    if isinstance(action.default, bool):
        return "`true`" if action.default else "`false`"
    if isinstance(action.default, (list, tuple)):
        return "`" + " ".join(str(v) for v in action.default) + "`"
    return f"`{action.default}`"


def _fmt_name(action: argparse.Action) -> str:
    """The option strings (or positional metavar) of one action."""
    if action.option_strings:
        name = ", ".join(f"`{s}`" for s in action.option_strings)
    else:
        name = f"`{action.dest}`"
    if isinstance(action, argparse._StoreTrueAction):
        return name
    metavar = action.metavar
    if metavar is None and action.nargs not in (0,):
        metavar = action.dest.upper().replace("-", "_")
    if action.option_strings and metavar:
        return f"{name} `{metavar}`"
    return name


def _fmt_help(action: argparse.Action) -> str:
    """Help text plus rendered choices, pipe-escaped for table cells."""
    parts: List[str] = []
    if action.help:
        parts.append(action.help)
    if action.choices is not None:
        rendered = ", ".join(f"`{c}`" for c in action.choices)
        parts.append(f"choices: {rendered}")
    return " — ".join(parts).replace("|", "\\|") if parts else ""


def _subcommand_section(name: str, sub: argparse.ArgumentParser) -> str:
    """Render one subcommand as a markdown section."""
    lines: List[str] = [f"## `mapa {name}`", ""]
    description = (sub.description or "").strip()
    if description:
        lines += [description, ""]
    rows: List[str] = []
    for action in sub._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        rows.append(
            f"| {_fmt_name(action)} | {_fmt_default(action)} "
            f"| {_fmt_help(action)} |"
        )
    if rows:
        lines += [
            "| argument | default | description |",
            "| --- | --- | --- |",
            *rows,
            "",
        ]
    else:
        lines += ["This subcommand takes no arguments.", ""]
    return "\n".join(lines)


def cli_reference_markdown() -> str:
    """The full CLI reference page as a markdown string.

    Returns
    -------
    str
        Deterministic markdown: subcommands in registration order, one
        table of arguments each.  Depends only on ``repro.cli`` (no
        terminal-width-sensitive argparse formatting), so regeneration
        is reproducible across machines.
    """
    parser = build_parser()
    sub_action = next(
        a
        for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    out: List[str] = [_PREAMBLE]
    summary_rows = []
    for name, sub in sub_action.choices.items():
        help_text = ""
        for choice_action in sub_action._choices_actions:
            if choice_action.dest == name:
                help_text = choice_action.help or ""
        summary_rows.append(f"| [`{name}`](#mapa-{name}) | {help_text} |")
    out += [
        "| subcommand | purpose |",
        "| --- | --- |",
        *summary_rows,
        "",
    ]
    for name, sub in sub_action.choices.items():
        out.append(_subcommand_section(name, sub))
    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> int:
    """Write the generated page to the optional output path, else stdout.

    ``-h``/``--help`` prints usage and exits 0; an unknown flag exits 2
    (argparse's convention), so no flag is ever taken for a path.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.docgen",
        description="Generate the CLI reference page (docs/cli.md).",
    )
    parser.add_argument(
        "output", nargs="?", help="file to write; stdout when omitted"
    )
    args = parser.parse_args(argv)
    text = cli_reference_markdown()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
