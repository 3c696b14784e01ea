"""The README documents the library and the CLI: every name that pnav
exports appears, as code, in its "## Library" section, and every option of
every subcommand, as code, in its "## CLI" section."""

import re
from pathlib import Path

import pnav
from pnav.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title: str) -> str:
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def test_every_export_is_named_in_the_library_section():
    library = section("Library")
    missing = [name for name in pnav.__all__ if not re.search(rf"`{name}\b", library)]
    assert missing == []


def test_every_cli_option_is_named_in_the_cli_section():
    # the section's code: fenced blocks, then inline spans outside them
    fenced = re.compile(r"^```.*?^```", re.M | re.S)
    cli = section("CLI")
    code = "\n".join(fenced.findall(cli) + re.findall(r"`([^`\n]+)`", fenced.sub("", cli)))
    subcommands = build_parser()._subparsers._group_actions[0].choices
    options = {opt for parser in subcommands.values() for action in parser._actions
               for opt in action.option_strings if opt not in ("-h", "--help")}
    missing = sorted(opt for opt in options
                     if not re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", code))
    assert missing == []
