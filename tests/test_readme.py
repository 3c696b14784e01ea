"""The README documents the library: every name that pnav exports appears,
as code, in its "## Library" section."""

import re
from pathlib import Path

import pnav

README = Path(__file__).resolve().parents[1] / "README.md"


def library_section() -> str:
    text = README.read_text()
    start = text.index("\n## Library\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def test_every_export_is_named_in_the_library_section():
    section = library_section()
    missing = [name for name in pnav.__all__ if not re.search(rf"`{name}\b", section)]
    assert missing == []
