"""README.md as data: the `pdmag` commands of its sh blocks and its table
of documented crossing ranges, for the tests that hold README to the code."""

import re
import shlex
from pathlib import Path

TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title):
    """README's "## title" section, up to the next "## " heading."""
    return TEXT.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def commands(text=TEXT):
    """(argv, status, message) of each `pdmag` line in the sh blocks of
    text (all of README by default), argv without 'pdmag'. A '# exits N:
    message' comment above a command gives its exit status N and the start
    of the last line it prints on stderr; any other command exits 0, with
    message None."""
    found = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        status, message = 0, None
        for line in block.splitlines():
            documented = re.fullmatch(r"# exits (\d): (.*)", line)
            if documented:
                status, message = int(documented[1]), documented[2]
            elif line.startswith("pdmag "):
                found.append((shlex.split(line)[1:], status, message))
                status, message = 0, None
    return found


def crossing_table():
    """The rows of the "Documented crossing ranges" table, each a dict
    keyed by the table's header."""
    table = re.search(r"^(\|.*\n)+", section("Documented crossing ranges"), re.M)[0]
    header, _, *rows = ([cell.strip() for cell in line.strip("|").split("|")]
                        for line in table.splitlines())
    return [dict(zip(header, row)) for row in rows]
