"""README.md as data: the `pdmag` commands of its sh blocks and its
tables, for the tests that hold README to the code."""

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


def tables(text):
    """The tables of text in order, each a list of its rows, each row a
    dict keyed by the table's header."""
    found = []
    for table in re.findall(r"^(?:\|.*\n)+", text, re.M):
        header, _, *rows = ([cell.strip() for cell in line.strip("|").split("|")]
                            for line in table.splitlines())
        found.append([dict(zip(header, row)) for row in rows])
    return found


def agrees(value, printed):
    """Whether value rounds to the number README prints as `printed`: within
    half a unit of its last printed digit ("-0.7832569", "1.58e-2")."""
    mantissa, _, exponent = printed.lower().partition("e")
    unit = 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))
    return abs(value - float(printed)) <= 0.5 * unit
