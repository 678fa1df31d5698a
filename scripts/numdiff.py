"""Compare two result files, or two document trees, number by number.

    python3 scripts/numdiff.py <a> <b>

<a> and <b> are two files (say two ``engine_reprs.py`` outputs) or two
directories (say two ``cli_documents.py`` trees, compared file by file).
Lines are compared by position.  A line that differs only in its
floating-point numbers (floats and complex numbers as Python prints them,
``1.5``, ``2e-07``, ``(3.1-4j)``) is counted for its file, and the file's
summary gives the number of such lines with the largest absolute and
relative difference of a number on them (the modulus of the difference,
relative to the larger modulus of the two).  Every other difference is
listed apart with both lines: text, integers (iteration counts), verdicts,
a number that turns infinite or nan, a line or a file on one side only, a
binary file whose bytes differ.

Exit code 0 when the only differences are in floating-point numbers, 1 when
there is any other, 2 on bad arguments.  For example:

    python3 scripts/engine_reprs.py old/ /tmp/old.txt
    python3 scripts/engine_reprs.py new/ /tmp/new.txt
    python3 scripts/numdiff.py /tmp/old.txt /tmp/new.txt
"""

from __future__ import annotations

import cmath
import re
import sys
from pathlib import Path

_REAL = r"(?:(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|inf|nan)"
# a number does not start inside a word or a decimal: "tol5e-7" is text
_START = r"(?<![\w.])"
_NUMBER = re.compile(
    _START + r"(?:\((?P<re>-?" + _REAL + r")(?P<im>[-+]" + _REAL + r")j\)"
    r"|(?P<imag>-?" + _REAL + r")j"
    r"|(?P<real>-?(?:(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?"
    r"|\d+[eE][-+]?\d+|inf|nan)))(?![\w.])")


def _value(m: re.Match) -> complex:
    if m.group("re") is not None:
        return complex(float(m.group("re")), float(m.group("im")))
    if m.group("imag") is not None:
        return complex(0.0, float(m.group("imag")))
    return complex(float(m.group("real")), 0.0)


def compare_lines(a: str, b: str):
    """(abs, rel) largest difference when a and b differ only in their
    floating-point numbers; None when they differ otherwise."""
    if _NUMBER.sub("\0", a) != _NUMBER.sub("\0", b):
        return None
    worst_abs = worst_rel = 0.0
    for ma, mb in zip(_NUMBER.finditer(a), _NUMBER.finditer(b)):
        if ma.group() == mb.group():
            continue
        x, y = _value(ma), _value(mb)
        if not (cmath.isfinite(x) and cmath.isfinite(y)):
            return None
        d = abs(x - y)  # 0 where only the sign of a zero moved
        worst_abs = max(worst_abs, d)
        if d:
            worst_rel = max(worst_rel, d / max(abs(x), abs(y)))
    return worst_abs, worst_rel


def compare_files(name: str, a: Path, b: Path) -> int:
    """Print one file pair's differences; the count of non-float ones."""
    raw_a, raw_b = a.read_bytes(), b.read_bytes()
    if raw_a == raw_b:
        return 0
    try:
        lines_a = raw_a.decode().splitlines()
        lines_b = raw_b.decode().splitlines()
    except UnicodeDecodeError:
        print(f"{name}: binary files differ")
        return 1
    other = floats = 0
    worst_abs = worst_rel = 0.0
    for k in range(max(len(lines_a), len(lines_b))):
        la = lines_a[k] if k < len(lines_a) else None
        lb = lines_b[k] if k < len(lines_b) else None
        if la == lb:
            continue
        moved = None if la is None or lb is None else compare_lines(la, lb)
        if moved is None:
            other += 1
            print(f"{name}:{k + 1}: other difference")
            print(f"  - {la if la is not None else '(no line)'}")
            print(f"  + {lb if lb is not None else '(no line)'}")
            continue
        floats += 1
        worst_abs = max(worst_abs, moved[0])
        worst_rel = max(worst_rel, moved[1])
    if floats:
        print(f"{name}: {floats} lines differ only in floats, "
              f"max abs {worst_abs:.3g}, max rel {worst_rel:.3g}")
    return other


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = Path(argv[1]), Path(argv[2])
    if a.is_file() and b.is_file():
        return 1 if compare_files(b.name, a, b) else 0
    if not (a.is_dir() and b.is_dir()):
        print("need two files or two directories", file=sys.stderr)
        return 2
    names_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    other = 0
    for name in sorted(names_a | names_b):
        if name not in names_b or name not in names_a:
            side = argv[1] if name in names_a else argv[2]
            print(f"{name}: only in {side}")
            other += 1
            continue
        other += compare_files(str(name), a / name, b / name)
    return 1 if other else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
