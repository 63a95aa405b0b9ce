"""Print the size of ``src/``: physical lines and logical lines.

A logical line is one ``tokenize.NEWLINE`` token, so blank lines, comments
and the continuation lines of a bracketed expression do not count.  Run it
from the repository root: ``python tools/src_lines.py``.
"""

import pathlib
import tokenize


def count(root: pathlib.Path) -> tuple[int, int]:
    physical = logical = 0
    for path in sorted(root.rglob("*.py")):
        physical += len(path.read_bytes().splitlines())
        with path.open("rb") as fh:
            logical += sum(t.type == tokenize.NEWLINE for t in tokenize.tokenize(fh.readline))
    return physical, logical


if __name__ == "__main__":
    physical, logical = count(pathlib.Path("src"))
    print(f"src/: {physical} physical lines, {logical} logical lines (tokenize.NEWLINE)")
