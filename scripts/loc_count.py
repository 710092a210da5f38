"""Code and docstring lines per module of src/phidual, from a tokenize count.

A code line holds at least one token other than a comment or a docstring;
a docstring line is covered by a string that is a statement on its own (a
module, class or function docstring, or an attribute's).  Blank and
comment-only lines count as neither, so a removal of code is not hidden by
new docs, nor the reverse.

Run from anywhere: ``python scripts/loc_count.py``.
"""

from __future__ import annotations

import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "phidual"
STARTS = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)  # a token after these starts a statement
LAYOUT = {*STARTS, tokenize.NL, tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(code lines, docstring lines) of one module's source."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    code, docs = set(), set()
    prev = tokenize.NEWLINE  # the start of a file begins a statement
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.COMMENT:
            continue
        if tok.type in LAYOUT:
            if tok.type != tokenize.NL:
                prev = tok.type
            continue
        lines = range(tok.start[0], tok.end[0] + 1)
        nxt = next(t for t in tokens[i + 1:] if t.type not in (tokenize.COMMENT, tokenize.NL))
        alone = prev in STARTS and nxt.type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        if tok.type == tokenize.STRING and alone:
            docs.update(lines)
        else:
            code.update(lines)
        prev = tok.type
    return len(code), len(docs - code)


def main() -> None:
    total = [0, 0]
    print(f"{'module':<20} {'code':>6} {'docstring':>10}")
    for path in sorted(PACKAGE.glob("*.py")):
        c, d = count(path.read_text(encoding="utf-8"))
        total[0] += c
        total[1] += d
        print(f"{path.name:<20} {c:>6} {d:>10}")
    print(f"{'total':<20} {total[0]:>6} {total[1]:>10}")


if __name__ == "__main__":
    main()
