"""Count the lines of the package source: total, and code-only, for each
module and for the package.

Code-only lines hold at least one token that is not a comment, a
docstring (a string standing as a statement of its own) or layout (blank
lines, newlines, indentation).  Run from anywhere:

    python tools/count_src_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to the ``src/kldro`` next to this script.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """Lines of strings that stand as statements of their own."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start[0] in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src/kldro"
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        lines, code_only = len(source.splitlines()), code_lines(source)
        print(f"{path.relative_to(root)}: {lines} lines, {code_only} code-only")
        total += lines
        code += code_only
    print(f"{root}: {total} lines, {code} code-only")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
