"""Print the code lines of each module of src/acso and their total.

A code line holds a token other than a comment and lies outside every
docstring (the string that opens a module, class or function body);
blank lines do not count.  A string literal over several lines counts
each of them.  The count sets no threshold and the script always exits 0:

    python scripts/source_size.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    skip = docstring_lines(ast.parse(text))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "acso"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print("%6d  %s" % (n, path.name))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
