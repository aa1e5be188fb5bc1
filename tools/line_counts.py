"""Count the lines of Python sources by kind: code, docstring, comment and blank.

    python3 tools/line_counts.py [FILE ...]

prints one row per file (default: src/ctcsim/*.py) and a total row, with
the total, code, docstring, comment and blank lines of each. Every line
has exactly one kind, tested in this order:
- docstring: any line of a module, class or function docstring (by `ast`);
- code: a line that holds, or lies inside, a token other than a comment
  (by `tokenize`), so a code line with a trailing comment is code;
- comment: a line whose only token is a comment;
- blank: every other line.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """Lines of Python source text by kind, with "total" = their sum."""
    docstring = _docstring_lines(ast.parse(text))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for n in range(1, len(text.splitlines()) + 1):
        kind = ("docstring" if n in docstring else "code" if n in code
                else "comment" if n in comment else "blank")
        counts[kind] += 1
    counts["total"] = sum(counts.values())
    return counts


def table(files: list[tuple[str, str]]) -> str:
    """One aligned row per (name, source text) pair, then the total row."""
    columns = ("total", *KINDS)
    rows = [(name, count(text)) for name, text in files]
    rows.append(("total", {c: sum(r[c] for _, r in rows) for c in columns}))
    width = max(len(name) for name, _ in rows)
    lines = [f"{'file':<{width}}" + "".join(f"{c:>11}" for c in columns)]
    lines += [f"{name:<{width}}" + "".join(f"{r[c]:>11}" for c in columns) for name, r in rows]
    return "\n".join(lines)


if __name__ == "__main__":
    names = sys.argv[1:]
    if any(name.startswith("-") for name in names):
        sys.exit("usage: python3 tools/line_counts.py [FILE ...]")
    base = Path.cwd() if names else ROOT
    names = names or sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src" / "ctcsim").glob("*.py"))
    print(table([(name, (base / name).read_text(encoding="utf-8")) for name in names]))
