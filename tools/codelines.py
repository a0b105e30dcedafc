"""Code lines of the project's Python directories: lines that are not blank,
not comments and not part of a docstring (module, class or function).

    python tools/codelines.py            # src, perfbench, tests, tools
    python tools/codelines.py src tests  # only these directories

Paths are relative to the repository root. Each directory's count sums its
*.py files, searched recursively.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRECTORIES = ["src", "perfbench", "tests", "tools"]


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(text, filename=str(path)))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), start=1)
        if number not in skip and line.strip() and not line.lstrip().startswith("#")
    )


def main(argv: list[str]) -> int:
    for name in argv or DIRECTORIES:
        total = sum(code_lines(p) for p in sorted((ROOT / name).rglob("*.py")))
        print(f"{name} {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
