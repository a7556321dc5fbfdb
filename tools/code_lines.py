"""Count the code-only lines of the lmrate package: non-blank lines that are
neither comments nor docstrings, found through ``ast``.  Prints the count of
each module of src/lmrate and the total; it checks nothing and always exits 0.

    python tools/code_lines.py [package_dir]
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree) -> set:
    """Line numbers of the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if number not in skip and line.strip() and not line.lstrip().startswith("#"))


def main(argv):
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "lmrate"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:16} {count:5d}")
    print(f"{'total':16} {total:5d}")


if __name__ == "__main__":
    main(sys.argv[1:])
