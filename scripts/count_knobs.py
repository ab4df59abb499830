"""Count the knobs of the branchlab package.

A knob is a parameter with a default of a public function or method, or a
field with a default of a public dataclass: each is a value a caller may set
but need not.  Names starting with an underscore are private and not counted,
nor is anything nested in them; dunder methods such as `__init__` are public.

    python scripts/count_knobs.py [SRC_DIR]

SRC_DIR defaults to the src/branchlab next to this script's directory.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")) == "dataclass":
            return True
    return False


def count(body) -> int:
    """Knobs among the statements `body` and the public classes in them."""
    total = 0
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _private(node.name):
            a = node.args
            total += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
        elif isinstance(node, ast.ClassDef) and not _private(node.name):
            if _is_dataclass(node):
                total += sum(
                    isinstance(item, ast.AnnAssign) and item.value is not None
                    and isinstance(item.target, ast.Name) and not _private(item.target.id)
                    for item in node.body
                )
            total += count(node.body)
    return total


if __name__ == "__main__":
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "branchlab"
    print(sum(count(ast.parse(p.read_text(), filename=str(p)).body) for p in sorted(src.glob("*.py"))))
