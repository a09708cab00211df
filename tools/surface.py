"""Measures of the package's size and public surface.

    python3 tools/surface.py

Prints the lines of ``src/sqip/*.py`` (total and non-blank), the number
of names in ``sqip.__all__``, the number of ``config.SCHEMA`` keys (over
all sections) and the number of parameters with a default over every
``def`` in the package. It reads the sources with ``ast`` and imports
nothing from the package, so it needs no third-party module.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sqip"


def _assigned(tree: ast.Module, name: str) -> ast.expr:
    """The value of the module-level assignment to ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        if name in targets:
            return node.value
    raise LookupError(f"no module-level {name}")


def main() -> None:
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    lines = [line for text in sources.values() for line in text.splitlines()]
    trees = {name: ast.parse(text) for name, text in sources.items()}
    exports = ast.literal_eval(_assigned(trees["__init__.py"], "__all__"))
    schema = ast.literal_eval(_assigned(trees["config.py"], "SCHEMA"))
    defaults = sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    print(f"src_lines={len(lines)}")
    print(f"src_nonblank_lines={sum(bool(line.strip()) for line in lines)}")
    print(f"public_names={len(exports)}")
    print(f"schema_keys={sum(len(keys) for keys in schema.values())}")
    print(f"parameters_with_default={defaults}")


if __name__ == "__main__":
    main()
