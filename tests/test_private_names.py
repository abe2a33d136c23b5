"""Every module-level private name in the package is used in the package.

A private name is meant for the package alone, so one that no other
statement of src/ reads is dead code, whatever tests or scripts still
reach it. References are AST Name and Attribute nodes, not text, so a
comment or a string that mentions a name does not keep it alive.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vodgame"


def _defined(stmt) -> set:
    # the module-level private names a top-level statement binds
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    else:
        names = set()
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _referenced(stmt) -> set:
    # the names a statement reads, as a Name or as an attribute
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def test_every_private_name_is_referenced_beyond_its_definition():
    statements = [
        (path.name, stmt)
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    assert statements
    reads = [_referenced(stmt) for _, stmt in statements]
    dead = [
        f"{module}: {name}"
        for i, (module, stmt) in enumerate(statements)
        for name in sorted(_defined(stmt))
        if not any(name in read for j, read in enumerate(reads) if j != i)
    ]
    assert dead == []
