"""Small shared AST helpers for the rule implementations."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call target, e.g. ``random.Random``."""
    return dotted_name(node.func)


def walk_in_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Like :func:`ast.walk`, but does not descend into nested
    function/class definitions — one function body at a time."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(child))


def functions_in(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def dataclass_decorator(node: ast.ClassDef) -> Optional[ast.AST]:
    """The ``@dataclass`` decorator node of a class, if present."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = dotted_name(target)
        if name and name.rsplit(".", 1)[-1] == "dataclass":
            return decorator
    return None
