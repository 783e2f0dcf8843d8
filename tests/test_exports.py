"""The package namespace: every exported name must resolve, and every
top-level name in the package must be used by a program."""

import ast
import re
from pathlib import Path

import lowprec

ROOT = Path(__file__).resolve().parent.parent

# Top-level names kept although no program references them.
KEPT_FOR_TESTS = {
    "quantize": "the scalar rounding entry point of 12 floatsim test call sites",
    "mha_reference": "the independent numpy oracle the graph tests check against",
}


def test_every_name_in_all_resolves():
    assert len(lowprec.__all__) == len(set(lowprec.__all__))
    for name in lowprec.__all__:
        assert getattr(lowprec, name) is not None, name


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _referenced(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_top_level_name_is_used_by_a_program():
    modules = [p for p in sorted((ROOT / "src" / "lowprec").glob("*.py"))
               if p.name != "__init__.py"]
    programs = [ast.parse(p.read_text()) for p in
                modules + sorted((ROOT / "perfbench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    programs += [ast.parse(block) for block in
                 re.findall(r"```python\n(.*?)```", readme, re.DOTALL)]
    used = set().union(*map(_referenced, programs))
    defined = set().union(*(_defined(ast.parse(p.read_text())) for p in modules))
    unused = defined - used - set(KEPT_FOR_TESTS)
    assert not unused, f"top-level names only tests reach: {sorted(unused)}"
