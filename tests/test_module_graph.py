import ast
from pathlib import Path

import locclab

PACKAGE = Path(locclab.__file__).parent


def _relative_imports(tree: ast.Module) -> list[tuple[str, bool]]:
    """(imported module, whether the import sits inside a function) for each
    module a ``from .x import ...`` or ``from . import x`` names."""
    out = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level == 1:
                names = [child.module] if child.module else [a.name for a in child.names]
                out.extend((name.split(".")[0], in_function) for name in names)
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return out


def test_package_imports_are_top_level_and_acyclic():
    graph: dict[str, set[str]] = {}
    local = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        imports = _relative_imports(ast.parse(path.read_text()))
        graph[path.stem] = {name for name, _ in imports}
        local += [f"{path.stem} -> {name}" for name, inside in imports if inside]
    assert local == [], "function-local package imports"

    # depth-first search; a module reached again while on the stack closes a cycle
    state: dict[str, str] = {}

    def visit(module, stack):
        state[module] = "open"
        for dep in sorted(graph.get(module, ())):
            if state.get(dep) == "open":
                raise AssertionError(f"import cycle: {' -> '.join(stack + [module, dep])}")
            if dep not in state:
                visit(dep, stack + [module])
        state[module] = "done"

    for module in sorted(graph):
        if module not in state:
            visit(module, [])
