import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "matchflow"


def test_every_module_level_function_and_class_is_used_by_the_package():
    # a name only tests call is library surface the pipeline never runs;
    # re-exports in __init__.py do not count as a use
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    loads = [(module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
             for module, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(name == node.name and not (where == module
                                               and node.lineno <= line <= node.end_lineno)
                    for where, line, name in loads)
    ]
    assert unused == []
