import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "matchflow"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
         if path.name != "__init__.py"}
TOP_LEVEL = [(module, "", node) for module, tree in TREES.items() for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def unused(definitions):
    """Names of the definitions (module, qualifier, node) that no module of the package loads.

    A load inside the definition itself does not count, nor do the re-exports in __init__.py.
    """
    loads = [(module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
             for module, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    return [
        f"{module}:{qualifier}{node.name}" for module, qualifier, node in definitions
        if not any(name == node.name and not (where == module
                                              and node.lineno <= line <= node.end_lineno)
                   for where, line, name in loads)
    ]


def test_every_module_level_function_and_class_is_used_by_the_package():
    # a name only tests call is library surface the pipeline never runs
    assert unused(TOP_LEVEL) == []


def test_every_method_and_property_is_used_by_the_package():
    # dunders are called by Python itself; a method is matched by its name alone
    methods = [(module, f"{cls.name}.", node) for module, _, cls in TOP_LEVEL
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef)
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert unused(methods) == []
