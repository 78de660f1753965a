import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "matchflow"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
         if path.name != "__init__.py"}
TOP_LEVEL = [(module, "", node) for module, tree in TREES.items() for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
# dunders are called by Python itself
METHODS = [(module, f"{cls.name}.", node) for module, _, cls in TOP_LEVEL
           if isinstance(cls, ast.ClassDef) for node in cls.body
           if isinstance(node, ast.FunctionDef)
           and not (node.name.startswith("__") and node.name.endswith("__"))]


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


def unset(definitions):
    """module:name(parameter) of each defaulted parameter that no call in the package passes.

    A call is matched to a definition by the callee's name alone; it passes a
    parameter by its keyword or by a positional argument at its place (after
    self or cls for a method that is not a staticmethod).
    """
    calls = [node for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    found = []
    for module, qualifier, node in definitions:
        args = node.args
        positional = args.posonlyargs + args.args
        bound = int(bool(qualifier) and not any(getattr(d, "id", None) == "staticmethod"
                                                for d in node.decorator_list))
        defaulted = [(i - bound, a.arg) for i, a in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
        sites = [call for call in calls
                 if node.name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))]
        found += [f"{module}:{qualifier}{node.name}({name})" for index, name in defaulted
                  if not any(name in {k.arg for k in call.keywords}
                             or (index is not None and len(call.args) > index)
                             for call in sites)]
    return found


def test_every_module_level_function_and_class_is_used_by_the_package():
    # a name only tests call is library surface the pipeline never runs
    assert unused(TOP_LEVEL) == []


def test_every_method_and_property_is_used_by_the_package():
    # a method is matched by its name alone
    assert unused(METHODS) == []


def test_every_defaulted_parameter_is_passed_by_the_package():
    # a default no package call overrides is a parameter only tests set; cli.main is the
    # console entry point, whose argv the interpreter leaves to its default
    public = [(module, qualifier, node) for module, qualifier, node in TOP_LEVEL + METHODS
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
              and not qualifier.startswith("_") and (module, node.name) != ("cli.py", "main")]
    assert unset(public) == []
