"""Source-level checks on the package."""
import ast
import pathlib

import interfero

SRC = pathlib.Path(interfero.__file__).parent


def test_no_assert_statements_in_package():
    # validation by assert leaks tracebacks and disappears under python -O
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_imports_in_package():
    # a name bound by an import must be read somewhere in its module
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_every_parameter_is_read():
    # a parameter that its body never reads is an option nothing uses;
    # lambdas are exempt, since a derivative such as `lambda g: 1.0` may
    # ignore its argument
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"{path.name}:{node.lineno} {node.name}({p.arg})"
                      for p in params if p.arg not in read]
    assert found == []


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_private_names_across_modules():
    # a leading underscore keeps a name to its own module: no module of
    # the package imports or reads another one's
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = set()
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            for alias in node.names:
                if node.module is None:     # from . import module
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{path.name}:{node.lineno} "
                                 f"{node.module}.{alias.name}")
        found += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules and _private(node.attr)]
    assert found == []
