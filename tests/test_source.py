"""Guards on the package source itself."""

import ast
import importlib
import pathlib
import types

import proxdyn

SOURCES = sorted(pathlib.Path(proxdyn.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no safety guard may be one
    assert SOURCES
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_api_is_the_submodules_all():
    # cli is the command-line entry point, not part of the library API
    modules = [importlib.import_module(f"proxdyn.{path.stem}") for path in SOURCES
               if path.stem not in ("__init__", "cli", "errors")]
    exported = set()
    for module in modules:
        for name in module.__all__:
            assert getattr(proxdyn, name) is getattr(module, name), f"{module.__name__}.{name}"
        exported.update(module.__all__)
    errors = {name for name, obj in vars(proxdyn.errors).items()
              if isinstance(obj, type) and issubclass(obj, Exception)}
    assert len(errors) == 7
    assert all(getattr(proxdyn, name) is getattr(proxdyn.errors, name) for name in errors)
    public = {name for name, obj in vars(proxdyn).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == exported | errors
