"""Guards on the package source itself."""

import ast
import importlib
import itertools
import os
import pathlib
import subprocess
import sys
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


def test_every_kernel_variant_compiles_without_asserts():
    # 4 steppers, the float lanes with the built-ins' prox sources in turn;
    # every beta runs the same kernel text
    from proxdyn import dynamics, objectives

    sources = itertools.cycle(
        (obj.prox.coordinate_source, tuple(obj.prox.coordinate_params))
        for obj in map(objectives.make_objective, objectives.BUILTIN_NAMES))
    compiled = 0
    for kind, (name, _) in dynamics._TEMPLATES.items():
        for lane in ("float", "numpy"):
            variant = dynamics._Variant(*next(sources)) if lane == "float" else dynamics._Variant()
            assert variant.lane == lane
            src = dynamics._source(kind, variant)
            tree = ast.parse(src)
            assert [node.name for node in tree.body] == [name]
            assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree))
            compile(tree, f"<{name} {variant}>", "exec")
            compiled += 1
    assert compiled == 4


def test_readme_library_quickstart_runs(tmp_path):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1]
    code = code.split("```", 1)[0]
    src = str(pathlib.Path(proxdyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert "result: all conditions hold" in res.stdout
