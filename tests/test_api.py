"""The public surface: every module's ``__all__`` and README's library snippets."""

import ast
import contextlib
import importlib
import io
import pathlib
import pkgutil
import re

import pytest

import gridlight

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(gridlight.__path__))


def top_level_names(tree: ast.Module) -> set[str]:
    """The names a module defines itself: its functions, classes and assigned globals."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_all_names_objects_the_module_defines(name):
    module = importlib.import_module(f"gridlight.{name}")
    defined = top_level_names(ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8")))
    for attr in getattr(module, "__all__", ()):
        assert attr in defined, f"gridlight.{name}.__all__ names {attr!r}, which the module does not define"
        obj = getattr(module, attr)
        assert getattr(obj, "__module__", module.__name__) == module.__name__, attr


def readme_snippets() -> list[str]:
    """The python blocks of README's library quick start section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_readme_snippets_run():
    snippets = readme_snippets()
    assert len(snippets) == 2 and 'World(net).movement_counts("i_1_1")' in snippets[1]
    outputs = []
    for code in snippets:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, "README.md", "exec"), {})
        outputs.append(out.getvalue().splitlines())
    assert len(outputs[0]) == 1
    assert outputs[1][0] == "144 2.5 10"
    assert outputs[1][1].startswith("[40, 40, ") and outputs[1][1].endswith(" 0.0")
