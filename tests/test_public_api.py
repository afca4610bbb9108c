"""The public API is ``leftprim.__all__``: a literal list of the names the
package imports, with no submodules, that covers every name the README and
the demos import from ``leftprim``."""

import ast
import glob
import importlib.util
import os
import re
import types

import leftprim

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _all_node():
    with open(os.path.join(ROOT, "src", "leftprim", "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            return node.value
    raise AssertionError("__init__.py assigns no __all__")


def test_all_is_a_literal_list_of_strings():
    value = _all_node()
    assert isinstance(value, ast.List)
    assert all(isinstance(e, ast.Constant) and isinstance(e.value, str)
               for e in value.elts)
    assert [e.value for e in value.elts] == leftprim.__all__


def test_all_has_no_duplicates_and_no_submodules():
    assert len(set(leftprim.__all__)) == len(leftprim.__all__)
    for name in leftprim.__all__:
        obj = getattr(leftprim, name)  # every name resolves
        assert not isinstance(obj, types.ModuleType), name


def test_submodules_stay_importable():
    for sub in ("solver", "quadrature", "symbolic", "reporting", "cli"):
        assert importlib.import_module(f"leftprim.{sub}")
        assert sub not in leftprim.__all__


def _imported_from_leftprim(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "leftprim":
            yield from (a.name for a in node.names)


def test_readme_and_demo_imports_are_public():
    sources = []
    for path in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
        with open(path) as fh:
            sources.append((path, fh.read()))
    with open(os.path.join(ROOT, "README.md")) as fh:
        for block in re.findall(r"```python\n(.*?)```", fh.read(), re.S):
            sources.append(("README.md", block))
    names = [(where, n) for where, src in sources
             for n in _imported_from_leftprim(src)]
    assert names  # the demos do import from leftprim
    for where, name in names:
        public = name in leftprim.__all__ or \
            importlib.util.find_spec(f"leftprim.{name}") is not None
        assert public, (where, name)
