"""Every name a module of `src/` imports is used in that module.

The check reads each module's syntax tree: the names bound by its import
statements, less the names it loads anywhere in its code and the names
its `__all__` re-exports, must be empty.  A helper deleted from a module
often leaves its import behind; this keeps such leftovers out.
"""

import ast
import os

import pytest

from test_reachability import PACKAGE

MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


def unused_imports(source):
    """The names bound by imports in source that the code never reads."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["b", "os"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("import os.path\nos.path.join\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert unused_imports(fh.read()) == [], module
