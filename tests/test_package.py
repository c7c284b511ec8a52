import ast
import inspect
from pathlib import Path

import classlm


def test_exports_are_sorted_distinct_and_resolve():
    names = classlm.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(classlm, name)]
    assert not missing


def test_every_public_name_the_package_imports_is_exported():
    # a name deleted from a module but left in __init__.py fails at import;
    # one left in __all__ fails above; one imported but not listed fails here
    tree = ast.parse(Path(inspect.getfile(classlm)).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(public - set(classlm.__all__)) == []
