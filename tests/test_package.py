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


def test_exports_are_the_names_the_readme_and_the_acceptance_suite_import():
    # the README's library example and the acceptance suite are the documented
    # uses of the package; every other name is imported from its module
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    acceptance = (root / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    documented = {alias.name
                  for source in (example, acceptance)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "classlm"
                  for alias in node.names}
    assert documented
    assert classlm.__all__ == sorted(documented)
