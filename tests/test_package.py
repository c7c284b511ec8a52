import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import classlm


def test_exports_are_sorted_distinct_and_resolve():
    names = classlm.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(classlm, name)]
    assert not missing


def test_every_public_name_the_package_imports_is_exported():
    # the package resolves each exported name from its module on first read;
    # a name deleted from its module fails the identity check, one in the
    # table but not in __all__ (or the reverse) fails the key check
    assert sorted(classlm._EXPORTS) == classlm.__all__
    for name, module in classlm._EXPORTS.items():
        assert getattr(classlm, name) is getattr(importlib.import_module(f"classlm.{module}"), name)
    # and importing the package runs none of its modules
    src = str(Path(classlm.__file__).resolve().parent.parent)
    executed = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c",
         "import sys, types, classlm; print(*sorted(name for name, module in sys.modules.items()"
         " if name.startswith('classlm.') and type(module) is types.ModuleType))"],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
    ).stdout.split()
    assert executed == []


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


def test_the_package_imports_only_itself_and_the_standard_library():
    # the package is pure stdlib at run time: no third-party import, however
    # guarded, in any of its modules
    package = Path(classlm.__file__).resolve().parent
    imported = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module)
    assert imported
    outside = sorted(name for name in imported
                     if name.split(".")[0] not in sys.stdlib_module_names | {"classlm"})
    assert outside == []
