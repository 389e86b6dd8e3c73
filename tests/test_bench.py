"""The benchmark's scripts import only names the package has.

A refactor that renames or deletes one of them fails here, in the test
suite, rather than in a benchmark run. The scripts are read, not run.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def package_imports(source: str) -> list[tuple[str, str | None]]:
    """(module, name) for each import of transportkernels; name None for `import m`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found += [(node.module, alias.name) for alias in node.names]
    return [(m, n) for m, n in found if m.split(".")[0] == "transportkernels"]


def resolves(module: str, name: str | None) -> bool:
    try:
        owner = importlib.import_module(module)
        if name is not None and not hasattr(owner, name):
            importlib.import_module(f"{module}.{name}")  # a submodule
    except ImportError:
        return False
    return True


def test_bench_imports_resolve():
    imports = [
        (path.name, module, name)
        for path in sorted((ROOT / "bench").glob("*.py"))
        for module, name in package_imports(path.read_text())
    ]
    assert imports, "bench/ imports nothing from the package"
    assert [entry for entry in imports if not resolves(*entry[1:])] == []
