"""Modules import one way: each module of the package imports only modules
before it in LAYERS, or the package ``__init__``."""

import ast
from pathlib import Path

import skytrack

LAYERS = ["config", "geometry", "world", "augmentation", "kernels", "learner", "simulator", "metrics", "cli"]
PACKAGE = Path(skytrack.__file__).parent


def package_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports; ``__init__`` for a name
    taken from the package itself."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1, f"{module}: import from outside the package"
            if node.module:
                found.add(node.module)
            else:  # from . import a, b
                found.update(a.name if (PACKAGE / f"{a.name}.py").exists() else "__init__" for a in node.names)
        elif isinstance(node, ast.Import | ast.ImportFrom):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            assert all(name.split(".")[0] != "skytrack" for name in names), f"{module}: absolute package import"
    return found


def test_every_module_has_a_layer():
    assert sorted(f.stem for f in PACKAGE.glob("*.py") if f.stem != "__init__") == sorted(LAYERS)


def test_modules_import_only_earlier_layers():
    for i, module in enumerate(LAYERS):
        allowed = set(LAYERS[:i]) | {"__init__"}
        assert package_imports(module) <= allowed, module


def test_config_imports_no_package_module():
    assert package_imports("config") == set()
