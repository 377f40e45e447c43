"""Modules import one way: each module of the package imports only modules
before it in LAYERS, or the package ``__init__``. Only ``artifacts`` writes
files: every artifact goes through its one atomic writer. Every loader only
parses: the record it returns checks itself. And every file format sits
beside its record: a loader and its saver live in the record's module."""

import ast
import importlib
import inspect
import sys
import typing
from pathlib import Path

import skytrack

LAYERS = ["config", "artifacts", "kernels", "geometry", "world", "augmentation", "learner", "simulator", "metrics", "cli"]
PACKAGE = Path(skytrack.__file__).parent


def source(module: str) -> str:
    return (PACKAGE / f"{module}.py").read_text()


def package_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports; ``__init__`` for a name
    taken from the package itself."""
    tree = ast.parse(source(module))
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


# (module, function) that may write a file without ``artifacts``: the pipe a
# forked ablation job sends its result over.
OWN_WRITERS = {("cli", "_fork")}


def file_writes(text: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each call in the Python ``text`` that opens a file
    to write or append, calls ``.write_text`` or ``.write_bytes``, or calls
    ``np.save``, ``np.savez`` and the like."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            function = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else ""
            owner = getattr(f, "value", None)
            # A mode is a literal string argument; one that is not a literal may be a write mode.
            # Only a method open, as Path.open("w"), takes its mode first; open and io.open take a file.
            modes = node.args[1:] + [k.value for k in node.keywords if k.arg == "mode"]
            method_open = name == "open" and isinstance(f, ast.Attribute)
            if method_open and getattr(owner, "id", "") not in sys.stdlib_module_names:
                modes += [a for a in node.args[:1] if isinstance(a, ast.Constant)]
            opens = name in ("open", "fdopen") and any(
                not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes
            )
            method = isinstance(f, ast.Attribute) and getattr(owner, "id", "") != "artifacts"
            numpy_save = method and name.startswith("save") and getattr(owner, "id", "") == "np"
            if opens or numpy_save or (method and name in ("write_text", "write_bytes")):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(text), "")
    return found


def test_only_artifacts_writes_files():
    for module in LAYERS:
        if module != "artifacts":
            writes = [(f, line) for f, line in file_writes(source(module)) if (module, f) not in OWN_WRITERS]
            assert writes == [], f"{module} writes a file outside artifacts at (function, line) {writes}"


def test_the_write_check_sees_each_kind_of_write():
    assert [f for f, _ in file_writes(source("artifacts"))] == ["writing", "write_npz"]
    assert [f for f, _ in file_writes(source("cli"))] == ["_fork"]
    writes = [
        'open(f, "w")', "open(f, mode)", 'os.fdopen(fd, "wb")', 'Path(f).open("a")',
        "f.write_text(t)", "f.write_bytes(b)", "np.save(f, a)", "np.savez(f, a=a)",
    ]
    reads = ["open(f)", 'open(f, "rb")', "artifacts.write_text(f, t)", 'open("data.txt")', 'io.open("a.txt")']
    snippet = "".join(f"def call_{i}():\n    {call}\n" for i, call in enumerate(writes + reads))
    assert [f for f, _ in file_writes(snippet)] == [f"call_{i}" for i in range(len(writes))]


# The records that the package's ``load_*`` functions return.
LOADED_RECORDS = ["Dataset", "LandmarkWorld", "Path", "RegressorModel", "RunConfig", "TrajectoryLog"]


def format_functions() -> dict[str, str]:
    """The layer that defines each ``save_*`` and ``load_*`` of the package, by name."""
    defined = {}
    for layer in LAYERS:
        module = importlib.import_module(f"skytrack.{layer}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith(("save_", "load_")) and fn.__module__ == module.__name__:
                assert name not in defined, f"{name} is defined in {defined[name]} and {layer}"
                defined[name] = layer
    return defined


def loaders() -> dict[str, type]:
    """The record that each ``load_*`` of the package returns, by ``layer.name``."""
    return {
        f"{layer}.{name}": typing.get_type_hints(getattr(importlib.import_module(f"skytrack.{layer}"), name))["return"]
        for name, layer in format_functions().items()
        if name.startswith("load_")
    }


def test_every_loaded_record_checks_itself():
    """Each ``load_*`` returns a record that defines its own ``__post_init__``,
    so the rules live in the record and a record built in code is checked too."""
    records = loaders()
    assert sorted(record.__name__ for record in records.values()) == LOADED_RECORDS
    for loader, record in records.items():
        assert "__post_init__" in vars(record), f"{loader} returns {record.__name__}, which does not check itself"


def test_each_format_sits_beside_its_record():
    """Each ``load_*`` is defined in the module that defines the record it
    returns, and so is its ``save_*`` partner, if it has one. ``cli`` holds
    the commands and defines no format."""
    defined = format_functions()
    for loader, record in loaders().items():
        layer, name = loader.split(".")
        assert record.__module__ == f"skytrack.{layer}", f"{loader} returns {record.__module__}.{record.__name__}"
        saver = "save_" + name.removeprefix("load_")
        assert defined.get(saver, layer) == layer, f"{saver} is defined in {defined[saver]}, not beside {loader}"
    assert [name for name, layer in defined.items() if layer == "cli"] == []
