"""Source checks that need no linter: no module of borngen imports a name it
does not use, or lists in __all__ a name it does not define or (but for the
package's __init__) imports, only the epoch loop in optimize builds the
per-epoch trace records, and only sim writes the number rule."""
import ast
import importlib
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "borngen"


def _exported(tree: ast.Module) -> list[str]:
    """The names that the module's __all__ lists."""
    return [
        element.value
        for node in ast.walk(tree)
        if [getattr(t, "id", None) for t in getattr(node, "targets", ())] == ["__all__"]
        for element in node.value.elts
    ]


def _unused_imports(path: Path) -> list[str]:
    """Imported names that the module never reads. An import marked
    `noqa: F401` is a deliberate re-export, and so is a name in __all__."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exported(tree))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_unused_import_check_finds_one(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import Optional, Union  # noqa: F401\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "print(osp.sep)\n"
    )
    assert _unused_imports(module) == ["mod.py:2 os", "mod.py:5 dumps"]


def _stale_exports(module) -> list[str]:
    """Names in the module's __all__ that the module does not define."""
    return [
        f"{module.__name__}.{name}"
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    name = "borngen" if path.stem == "__init__" else f"borngen.{path.stem}"
    assert _stale_exports(importlib.import_module(name)) == []


def test_stale_export_check_finds_one():
    module = types.ModuleType("mod")
    exec("__all__ = ['kept', 'removed']\nkept = 1\n", module.__dict__)
    assert _stale_exports(module) == ["mod.removed"]


def _reexports(path: Path) -> list[str]:
    """Names in the module's __all__ that it imports rather than defines."""
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    return [f"{path.stem}.{name}" for name in _exported(tree) if name in imported]


@pytest.mark.parametrize(
    "path", sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}), ids=lambda p: p.name
)
def test_only_the_package_re_exports_names(path):
    # a name is exported by the module that defines it, so no caller imports it twice over
    assert _reexports(path) == []


def test_re_export_check_finds_one(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from json import dumps, loads\n"
        "import os\n"
        "__all__ = ['loads', 'os', 'kept']\n"
        "def kept(): return dumps\n"
    )
    assert _reexports(module) == ["mod.loads", "mod.os"]


def _calls(path: Path, name: str) -> int:
    """How many calls of name, bare or as an attribute, the module makes."""
    return sum(
        isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(ast.parse(path.read_text()))
    )


def test_epoch_records_are_built_only_by_the_shared_loop():
    # both generators train through optimize._run_epochs
    builders = {p.name: n for p in sorted(SRC.glob("*.py")) if (n := _calls(p, "EpochRecord"))}
    assert builders == {"optimize.py": 1}


def test_call_check_finds_bare_and_attribute_calls(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("EpochRecord(0)\noptimize.EpochRecord(1)\nEpochRecord\n")
    assert _calls(module, "EpochRecord") == 2


def _number_rule_copies(path: Path) -> list[str]:
    """Each place where the module writes the number rule itself: an import
    of numbers, or an isinstance call whose types are bool or a tuple
    holding bool."""
    copies = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names) or (
            isinstance(node, ast.ImportFrom) and node.module == "numbers"
        ):
            copies.append(f"{path.name}:{node.lineno} imports numbers")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            types = node.args[1] if len(node.args) == 2 else None
            names = types.elts if isinstance(types, ast.Tuple) else [types]
            if any(getattr(name, "id", None) == "bool" for name in names):
                copies.append(f"{path.name}:{node.lineno} asks isinstance(..., bool)")
    return copies


def test_the_number_rule_is_written_once():
    # what counts as a count or a finite number is sim's _is_count and
    # _is_real, which every other check calls
    copies = [c for p in sorted(SRC.glob("*.py")) if p.name != "sim.py" for c in _number_rule_copies(p)]
    assert copies == []
    assert _number_rule_copies(SRC / "sim.py") != []


def test_number_rule_check_finds_each_copy(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import numbers\n"
        "from numbers import Real\n"
        "isinstance(v, bool)\n"
        "isinstance(v, (int, bool))\n"
        "isinstance(v, (int, float))\n"
        "isinstance(v, np.bool_)\n"
        "isinstance(v, dict) and not isinstance(v[0], bool)\n"
    )
    assert _number_rule_copies(module) == [
        "mod.py:1 imports numbers",
        "mod.py:2 imports numbers",
        "mod.py:3 asks isinstance(..., bool)",
        "mod.py:4 asks isinstance(..., bool)",
        "mod.py:7 asks isinstance(..., bool)",
    ]
