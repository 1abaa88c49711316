"""The benchmark's tracer binds borngen functions by module and name, and
sizes the GMMD kernel work from their arguments. These checks load
perfbench/tracer.py as it is and hold borngen to what it binds, and
borngen's tracer-only imports to what the tracer still binds."""
import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from borngen.metrics import KernelConfig, SampleTarget

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
SRC = ROOT / "src" / "borngen"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves_to_a_callable(tracer):
    bindings = tracer.BINDINGS + tracer.TRAIN_BINDINGS
    assert bindings
    for module_name, attr, _, _ in bindings:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"


def _unbound_kept_imports(path: Path, bound: set) -> list[str]:
    """Names that an import marked `noqa: F401` keeps in the borngen module
    at path, though no (module, name) pair in bound names them."""
    module, source = f"borngen.{path.stem}", path.read_text()
    lines = source.splitlines()
    kept = [
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "noqa: F401" in lines[node.lineno - 1]
        for alias in node.names
    ]
    return [f"{module}.{name}" for name in kept if (module, name) not in bound]


def test_every_import_kept_for_the_tracer_is_still_bound(tracer):
    # __init__ re-exports the public names; any other module keeps an
    # unused import only because the tracer times a span through it
    bound = {(module, attr) for module, attr, _, _ in tracer.BINDINGS + tracer.TRAIN_BINDINGS}
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert [name for p in paths for name in _unbound_kept_imports(p, bound)] == []


def test_kept_import_check_finds_an_unbound_one(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from .a import bound, loose  # noqa: F401\n"
        "from .b import used\n"
        "import os  # noqa: F401\n"
    )
    bound = {("borngen.mod", "bound"), ("borngen.other", "loose")}
    assert _unbound_kept_imports(module, bound) == ["borngen.mod.loose", "borngen.mod.os"]


def test_a_sample_target_counts_as_its_rows(tracer):
    config = KernelConfig()
    generated, rows = np.zeros((6, 1)), np.ones((9, 1))
    target = SampleTarget(rows, config)
    assert len(np.atleast_2d(target)) == len(rows)
    (counter,) = [c for _, attr, _, c in tracer.BINDINGS if attr == "gmmd_batch_loss"]
    by_target, by_rows = Counter(), Counter()
    counter(by_target, generated, target, config)
    counter(by_rows, generated, rows, config)
    assert by_target == by_rows and by_rows["baseline.kernel_entries"] > 0
