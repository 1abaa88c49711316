"""The benchmark's tracer binds borngen functions by module and name, and
sizes the GMMD kernel work from their arguments. These checks load
perfbench/tracer.py as it is and hold borngen to what it binds."""
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from borngen.metrics import KernelConfig, SampleTarget

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
