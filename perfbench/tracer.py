"""Spans and work counts at borngen's layer boundaries.

borngen modules import functions by name (`from .sim import run_circuit`),
so a span must wrap the binding in the *calling* module: patching
`borngen.sim.run_circuit_batch` alone records nothing, because
`borngen.born` holds its own reference. `BINDINGS` lists every binding
the three workloads call through, with the span it records.

Self time of a span is its duration minus the time its child spans cover.
Counts are derived from call arguments alone, so they repeat exactly for a
given workload length whatever the seed or the machine.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

COMPLEX_BYTES = 16


def _sim_work(counts, circuit, rows):
    gates = rows * len(circuit.gates)
    counts["sim.gate_applications"] += gates
    # computed, not measured: each gate reads and writes every amplitude
    # once; caches and temporaries are ignored
    counts["sim.bytes_computed"] += gates * 2**circuit.n_qubits * COMPLEX_BYTES * 2


def _count_batch(counts, circuit, thetas, *args, **kwargs):
    rows = np.atleast_2d(thetas).shape[0]
    counts["sim.run_circuit_batch.rows"] += rows
    _sim_work(counts, circuit, rows)


def _count_single(counts, circuit, *args, **kwargs):
    _sim_work(counts, circuit, 1)


def _count_gradient_states(counts, model, *args, **kwargs):
    # parameter shift: the unshifted state plus two per parameter
    counts["metrics.gradient_states"] += 2 * model.circuit.n_parameters + 1


def _count_epochs(counts, model, target, config, *args, **kwargs):
    extra = config.spsa_epochs if config.optimizer == "mixed" else 0
    counts["optimize.epochs"] += config.max_epochs + extra


def _count_events(counts, n_events, *args, **kwargs):
    counts["data.events"] += n_events


def _count_shots(counts, dist, n_shots, *args, **kwargs):
    counts["distributions.sample.shots"] += n_shots


def _kernel_blocks(counts, n_generated, n_data, config):
    blocks = n_generated * n_generated + n_generated * n_data + n_data * n_data
    counts["baseline.kernel_entries"] += blocks * len(config.bandwidths)


def _count_loss_and_grad(counts, weights, z, data, config):
    _kernel_blocks(counts, len(np.atleast_2d(z)), len(np.atleast_2d(data)), config)


def _count_batch_loss(counts, generated, data, config):
    _kernel_blocks(counts, len(np.atleast_2d(generated)), len(np.atleast_2d(data)), config)


# (calling module, attribute, span, counter). Training entry points are
# listed in TRAIN_BINDINGS, because the untraced pass times them too.
BINDINGS = (
    ("borngen.born", "run_circuit_batch", "sim.run_circuit_batch", _count_batch),
    ("borngen.born", "run_circuit", "sim.run_circuit", _count_single),
    ("borngen.metrics", "model_distribution", "born.model_distribution", None),
    ("borngen.optimize", "model_distribution", "born.model_distribution", None),
    ("borngen.experiments", "model_distribution", "born.model_distribution", None),
    ("borngen.metrics", "model_probs_batch", "born.model_probs_batch", None),
    ("borngen.optimize", "mmd_gradient", "metrics.mmd_gradient", _count_gradient_states),
    ("borngen.optimize", "mmd_loss", "metrics.mmd_loss", None),
    ("borngen.optimize", "GramCache", "metrics.gram", None),
    ("borngen.metrics", "_gram", "metrics.gram", None),
    ("borngen.optimize", "adam_step", "optimize.adam_step", None),
    ("borngen.baseline", "adam_step", "optimize.adam_step", None),
    ("borngen.experiments", "synthesize_mfc", "data.synthesize_mfc", _count_events),
    ("borngen.data", "synthesize_mfc", "data.synthesize_mfc", _count_events),
    ("borngen.experiments", "preprocess", "data.preprocess", None),
    ("borngen.experiments", "apply_preprocess", "data.preprocess", None),
    ("borngen.data", "preprocess", "data.preprocess", None),
    ("borngen.data", "apply_preprocess", "data.preprocess", None),
    ("borngen.experiments", "discretize", "data.discretize", None),
    ("borngen.baseline", "discretize", "data.discretize", None),
    ("borngen.data", "discretize", "data.discretize", None),
    ("borngen.experiments", "sample", "distributions.sample", _count_shots),
    ("borngen.experiments", "apply_readout_noise", "noise", None),
    ("borngen.experiments", "estimate_confusion_matrix", "noise", None),
    ("borngen.experiments", "mitigate_readout", "noise", None),
    ("borngen.optimize", "readout_matrix", "noise", None),
    ("borngen.experiments", "run_experiment", "experiments.run_experiment", None),
    ("borngen.baseline", "gmmd_loss_and_grad", "baseline.gmmd_loss_and_grad", _count_loss_and_grad),
    ("borngen.baseline", "gmmd_batch_loss", "baseline.gmmd_batch_loss", _count_batch_loss),
    ("borngen.baseline", "forward", "baseline.forward", None),
)

TRAIN_BINDINGS = (
    ("borngen.experiments", "train", "optimize.train", _count_epochs),
    ("borngen.baseline", "train_gmmd", "baseline.train_gmmd", None),
)


class Tracer:
    """Self time, call counts and work counts per span name."""

    def __init__(self):
        self.self_time = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._children = []  # child seconds of each open span, innermost last

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            if counter is not None:
                counter(self.counts, *args, **kwargs)
            self.calls[name] += 1
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_time[name] += elapsed - self._children.pop()
                if self._children:
                    self._children[-1] += elapsed

        return traced


@contextmanager
def patched(wrappers):
    """Replace module attributes for the duration of the block.

    `wrappers` maps (module name, attribute) to a function of the original.
    """
    saved = []
    try:
        for (module_name, attr), make in wrappers.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def trace_wrappers(tracer: Tracer) -> dict:
    """Wrappers for `patched` that record every binding's span on `tracer`."""
    return {
        (module, attr): (lambda fn, n=name, c=counter: tracer.wrap(n, fn, c))
        for module, attr, name, counter in BINDINGS + TRAIN_BINDINGS
    }
