"""Bin-layout oracle: a bin tuple maps to one basis index everywhere the
layout is read, with feature 0 in the lowest bits of the index."""
import itertools

import numpy as np
import pytest

from borngen.born import BornModel, model_distribution
from borngen.circuits import (
    CircuitSpec,
    CorrelationBlockChoice,
    build_hardware_efficient,
    build_multivariate,
)
from borngen.data import BinningSpec, discretize
from borngen.distributions import marginal
from borngen.metrics import KernelConfig, _gram


# Each circuit is one RY(theta_q) on each qubit q, with a register per
# feature; build_multivariate takes equal registers only.
UNEQUAL_LAYOUT = (("qA", (0, 2)), ("qB", (2, 5)), ("qC", (5, 6)))
FOUR_LAYOUT = (("qA", (0, 1)), ("qB", (1, 3)), ("qC", (3, 4)), ("qD", (4, 6)))
CIRCUITS = {
    (16,): build_hardware_efficient(4, 0),
    (8, 8, 8): build_multivariate(3, 3, 0, CorrelationBlockChoice()),
    (4, 8, 2): CircuitSpec(
        6, build_hardware_efficient(6, 0).gates, 6, register_layout=UNEQUAL_LAYOUT
    ),
    (2, 4, 2, 4): CircuitSpec(
        6, build_hardware_efficient(6, 0).gates, 6, register_layout=FOUR_LAYOUT
    ),
}
# each feature's bin bounds, the first len(n_bins) of them taken
LOWER, UPPER = (-1.0, 0.0, 2.0, -3.0), (1.0, 4.0, 3.0, 5.0)


@pytest.mark.parametrize("n_bins", list(CIRCUITS), ids=lambda bins: "-".join(map(str, bins)))
def test_a_bin_tuple_has_one_basis_index_everywhere(n_bins):
    spec = BinningSpec(n_bins, LOWER[: len(n_bins)], UPPER[: len(n_bins)])
    bits = spec.register_bits
    size = 2 ** sum(bits)
    # row i: the bin tuple of index i, read as mixed-radix digits with feature 0 lowest
    coordinates = np.array(np.unravel_index(np.arange(size), n_bins[::-1]))[::-1].T
    model = BornModel(CIRCUITS[n_bins], np.zeros(sum(bits)))
    assert model.circuit.register_bits == bits
    gram = _gram(bits, KernelConfig())
    for bin_tuple in itertools.product(*map(range, n_bins)):
        index = np.ravel_multi_index(bin_tuple[::-1], n_bins[::-1])
        event = [spec.bin_centers(j)[b] for j, b in enumerate(bin_tuple)]
        dist = discretize(np.array([event]), spec)
        assert np.flatnonzero(dist.probs).tolist() == [index]
        assert tuple(dist.bin_coordinates()[index]) == bin_tuple
        for j, b in enumerate(bin_tuple):
            assert np.flatnonzero(marginal(dist, j).probs).tolist() == [b]
        # RY(pi) flips qubit q from |0> to |1>: the qubits of the index's set bits
        theta = np.pi * ((index >> np.arange(sum(bits))) & 1)
        probs = model_distribution(model.with_theta(theta)).probs
        assert np.argmax(probs) == index and probs[index] == pytest.approx(1.0, abs=1e-12)
        squared = ((coordinates - bin_tuple) ** 2).sum(axis=1)
        kernel_row = sum(np.exp(-squared / (2.0 * s)) for s in KernelConfig().bandwidths)
        np.testing.assert_allclose(gram.apply(dist.probs), kernel_row, rtol=1e-12, atol=0)
