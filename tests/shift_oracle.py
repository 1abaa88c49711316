"""The parameter-shift MMD gradient, the oracle that the adjoint gradient
(metrics.mmd_gradient) is checked against: 2n + 1 states, the rule that
hardware would use."""
import numpy as np

from borngen.born import model_distribution, model_probs_batch
from borngen.metrics import _gram

# (shift, outer coefficient) of the exact rule for each gate kind. RY and RX
# are generated by a Pauli over 2, giving the usual +/- pi/2 rule; RZZ is
# exp(-i theta Z@Z) without the half, so its distributions have doubled
# frequency in theta: shift by pi/4 and scale by 2.
_SHIFTS = {"RY": (np.pi / 2.0, 1.0), "RX": (np.pi / 2.0, 1.0), "RZZ": (np.pi / 4.0, 2.0)}


def mmd_gradient_shift(model, target, config, condition=None):
    """Parameter-shift gradient of the exact MMD loss (p - t)^T K (p - t)."""
    kinds = {g.param_slot: g.kind for g in model.circuit.gates if g.param_slot is not None}
    n = model.circuit.n_parameters
    thetas = np.repeat(model.theta[None], 2 * n, axis=0)
    coeffs = np.empty(n)
    for i in range(n):
        shift, coeffs[i] = _SHIFTS[kinds[i]]
        thetas[2 * i, i] += shift
        thetas[2 * i + 1, i] -= shift
    p = model_distribution(model, condition)
    kv = _gram(p.register_bits, config).apply(p.probs - target.probs)
    probs = model_probs_batch(model, thetas, condition)
    return coeffs * ((probs[0::2] - probs[1::2]) @ kv)
