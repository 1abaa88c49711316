"""Born machine model: circuit + trainable parameters + bin layout."""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .circuits import CircuitSpec, circuit_from_json, circuit_to_json, encode_condition
from .distributions import DiscreteDistribution, marginal, sample
from .sim import probabilities, run_circuit, run_circuit_batch

__all__ = [
    "BornModel",
    "model_distribution",
    "marginal",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class BornModel:
    """A circuit with bound parameters, producing bin distributions."""

    circuit: CircuitSpec
    theta: np.ndarray
    condition_range: Optional[tuple[float, float]] = None

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", theta)
        if len(theta) != self.circuit.n_parameters:
            raise ValueError(
                f"theta length {len(theta)} != {self.circuit.n_parameters} parameters"
            )
        if self.condition_range is not None and self.circuit.n_data_slots == 0:
            raise ValueError("condition_range set but circuit has no data slots")

    def with_theta(self, theta: np.ndarray) -> "BornModel":
        return replace(self, theta=np.asarray(theta, dtype=float))

    def data_angles(self, condition: Optional[float]) -> Optional[np.ndarray]:
        if self.condition_range is None:
            if condition is not None:
                raise ValueError("model takes no condition")
            return None
        if condition is None:
            raise ValueError("conditional model requires a condition value")
        angle = encode_condition(condition, *self.condition_range)
        return np.full(self.circuit.n_data_slots, angle)


def model_distribution(
    model: BornModel, condition: Optional[float] = None
) -> DiscreteDistribution:
    """Exact joint distribution over bin tuples via the Born rule."""
    state = run_circuit(model.circuit, model.theta, model.data_angles(condition))
    dist = probabilities(state, model.circuit.register_bits)
    return DiscreteDistribution(
        dist.probs, dist.register_bits, model.circuit.register_names, condition
    )


def model_probs_batch(
    model: BornModel, thetas: np.ndarray, condition: Optional[float] = None
) -> np.ndarray:
    """Probability vectors for a batch of parameter vectors, one per row."""
    amps = run_circuit_batch(model.circuit, thetas, model.data_angles(condition))
    return np.abs(amps) ** 2


def save_checkpoint(model: BornModel, path, extra: Optional[dict] = None) -> None:
    payload = {
        "circuit": json.loads(circuit_to_json(model.circuit)),
        "theta": [float(t) for t in model.theta],
        "condition_range": list(model.condition_range)
        if model.condition_range
        else None,
        "extra": extra or {},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def load_checkpoint(path) -> BornModel:
    with open(path) as fh:
        payload = json.load(fh)
    circuit = circuit_from_json(json.dumps(payload["circuit"]))
    rng = payload.get("condition_range")
    return BornModel(
        circuit,
        np.asarray(payload["theta"], dtype=float),
        tuple(rng) if rng else None,
    )
