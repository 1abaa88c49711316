"""Born machine model: circuit + trainable parameters + bin layout."""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .circuits import CircuitSpec, circuit_from_dict, circuit_to_dict, encode_condition
from .distributions import DiscreteDistribution
from .sim import _is_real, _json_object, run_circuit, run_circuit_batch

__all__ = [
    "BornModel",
    "model_distribution",
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
        if theta.shape != (self.circuit.n_parameters,):
            raise ValueError(f"theta must be a vector of {self.circuit.n_parameters} parameters, "
                             f"not an array of shape {theta.shape}")
        bad = np.flatnonzero(~np.isfinite(theta))
        if len(bad):
            raise ValueError(f"theta[{bad[0]}] is {theta[bad[0]]}: parameters must be finite")
        pair = self.condition_range
        if pair is None:
            if self.circuit.n_data_slots:
                raise ValueError(
                    f"condition_range is None, but the circuit's {self.circuit.n_data_slots} data "
                    "slots need the range (e_min, e_max) that the condition is encoded over"
                )
            return
        if self.circuit.n_data_slots == 0:
            raise ValueError("condition_range set but circuit has no data slots")
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                and all(map(_is_real, pair)) and pair[0] < pair[1]):
            raise ValueError(
                f"condition_range must be a pair (e_min, e_max) of finite numbers with "
                f"e_min < e_max, not {pair!r}"
            )
        object.__setattr__(self, "condition_range", (float(pair[0]), float(pair[1])))

    def with_theta(self, theta: np.ndarray) -> "BornModel":
        """This model with other parameters: the same circuit and condition
        range, with only theta's length checked again (training calls this
        once per step, and checks that theta stays finite itself)."""
        theta = np.asarray(theta, dtype=float)
        if len(theta) != self.circuit.n_parameters:
            raise ValueError(
                f"theta length {len(theta)} != {self.circuit.n_parameters} parameters"
            )
        model = object.__new__(type(self))
        model.__dict__.update(self.__dict__, theta=theta)  # frozen: no __setattr__
        return model

    def data_angles(self, condition: Optional[float]) -> Optional[np.ndarray]:
        if self.condition_range is None:
            if condition is not None:
                raise ValueError("model takes no condition")
            return None
        if condition is None:
            raise ValueError("conditional model requires a condition value")
        return np.full(self.circuit.n_data_slots, encode_condition(condition, *self.condition_range))


def model_distribution(
    model: BornModel, condition: Optional[float] = None
) -> DiscreteDistribution:
    """Exact joint distribution over bin tuples via the Born rule."""
    circuit = model.circuit
    amps = run_circuit(circuit, model.theta, model.data_angles(condition))
    return DiscreteDistribution(np.abs(amps) ** 2, circuit.register_bits)


def model_probs_batch(
    model: BornModel, thetas: np.ndarray, condition: Optional[float] = None
) -> np.ndarray:
    """Probability vectors for a batch of parameter vectors, one per row."""
    amps = run_circuit_batch(model.circuit, thetas, model.data_angles(condition))
    return np.abs(amps) ** 2


CHECKPOINT_SCHEMA = 1


def save_checkpoint(model: BornModel, path, extra: Optional[dict] = None) -> None:
    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "circuit": circuit_to_dict(model.circuit),
        "theta": [float(t) for t in model.theta],
        "condition_range": list(model.condition_range)
        if model.condition_range
        else None,
        "extra": extra or {},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def load_checkpoint(path) -> BornModel:
    """The model that save_checkpoint wrote to path. A file that holds no
    such model is a ValueError that names the file and what is wrong."""
    with open(path) as fh:
        payload = json.load(fh)
    try:
        # files from before the key existed are version 1
        schema = _json_object(payload, "a checkpoint").get("schema", 1)
        if schema != CHECKPOINT_SCHEMA:
            raise ValueError(
                f"checkpoint schema version {schema!r} is not supported "
                f"(this borngen reads version {CHECKPOINT_SCHEMA})"
            )
        _json_object(payload, "the checkpoint", ("circuit", "theta"))
        return BornModel(
            circuit_from_dict(payload["circuit"]), payload["theta"], payload.get("condition_range")
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
