"""Born machine generative-model training stack for Monte Carlo events."""

__version__ = "0.1.0"

from .circuits import (  # noqa: F401
    CircuitSpec,
    CorrelationBlockChoice,
    build_1d_rzz_ansatz,
    build_conditional,
    build_correlation_block,
    build_hardware_efficient,
    build_multivariate,
    encode_condition,
)
from .born import BornModel, model_distribution  # noqa: F401
from .distributions import DiscreteDistribution, marginal, sample  # noqa: F401
from .metrics import (  # noqa: F401
    KernelConfig,
    kernel_value,
    mmd_gradient,
    mmd_loss,
    pearson_correlation,
    total_variance,
)
from .optimize import TrainConfig, train  # noqa: F401
from .sim import Gate, StateVector, apply_gate, probabilities, run_circuit  # noqa: F401
