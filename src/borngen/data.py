"""Event ingestion, preprocessing, binning and the synthetic generator.

An event set is an (n, 4) float array with columns (e_out, pt, eta, e_in).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr

from .distributions import DiscreteDistribution

__all__ = [
    "PreprocessParams",
    "BinningSpec",
    "FEATURE_NAMES",
    "DEFAULT_CORRELATION",
    "preprocess",
    "apply_preprocess",
    "inverse_preprocess",
    "discretize",
    "synthesize_mfc",
    "load_csv",
    "train_test_split",
]

FEATURE_NAMES = ("e_out", "pt", "eta")
# the event-array columns, which are also the CSV header
_COLUMNS = (*FEATURE_NAMES, "e_in")

# off-diagonals (e-pt, e-eta, pt-eta) used as the synthetic ground truth
DEFAULT_CORRELATION = np.array(
    [
        [1.0, 0.43, 0.89],
        [0.43, 1.0, 0.61],
        [0.89, 0.61, 1.0],
    ]
)

CONDITION_VALUES = (50.0, 75.0, 100.0, 125.0, 150.0, 175.0, 200.0)


@dataclass(frozen=True)
class PreprocessParams:
    """Frozen preprocessing statistics for the forward and inverse maps."""

    incoming_energy_mean: float
    feature_means: tuple[float, ...]
    feature_stds: tuple[float, ...]
    pt_exponent: float = 0.1

    def __post_init__(self):
        if any(s <= 0 for s in self.feature_stds):
            raise ValueError("feature stds must be positive")


@dataclass(frozen=True)
class BinningSpec:
    """Uniform-width bins per feature; bin counts are powers of two."""

    n_bins: tuple[int, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        for n in self.n_bins:
            if n < 2 or n & (n - 1):
                raise ValueError(f"bin count {n} is not a power of two >= 2")
        if not len(self.n_bins) == len(self.lower) == len(self.upper):
            raise ValueError("per-feature lists must have equal length")
        if any(lo >= hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("need lower < upper per feature")

    @property
    def register_bits(self) -> tuple[int, ...]:
        return tuple(int(np.log2(n)) for n in self.n_bins)

    @classmethod
    def from_training_data(cls, features: np.ndarray, n_bins: Sequence[int]):
        features = np.atleast_2d(np.asarray(features, dtype=float))
        return cls(
            tuple(int(n) for n in n_bins),
            tuple(float(x) for x in features.min(axis=0)),
            tuple(float(x) for x in features.max(axis=0)),
        )

    def bin_centers(self, feature: int) -> np.ndarray:
        lo, hi, n = self.lower[feature], self.upper[feature], self.n_bins[feature]
        width = (hi - lo) / n
        return lo + width * (np.arange(n) + 0.5)

    def bin_indices(self, features: np.ndarray) -> np.ndarray:
        """(m, D) feature values -> (m, D) bin indices, clipped to range."""
        x = np.atleast_2d(np.asarray(features, dtype=float))
        out = np.empty(x.shape, dtype=int)
        for j, (lo, hi, n) in enumerate(zip(self.lower, self.upper, self.n_bins)):
            width = (hi - lo) / n
            idx = np.floor((x[:, j] - lo) / width).astype(int)
            out[:, j] = np.clip(idx, 0, n - 1)
        return out


def _raw_features(arr: np.ndarray, incoming_mean: float, pt_exponent: float):
    out = np.empty((len(arr), 3))
    out[:, 0] = arr[:, 0] / incoming_mean
    out[:, 1] = arr[:, 1] ** pt_exponent
    out[:, 2] = arr[:, 2]
    return out


def preprocess(events: np.ndarray) -> tuple[np.ndarray, PreprocessParams]:
    """Scale energy by the mean incoming energy, root-compress pt, then
    z-score each feature with population statistics.

    `events` is an (n, 4) array of (e_out, pt, eta, e_in).
    """
    if len(events) == 0:
        raise ValueError("empty event set")
    incoming_mean = float(events[:, 3].mean())
    raw = _raw_features(events, incoming_mean, 0.1)
    means = raw.mean(axis=0)
    stds = raw.std(axis=0)
    if np.any(stds == 0):
        bad = [FEATURE_NAMES[j] for j in np.flatnonzero(stds == 0)]
        raise ValueError(f"constant feature(s) {bad}: cannot standardize")
    params = PreprocessParams(
        incoming_mean, tuple(map(float, means)), tuple(map(float, stds))
    )
    return (raw - means) / stds, params


def apply_preprocess(events: np.ndarray, params: PreprocessParams):
    """Preprocess with previously frozen statistics (for test-set data)."""
    raw = _raw_features(events, params.incoming_energy_mean, params.pt_exponent)
    return (raw - np.array(params.feature_means)) / np.array(params.feature_stds)


def inverse_preprocess(features: np.ndarray, params: PreprocessParams) -> np.ndarray:
    """Map preprocessed features back to physical (e_out, pt, eta)."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    raw = x * np.array(params.feature_stds) + np.array(params.feature_means)
    out = np.empty_like(raw)
    out[:, 0] = raw[:, 0] * params.incoming_energy_mean
    out[:, 1] = raw[:, 1] ** (1.0 / params.pt_exponent)
    out[:, 2] = raw[:, 2]
    return out


def discretize(features: np.ndarray, spec: BinningSpec) -> DiscreteDistribution:
    """Empirical joint distribution over the bin tuples of the spec."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    if x.shape[1] != len(spec.n_bins):
        raise ValueError("feature dimension does not match binning spec")
    idx = spec.bin_indices(x)
    bits = spec.register_bits
    flat = np.zeros(len(idx), dtype=int)
    shift = 0
    for j, b in enumerate(bits):
        flat |= idx[:, j] << shift
        shift += b
    counts = np.bincount(flat, minlength=2**shift)
    names = FEATURE_NAMES[: len(bits)] if len(bits) <= 3 else None
    return DiscreteDistribution(counts / counts.sum(), bits, names)


# Latent Gaussian correlations calibrated (4e6-sample Monte Carlo bisection)
# so that the physical-space sample Pearson off-diagonals land on
# DEFAULT_CORRELATION despite the nonlinear pt transform below.
_LATENT_CORRELATION = np.array(
    [
        [1.0, 0.4771, 0.8986],
        [0.4771, 1.0, 0.6729],
        [0.8986, 0.6729, 1.0],
    ]
)


def _latent_for(corr: np.ndarray) -> np.ndarray:
    """Latent copula correlation matrix realizing the requested physical one."""
    if np.allclose(corr, DEFAULT_CORRELATION):
        return _LATENT_CORRELATION
    # For other requests use the grade-correlation inverse, exact for the two
    # linear transforms and a close approximation for the pt pair.
    lat = 2.0 * np.sin(np.pi * corr / 6.0)
    np.fill_diagonal(lat, 1.0)
    return lat


def synthesize_mfc(
    n_events: int,
    condition: float,
    target_corr: Optional[np.ndarray] = None,
    seed: int = 0,
) -> np.ndarray:
    """Correlated stand-in events, an (n_events, 4) array of (e_out, pt,
    eta, e_in). Their energy scale drifts linearly with the condition
    energy e_in, so conditional models have something to learn.

    A Gaussian copula is pushed through monotone per-feature transforms;
    the latent correlations are compensated so the physical sample Pearson
    matrix stays close to target_corr.
    """
    if n_events < 1:
        raise ValueError("n_events must be >= 1")
    corr = DEFAULT_CORRELATION if target_corr is None else np.asarray(target_corr)
    if not np.allclose(corr, corr.T) or not np.allclose(np.diag(corr), 1.0):
        raise ValueError("target_corr must be symmetric with unit diagonal")
    try:
        chol = np.linalg.cholesky(_latent_for(corr))
    except np.linalg.LinAlgError as exc:
        raise ValueError("target_corr is not positive definite") from exc
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_events, 3)) @ chol.T
    u = ndtr(z)  # uniform copula marginals on (0, 1)
    # near-uniform marginals with soft Gaussian-ish shoulders instead of
    # hard edges; the tanh term is bounded so positivity is guaranteed
    soft = u + 0.16 * np.tanh(z / 2.0)
    # location drifts linearly with the condition energy; the full-scale
    # width keeps neighbouring conditions overlapping and learnable
    e_out = (25.0 + 0.05 * condition) * (0.5 + soft[:, 0])
    # pt spans roughly [1, 58] GeV; the tenth power undoes the pt^0.1
    # compression applied during preprocessing
    pt = (1.0 + 0.5 * (soft[:, 1] + 0.16) / 1.32) ** 10
    eta = 2.0 + 0.5 * soft[:, 2]
    return np.column_stack([e_out, pt, eta, np.full(n_events, float(condition))])


def train_test_split(events: np.ndarray, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint, exhaustive, seed-stable split of the rows into equal halves."""
    order = np.random.default_rng(seed).permutation(len(events))
    half = len(events) // 2
    return events[order[:half]], events[order[half:]]


def load_csv(path) -> np.ndarray:
    """Read an (n, 4) event array from a CSV with columns e_out, pt, eta, e_in."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: missing header row")
        missing = [c for c in _COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing column(s) {missing}")
        rows = []
        for i, row in enumerate(reader, start=1):
            try:
                values = [float(row[c]) for c in _COLUMNS]
                if values[0] <= 0:
                    raise ValueError("e_out must be positive")
                if values[1] < 0:
                    raise ValueError("pt must be nonnegative")
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: malformed row {i}: {exc}") from exc
            rows.append(values)
    return np.array(rows, dtype=float).reshape(-1, len(_COLUMNS))


def save_csv(events: np.ndarray, path) -> None:
    """Write an (n, 4) event array as CSV, each value as its shortest repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for row in events.tolist():
            writer.writerow([repr(v) for v in row])
