"""Event ingestion, preprocessing, binning and the synthetic generator.

An event set is an (n, 4) float array with columns (e_out, pt, eta, e_in).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr

from .distributions import DiscreteDistribution, bin_shape
from .sim import _is_count, _is_real

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

# off-diagonals (e-pt, e-eta, pt-eta) used as the synthetic ground truth;
# read-only, since synthesize_mfc knows it by identity
DEFAULT_CORRELATION = np.array(
    [
        [1.0, 0.43, 0.89],
        [0.43, 1.0, 0.61],
        [0.89, 0.61, 1.0],
    ]
)
DEFAULT_CORRELATION.flags.writeable = False

CONDITION_VALUES = (50.0, 75.0, 100.0, 125.0, 150.0, 175.0, 200.0)

# preprocessing compresses pt to pt ** _PT_EXPONENT
_PT_EXPONENT = 0.1


@dataclass(frozen=True)
class PreprocessParams:
    """Frozen preprocessing statistics for the forward and inverse maps."""

    incoming_energy_mean: float
    feature_means: tuple[float, ...]
    feature_stds: tuple[float, ...]

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
        for j, n in enumerate(self.n_bins):
            if not (_is_count(n, 2) and n & (n - 1) == 0):
                raise ValueError(f"feature {j}: bin count {n!r} is not a power of two >= 2")
        if not len(self.n_bins) == len(self.lower) == len(self.upper):
            raise ValueError("per-feature lists must have equal length")
        for j, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            if not (_is_real(lo) and _is_real(hi) and lo < hi):
                raise ValueError(
                    f"feature {j}: bin bounds ({lo}, {hi}) must be finite, with lower < upper"
                )

    @property
    def register_bits(self) -> tuple[int, ...]:
        return tuple(int(np.log2(n)) for n in self.n_bins)

    @classmethod
    def from_training_data(cls, features: np.ndarray, n_bins: Sequence[int]):
        features = np.atleast_2d(np.asarray(features, dtype=float))
        columns = [features[:, j] for j in range(features.shape[1])]
        return cls(
            tuple(n_bins),
            tuple(float(col.min()) for col in columns),
            tuple(float(col.max()) for col in columns),
        )

    def bin_centers(self, feature: int) -> np.ndarray:
        lo, hi, n = self.lower[feature], self.upper[feature], self.n_bins[feature]
        width = (hi - lo) / n
        return lo + width * (np.arange(n) + 0.5)


def _raw_features(events: np.ndarray, incoming_mean: float,
                  columns: Sequence[int] = (0, 1, 2)) -> list[np.ndarray]:
    """The requested columns of the features before standardization, each
    its own 1-d array: e_out / incoming_mean, pt ** _PT_EXPONENT and eta (a
    view of events, which no caller writes into)."""
    events = np.asarray(events, dtype=float)
    raw = []
    for j in columns:
        if j == 0:
            raw.append(events[:, 0] / incoming_mean)
        elif j == 1:
            raw.append(events[:, 1] ** _PT_EXPONENT)
        else:
            raw.append(events[:, 2])
    return raw


def _standardized(raw: Sequence[np.ndarray], means, stds) -> np.ndarray:
    """The (n, k) array whose column k is (raw[k] - means[k]) / stds[k]."""
    out = np.empty((len(raw[0]), len(raw)))
    for k, (col, mean, std) in enumerate(zip(raw, means, stds)):
        np.divide(np.subtract(col, mean), std, out=out[:, k])
    return out


def _preprocessed_columns(events: np.ndarray, params: PreprocessParams,
                          columns: Sequence[int]) -> np.ndarray:
    """apply_preprocess(events, params)[:, columns], bitwise, computing
    only those columns."""
    raw = _raw_features(events, params.incoming_energy_mean, columns)
    return _standardized(
        raw, [params.feature_means[j] for j in columns], [params.feature_stds[j] for j in columns]
    )


def _row_order_mean(column: np.ndarray) -> float:
    """column's mean, its values added first to last: bitwise what
    mean(axis=0) gives for that column of a C-ordered (n, k) array."""
    return float(np.cumsum(column)[-1] / len(column))


def preprocess(events: np.ndarray) -> tuple[np.ndarray, PreprocessParams]:
    """Scale energy by the mean incoming energy, root-compress pt, then
    z-score each feature with population statistics.

    `events` is an (n, 4) array of (e_out, pt, eta, e_in), in any memory
    layout; it is never written into. Each raw feature is its own 1-d
    array (eta a view of its column), and its mean and std add its values
    in row order, as np.cumsum(col)[-1] / n and the same over the squared
    deviations: bitwise what raw.mean(axis=0) and raw.std(axis=0) give on
    the C-ordered (n, 3) raw features, which a 1-d col.sum(), adding
    pairwise, would not be. Its column of the C-ordered (n, 3) result is
    (col - mean) / std. A constant feature, or a non-finite mean(e_in),
    feature mean or std (values whose sums or squares overflow), is a
    ValueError that names the features.
    """
    if len(events) == 0:
        raise ValueError("empty event set")
    with np.errstate(all="ignore"):  # overflow shows as a non-finite statistic
        incoming_mean = float(events[:, 3].mean())
        if not math.isfinite(incoming_mean):
            raise ValueError("non-finite mean of feature(s) ['e_in']: cannot standardize")
        raw = _raw_features(events, incoming_mean)
        means = [_row_order_mean(col) for col in raw]
        stds = []
        for col, mean in zip(raw, means):
            dev = np.subtract(col, mean)
            stds.append(math.sqrt(_row_order_mean(np.multiply(dev, dev, out=dev))))
    bad = [FEATURE_NAMES[j] for j, (mean, std) in enumerate(zip(means, stds))
           if not (math.isfinite(mean) and math.isfinite(std))]
    if bad:
        raise ValueError(f"non-finite mean or std of feature(s) {bad}: cannot standardize")
    bad = [FEATURE_NAMES[j] for j, std in enumerate(stds) if std == 0]
    if bad:
        raise ValueError(f"constant feature(s) {bad}: cannot standardize")
    return _standardized(raw, means, stds), PreprocessParams(incoming_mean, tuple(means), tuple(stds))


def apply_preprocess(events: np.ndarray, params: PreprocessParams):
    """Preprocess with previously frozen statistics (for test-set data):
    the (n, 3) features that preprocess computes, with params' statistics.
    Each element takes the same arithmetic as in preprocess, so the
    training set's own params give preprocess's features bitwise."""
    return _preprocessed_columns(events, params, range(len(FEATURE_NAMES)))


def inverse_preprocess(features: np.ndarray, params: PreprocessParams) -> np.ndarray:
    """Map preprocessed features back to physical (e_out, pt, eta)."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    raw = x * np.array(params.feature_stds) + np.array(params.feature_means)
    out = np.empty_like(raw)
    out[:, 0] = raw[:, 0] * params.incoming_energy_mean
    out[:, 1] = raw[:, 1] ** (1.0 / _PT_EXPONENT)
    out[:, 2] = raw[:, 2]
    return out


def discretize(features: np.ndarray, spec: BinningSpec) -> DiscreteDistribution:
    """Empirical joint distribution over the bin tuples of the spec. A value
    outside a feature's bounds counts in that feature's nearest bin. No
    events, or a NaN or infinite value, is a ValueError."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    if x.shape[1] != len(spec.n_bins):
        raise ValueError("feature dimension does not match binning spec")
    if len(x) == 0:
        raise ValueError("no events to discretize")
    finite = np.isfinite(x)
    if not finite.all():
        bad = np.flatnonzero(~finite.all(axis=0))[0]
        raise ValueError(f"feature {bad} has a NaN or infinite value: it falls in no bin")
    bins = []  # each feature's bin indices, last feature first as bin_shape orders them
    for j in reversed(range(x.shape[1])):
        lo, hi, n = spec.lower[j], spec.upper[j], spec.n_bins[j]
        idx = np.floor((x[:, j] - lo) / ((hi - lo) / n))
        # clipped while still a float: a float beyond intp's range has no defined cast
        bins.append(np.clip(idx, 0, n - 1, out=idx).astype(np.intp))
    bits = spec.register_bits
    flat = np.ravel_multi_index(tuple(bins), bin_shape(bits))
    counts = np.bincount(flat, minlength=2 ** sum(bits))
    return DiscreteDistribution(counts / counts.sum(), bits)


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
_LATENT_CORRELATION.flags.writeable = False
# its Cholesky factor, which every synthesize_mfc call at the default takes
_DEFAULT_FACTOR = np.linalg.cholesky(_LATENT_CORRELATION)
_DEFAULT_FACTOR.flags.writeable = False


def _latent_for(corr: np.ndarray) -> np.ndarray:
    """Latent copula correlation matrix realizing the requested physical one."""
    if np.allclose(corr, DEFAULT_CORRELATION):
        return _LATENT_CORRELATION
    # For other requests use the grade-correlation inverse, exact for the two
    # linear transforms and a close approximation for the pt pair.
    lat = 2.0 * np.sin(np.pi * corr / 6.0)
    np.fill_diagonal(lat, 1.0)
    return lat


def _latent_factor(corr: np.ndarray) -> np.ndarray:
    """The Cholesky factor of the latent correlation for a requested
    physical one, which must be symmetric with unit diagonal and positive
    definite."""
    if not np.allclose(corr, corr.T) or not np.allclose(np.diag(corr), 1.0):
        raise ValueError("target_corr must be symmetric with unit diagonal")
    try:
        return np.linalg.cholesky(_latent_for(corr))
    except np.linalg.LinAlgError as exc:
        raise ValueError("target_corr is not positive definite") from exc


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
    matrix stays close to target_corr. target_corr None (or
    DEFAULT_CORRELATION itself) takes the latent factor computed at import;
    any other matrix, a copy of the default too, is checked and factored on
    each call, and gives the same events as the default when it is close
    to it. A matrix that is not symmetric with a unit diagonal, or not
    positive definite, is a ValueError.
    """
    if not _is_count(n_events, 1):
        raise ValueError(f"n_events must be an integer >= 1, not {n_events!r}")
    if target_corr is None or target_corr is DEFAULT_CORRELATION:
        chol = _DEFAULT_FACTOR
    else:
        chol = _latent_factor(np.asarray(target_corr))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_events, 3)) @ chol.T
    u = ndtr(z)  # uniform copula marginals on (0, 1)
    # near-uniform marginals with soft Gaussian-ish shoulders instead of
    # hard edges; the tanh term is bounded so positivity is guaranteed
    soft = u + 0.16 * np.tanh(z / 2.0)
    events = np.empty((n_events, 4))
    # location drifts linearly with the condition energy; the full-scale
    # width keeps neighbouring conditions overlapping and learnable
    np.multiply(25.0 + 0.05 * condition, 0.5 + soft[:, 0], out=events[:, 0])
    # pt spans roughly [1, 58] GeV; the tenth power undoes the pt^0.1
    # compression applied during preprocessing
    events[:, 1] = (1.0 + 0.5 * (soft[:, 1] + 0.16) / 1.32) ** 10
    np.add(2.0, 0.5 * soft[:, 2], out=events[:, 2])
    events[:, 3] = float(condition)
    return events


def _split_order(n_rows: int, seed: int) -> np.ndarray:
    """The row order with which train_test_split splits n_rows rows at
    seed: its first half picks the training rows, the rest the test rows."""
    return np.random.default_rng(seed).permutation(n_rows)


def _split_by(events: np.ndarray, order: np.ndarray,
              train: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """The (train, test) halves of events that order, a permutation of the
    rows, picks. A given train array (rows of a pooled array) receives the
    train half."""
    half = len(events) // 2
    # mode="clip" takes straight into train; "raise" would buffer. order's
    # entries are all in range, so no index is clipped.
    train = np.take(events, order[:half], axis=0, out=train, mode="clip")
    return train, events.take(order[half:], axis=0)


def train_test_split(events: np.ndarray, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint, exhaustive, seed-stable split of the rows into (train,
    test) halves; for an odd count the test half has the extra row.

    The split depends only on the row count and the seed: it takes the
    rows in _split_order(len(events), seed). So event sets of one length
    split alike, and a caller with several of them (exp-cond's conditions)
    draws that order once and applies it with _split_by.
    """
    return _split_by(events, _split_order(len(events), seed))


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
                for column, value in zip(_COLUMNS, values):
                    if not math.isfinite(value):
                        raise ValueError(f"{column} must be finite")
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
