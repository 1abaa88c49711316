"""Fixed reference kernels that measure how fast the host runs right now.

On a shared host the same code can run 20-30 % slower for minutes at a
time, and process CPU time slows with it, so medians of wall time from two
sets of runs can differ by more than any bound. The benchmark therefore
times its workload's kernel beside the passes and reports every time
scaled to a reference speed:

    reported seconds = measured seconds * reference time / median kernel time

The kernels use numpy only, never borngen, so a change to borngen cannot
change them: their time follows the host alone. The host's slow phases do
not slow every kind of work alike, so each workload gets a kernel doing
the work it spends its time on:

- `multi` and `small` (simulation): gate applications on a one-row 3-qubit
  state (per call overhead, as in single-state simulation) and on a 91-row
  9-qubit batch (throughput, as in batched simulation), and Gaussian
  kernel blocks of a 512-row sample (as in the MMD loss).
- `gmmd`: Gaussian kernel blocks of a 2048-row sample over five
  bandwidths, as the GMMD validation pass builds them (62 % of its
  time). Its 32 MB arrays follow the host's memory bandwidth. The
  simulation kernel slowed by up to 1.8x in phases that slowed `gmmd` by
  1.45x, so it made the scaled `gmmd` times fall 20 %; in an 18-minute
  probe alternating short passes with both kernels, it left per-pass
  `gmmd` training times varying by 11 % (coefficient of variation), this
  kernel by 7 %. Its arrays are smaller than those of the pass itself, so
  it leaves `peak_rss_mb` alone; on the other workloads it would not.

Import this module only after `env.pin_blas_threads()`.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

_ROTATION = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
_rng = np.random.default_rng(0)
_SAMPLE_A = _rng.standard_normal((512, 16))
_SAMPLE_B = _rng.standard_normal((512, 16))
_VALIDATION = _rng.standard_normal((2048, 1))


def _apply(state, n_qubits, qubit):
    rows = state.shape[0]
    axis = 1 + (n_qubits - 1 - qubit)
    t = np.moveaxis(state.reshape((rows,) + (2,) * n_qubits), axis, 1)
    out = np.einsum("ij,bjr->bir", _ROTATION, t.reshape(rows, 2, -1))
    return np.moveaxis(out.reshape((rows,) + (2,) * n_qubits), 1, axis).reshape(rows, -1)


def _simulation_kernel():
    small = np.zeros((1, 8), dtype=complex)
    small[0, 0] = 1.0
    for i in range(2000):
        small = _apply(small, 3, i % 3)
    batch = np.zeros((91, 512), dtype=complex)
    batch[:, 0] = 1.0
    for i in range(30):
        batch = _apply(batch, 9, i % 9)
    a = _SAMPLE_A
    for _ in range(5):
        d2 = (a * a).sum(1)[:, None] + (_SAMPLE_B * _SAMPLE_B).sum(1)[None, :] - 2.0 * a @ _SAMPLE_B.T
        a = np.tanh(np.exp(-d2 / 32.0) @ _SAMPLE_B / 512.0 + a)
    return small, batch, a


def _validation_kernel():
    d2 = (_VALIDATION - _VALIDATION.T) ** 2
    return [np.exp(-d2 / bandwidth).sum() for bandwidth in (0.5, 1.0, 2.0, 4.0, 8.0)]


# workload -> (kernel, about its median time on the reference machine, a
# 2-core Intel Xeon VM with numpy 2.4.6 and one OpenBLAS thread). The
# times are fixed constants: they only set the scale of the reported
# seconds, the same for every commit.
KERNELS = {
    "multi": (_simulation_kernel, 0.1),
    "small": (_simulation_kernel, 0.1),
    "gmmd": (_validation_kernel, 0.22),
}


def sample(workload: str, n: int) -> list[float]:
    """Wall times of `n` runs of the workload's kernel."""
    kernel = KERNELS[workload][0]
    times = []
    for _ in range(n):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def scale(workload: str, times: list[float]) -> float:
    """Factor from measured to reference seconds, given kernel times."""
    return KERNELS[workload][1] / statistics.median(times)
