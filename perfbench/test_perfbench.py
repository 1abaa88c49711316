"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q                     # about 7 minutes
    python3 -m pytest perfbench -q -k "not acceptance" # about 2 minutes
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import env

if "numpy" not in sys.modules:
    env.pin_blas_threads()
env.use_checkout_source()

import workloads as wl  # noqa: E402

RUN = Path(__file__).with_name("run.py")
SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text())


def _result(*args):
    proc = subprocess.run(
        [sys.executable, str(RUN), *args], cwd=env.ROOT, capture_output=True, text=True, timeout=900
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_program():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(wl.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _ in wl.PER_LAYER
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_smoke_every_workload_prints_every_metric(workload, trace):
    stdout, result = _result(
        "--workload", workload, "--seed", "3", "--seconds", "0", "--epochs", "1", "--trace", str(trace)
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1 + trace
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
            for line in stdout.splitlines()
        ), m["name"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    if not trace:
        # times are scaled to the reference speed measured beside the passes
        samples = next(json.loads(line)["samples"] for line in stdout.splitlines() if line.startswith('{"samples"'))
        assert samples["kernel_samples"] >= 5
        assert result["metrics"]["train_s"]["value"] == pytest.approx(
            samples["wall_train_s"] * samples["reference_scale"]
        )


def _traced_exp_1d(seed, tmp_path):
    p = wl.run_pass([("exp-1d", 70, seed)], tmp_path, traced=True)
    return p.tracer


def test_exp_1d_counts_match_the_seed_code_and_repeat(tmp_path):
    first = _traced_exp_1d(1, tmp_path)
    assert first.calls["metrics.mmd_gradient"] == 700  # 70 epochs x 10 batches
    assert first.counts["sim.run_circuit_batch.rows"] == 25_200  # 700 x 2 x 18 shifts
    assert first.counts["optimize.epochs"] == 70
    again = _traced_exp_1d(5, tmp_path)
    assert (again.counts, again.calls) == (first.counts, first.calls)


def test_states_per_gradient_on_multi_and_small():
    _, multi = _result("--workload", "multi", "--seconds", "0", "--epochs", "1", "--trace", "1")
    assert multi["metrics"]["metrics.states_per_gradient"]["value"] == 91
    _, small = _result("--workload", "small", "--seconds", "0", "--trace", "1")
    # exp-1d and exp-noise: 350 calls of 2*18+1 states each; exp-cond: 900
    # of 2*27+1. Half the acceptance lengths, so the same ratio as
    # (2*700*37 + 1800*55) / 3200 at full length.
    assert small["metrics"]["metrics.mmd_gradient.calls"]["value"] == 1600
    assert small["metrics"]["metrics.states_per_gradient"]["value"] == (2 * 350 * 37 + 900 * 55) / 1600 == 47.125


def test_gmmd_trace_records_no_sim_calls():
    _, result = _result("--workload", "gmmd", "--seconds", "0", "--epochs", "1", "--trace", "1")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(m[k] == 0 for k in m if k.startswith("sim."))
    assert m["baseline.gmmd_loss_and_grad.calls"] == 10
    # ten 512-row training batches and one 2048-row validation pass, each
    # building gg, gd and dd blocks over 5 bandwidths
    assert m["baseline.kernel_entries"] == (10 * 512**2 + 2048**2) * 3 * 5


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(env.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_acceptance_tolerances_at_pinned_full_length():
    stdout, result = _result("--acceptance")
    assert result["correct"], stdout
