"""The benchmark's own tests, on the workloads at test size.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from harness import WorkloadRun, check_outputs  # noqa: E402
import harness  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "B/pt-computed"}


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(workload, seed, trace):
        key = (workload, seed, trace)
        if key not in cache:
            cache[key] = bench(workload, seed, trace)
        return cache[key]
    return get


def test_tiny_set_matches_workloads():
    assert set(TINY) == set(WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(results, workload, trace,
                                            section):
    res = results(workload, 1, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want
    for v in res["metrics"].values():
        assert isinstance(v["value"], (int, float))


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_exactly_across_seeds(results, workload):
    a = results(workload, 1, 1)["metrics"]
    b = results(workload, 2, 1)["metrics"]
    counts = [k for k, v in a.items() if v["unit"] in COUNT_UNITS]
    assert counts
    assert {k: a[k]["value"] for k in counts} == \
        {k: b[k]["value"] for k in counts}


def _corrupting_apply(monkeypatch, corrupt):
    from stencilc.backend.operator import Operator
    original = Operator.apply

    def apply(self, *args, **kwargs):
        buffers, report = original(self, *args, **kwargs)
        corrupt(buffers)
        return buffers, report
    monkeypatch.setattr(Operator, "apply", apply)


def _write_nan(buffers):
    buffers["u"].data[(0,) * buffers["u"].data.ndim] = np.nan


def test_nan_in_a_buffer_is_a_failure(monkeypatch):
    run = WorkloadRun(TINY["acoustic3d-so8"], 1)
    _corrupting_apply(monkeypatch, _write_nan)
    assert run.attempt() is None
    assert (run.attempted, run.failed) == (1, 1)
    assert "non-finite" in run.failures[0]


def test_unrepeatable_output_is_a_failure(monkeypatch):
    run = WorkloadRun(TINY["acoustic3d-so8"], 1)
    assert run.attempt() is not None

    def nudge(buffers):
        data = buffers["u"].data
        idx = np.unravel_index(np.argmax(np.abs(data)), data.shape)
        data[idx] = np.nextafter(data[idx], np.inf)
    _corrupting_apply(monkeypatch, nudge)
    assert run.attempt() is None
    assert (run.attempted, run.failed) == (2, 1)
    assert "bitwise" in run.failures[0]


def test_oracle_mismatch_fails_every_operation(monkeypatch):
    run = WorkloadRun(TINY["acoustic3d-so8"], 1)

    def shift(buffers):
        buffers["rec"].data += 1e-6
    _corrupting_apply(monkeypatch, shift)
    for _ in range(2):
        assert run.attempt() is not None
    monkeypatch.undo()
    run.oracle_check()
    assert (run.attempted, run.failed) == (2, 2)


def test_check_outputs():
    good = {"u": np.ones((2, 2))}
    assert check_outputs(good, None) is None
    assert check_outputs(good, {"u": np.ones((2, 2))}) is None
    assert "non-finite" in check_outputs({"u": np.array([np.inf])}, None)
    assert "bitwise" in check_outputs({"u": np.array([-0.0])},
                                      {"u": np.array([0.0])})


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_each_timed_repetition_gets_its_kernels_factors(workload):
    run = WorkloadRun(TINY[workload], 1)
    assert run.kernels == sorted({"python", TINY[workload].run_kernel})
    run.loop(0.0)
    reps = len(run.samples["apply_s"])
    assert reps == harness.MIN_REPS
    factors = {k for k in run.samples if k.endswith("_factor")}
    assert factors == {k + "_factor" for k in run.kernels}
    for name in factors:
        assert len(run.samples[name]) == reps
        assert all(f > 0 for f in run.samples[name])
    assert set(run.calibration) == set(run.kernels)
