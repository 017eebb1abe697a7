"""The benchmark's own tests.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

import run
import worker
from probe import CALIBRATION_REF_S
from recorder import PER_LAYER, OpSpan, Recorder, host_factors
from workloads import (
    CheckFailed,
    Op,
    check_weights,
    count_partitions,
    flat_spectrum,
    make_workload,
    skewed_spectrum,
    value_of,
)

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def signature(workload, seed, rounds=2):
    """Kinds, sizes and order of the first rounds, plus the generator state."""
    rng = np.random.default_rng(seed)
    workload.setup(rng)
    ops = [(op.kind, op.d, op.n) for i in range(rounds) for op in workload.round(rng, i)]
    return ops, rng.bit_generator.state["state"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(name, tmp_path):
    first = signature(make_workload(name, tmp_path), 7)
    again = signature(make_workload(name, tmp_path), 7)
    other = signature(make_workload(name, tmp_path), 8)
    assert first == again
    assert first[1] != other[1]
    # every round has the same composition, whatever the seed
    assert sorted(first[0]) == sorted(other[0])


def test_spectra_are_valid_and_span_flat_to_skewed():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4, 5):
        for p in [flat_spectrum(rng, d) for _ in range(50)] + \
                 [skewed_spectrum(rng, d) for _ in range(50)]:
            assert abs(sum(p) - 1.0) < 1e-12
            assert all(a >= b for a, b in zip(p, p[1:]))
    skewed = [skewed_spectrum(rng, 4)[0] for _ in range(200)]
    assert 0.85 <= min(skewed) and max(skewed) <= 0.97


def test_weight_check_counts_attempts_and_failures():
    rec = Recorder("spectra", tracing=False)
    check_weights([0.5, 0.5], rec)
    with pytest.raises(CheckFailed):
        check_weights([1.2, -0.2], rec)
    with pytest.raises(CheckFailed):
        check_weights([0.6, 0.6], rec)
    assert rec.counts["spectra.weight_check.attempts"] == 3
    assert rec.counts["spectra.weight_check.failures"] == 2


class FailingWorkload:
    """One round: a good operation, a weight failure on an operation marked
    ``known_defect``, and ``bad``, which fails on its own."""

    name = "fake"

    def __init__(self, bad: Op):
        self.bad = bad

    def round(self, rng, index):
        def ok(result, rec):
            return "ok"

        def weights(result, rec):
            check_weights([1.5, -0.5], rec)

        return [Op("ok", 2, 2, lambda rec: 1.0, ok),
                Op("weights", 4, 60, lambda rec: 1.0, weights, known_defect=True),
                self.bad]


def raise_in_run(rec):
    raise ValueError("library error")


def run_failing(bad: Op) -> dict:
    loop = worker.Loop(FailingWorkload(bad), np.random.default_rng(0), None)
    loop.measure([Recorder("fake", tracing=False)], 0.0)
    return {"attempted": loop.attempted,
            "failed": sum(len(v) for v in loop.failures.values()),
            "known_defect": sum(len(v) for v in loop.known.values())}


def pass_check(result, rec):
    value_of(result)
    return "ok"


def fail_check(result, rec):
    raise CheckFailed("wrong value")


def weight_check(result, rec):
    check_weights([0.7, 0.7], rec)


def test_the_known_cancellation_is_recorded_but_not_failed():
    res = run_failing(Op("ok", 2, 2, lambda rec: 1.0, pass_check))
    assert res["known_defect"] == res["attempted"] // 3
    assert res["failed"] == 0
    assert run.is_correct(res)


@pytest.mark.parametrize("bad", [
    Op("run_teleport", 2, 3, lambda rec: 1.0, fail_check),
    Op("build_schur_basis", 2, 6, raise_in_run, pass_check),
    Op("weights", 4, 60, raise_in_run, pass_check, known_defect=True),
    Op("weights", 3, 28, lambda rec: 1.0, weight_check),
    Op("large_deviation_bound", 5, 40, lambda rec: 1.0, fail_check, known_defect=True),
])
def test_any_other_failure_makes_a_run_incorrect(bad):
    res = run_failing(bad)
    assert res["failed"] == res["attempted"] // 3
    assert res["known_defect"] == res["attempted"] // 3
    assert not run.is_correct(res)


def test_spectra_marks_only_the_cancelling_queries(tmp_path):
    ops = make_workload("spectra", tmp_path).round(np.random.default_rng(1), 0)
    marked = {(op.kind, op.d, op.n) for op in ops if op.known_defect}
    assert {(d, n) for _, d, n in marked} == {(4, 20), (4, 40), (4, 60),
                                              (5, 20), (5, 30), (5, 40)}
    assert {kind for kind, _, _ in marked} == {
        "weights", "decompose", "ideal_fidelity", "large_deviation_bound"}
    for name in ("basis", "teleport", "adaptive"):
        workload = make_workload(name, tmp_path)
        rng = np.random.default_rng(1)
        workload.setup(rng)
        assert not any(op.known_defect for op in workload.round(rng, 0))


def test_host_factor_scales_to_the_reference_probe_time():
    ops = [OpSpan(0, "w", "k", 2, 2, start=10.0, end=10.5),
           OpSpan(1, "w", "k", 2, 2, start=20.0, end=20.1)]
    slow, fast = 2 * CALIBRATION_REF_S, CALIBRATION_REF_S
    probes = [(9.9, slow), (10.6, slow), (19.9, fast), (20.2, fast), (30.0, 9.0)]
    assert np.allclose(host_factors(ops, probes), [0.5, 1.0])


def test_partition_count_matches_known_values():
    assert [count_partitions(n, 2) for n in range(1, 7)] == [1, 2, 2, 3, 3, 4]
    assert count_partitions(10, 10) == 42


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_workload_runs_at_a_tiny_size(name, capsys):
    argv = ["--workload", name, "--seed", "1", "--seconds", "0", "--trace", "1",
            "--spawned-at", repr(time.monotonic()), "--tiny"]
    assert worker.main(argv) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["attempted"] >= worker.MIN_OPS
    assert res["failed"] == 0, res["failures_by_kind"]
    assert run.is_correct(res)
    assert res["summary"]["samples_beyond_p90"] >= 10

    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(res["per_layer"]) == names
    args = Namespace(workload=name, seed=1, seconds=0.0, trace=0)
    e2e = run.report(args, res, [res, res], "abc")
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in e2e.values())
    args.trace = 1
    assert run.report(args, res, [res], "abc") == res["per_layer"]
    report = capsys.readouterr().out
    for metric in ("setup_s", "throughput_ops_s", "latency_p90_ms", "fail_frac",
                   "known_defect_frac"):
        assert metric in report


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
