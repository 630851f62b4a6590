"""Tests of the benchmark itself, each workload at a tiny size.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
from common import ROOT, Outcome  # noqa: E402
from reference import LRUReference, check_trace_result  # noqa: E402
from wl_cli import CliConfig  # noqa: E402
from wl_figures import FiguresConfig  # noqa: E402
from wl_service import ServiceConfig  # noqa: E402

KB = 1024
L1_SET_STRIDE = 32 * KB  # 64 KB / 2 ways: addresses this far apart share an L1 set
L2_SET_STRIDE = 128 * KB  # 1 MB / 8 ways

TINY = {
    "figures": FiguresConfig(benchmarks=("fma3d",), fig9_sizes=(32768,), hits_per_fresh=2, setups=1),
    "cli": CliConfig(num_accesses=5_000, setups=2, floor_samples=1),
    "service": ServiceConfig(num_accesses=500, points_per_job=2, setups=2),
}


# ---------------------------------------------------------------------------
# The reference model
# ---------------------------------------------------------------------------

def test_reference_counts_a_hand_built_trace():
    a, b, c = 0, L1_SET_STRIDE, 2 * L1_SET_STRIDE
    # a, b, c share one 2-way L1 set but sit in three L2 sets.
    trace = [a, a + 8, b, c, a, b, c]
    reference = LRUReference(trace)
    assert reference.misses(2) == (1, 1)  # same block twice
    assert reference.misses(4) == (3, 3)
    assert reference.misses(7) == (6, 3)  # L1 thrashes, L2 holds all three


def test_reference_l2_lru_eviction():
    nine = [i * L2_SET_STRIDE for i in range(9)]  # one 8-way L2 set, nine blocks
    assert LRUReference(nine * 2).misses(18) == (18, 18)
    eight = nine[:8]
    assert LRUReference(eight * 2).misses(16) == (16, 8)


def test_reference_rejects_a_longer_prefix():
    with pytest.raises(ValueError):
        LRUReference([0, 64]).misses(3)


def _program_result(num_accesses=3_000):
    from repro.run import Session
    from repro.trace.store import TraceStore
    from repro.workloads.base import WorkloadConfig

    result = Session(use_cache=False).run("mcf", predictor="dbcp", num_accesses=num_accesses, seed=5)
    trace = TraceStore().load_or_generate("mcf", WorkloadConfig(num_accesses=num_accesses, seed=5))
    return result.to_dict(), LRUReference(trace.as_arrays().address)


def test_reference_matches_the_program_and_catches_an_off_by_one(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
    data, reference = _program_result()
    assert check_trace_result(data, reference, "mcf") == []
    for field in ("baseline_l1_misses", "baseline_l2_misses"):
        broken = json.loads(json.dumps(data))
        broken[field] += 1
        assert check_trace_result(broken, reference, "mcf")


# ---------------------------------------------------------------------------
# Whole workloads at a tiny size
# ---------------------------------------------------------------------------

def _declared(section):
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]]


@pytest.mark.parametrize("workload", ["cli", "service"])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = bench.run(workload, seed=3, seconds=0.5, trace=False, config=TINY[workload])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["figures", "cli", "service"])
def test_traced_split_sums_to_wall(workload):
    result = bench.run(workload, seed=4, seconds=0.5, trace=True, config=TINY[workload])
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == _declared("per_layer")
    layers = sum(v for name, v in metrics.items() if name.startswith("layer."))
    assert layers == pytest.approx(metrics["wall_s"], abs=1e-6)
    assert metrics["wall_s"] > 0 and metrics["campaign.points"] > 0
    assert metrics["trace.generated"] == 0  # set-up prewarmed every trace
    for name, value in metrics.items():
        if name.startswith("layer.") and name != "layer.other_s":
            assert value >= -1e-3, (name, value)


def test_a_result_off_by_one_counts_as_a_failed_operation():
    from common import Tracer, Workspace
    from wl_cli import CliWorkload

    ws = Workspace("test")
    try:
        workload = CliWorkload(6, Tracer(False), ws, TINY["cli"])
        workload.setup()
        workload.measure(rounds=2)
        clean = Outcome()
        workload.check(clean)
        assert (clean.attempted, clean.failed) == (4, 0)
        fresh = workload.ops[2]["done"]
        data = json.loads(fresh.stdout)
        data["baseline_l2_misses"] += 1
        fresh.stdout = json.dumps(data)
        tampered = Outcome()
        workload.check(tampered)
        # The tampered fresh result fails, and so does its hit (no longer equal).
        assert (tampered.attempted, tampered.failed) == (4, 2)
        assert any("reference" in error for error in tampered.check_errors)
    finally:
        ws.close()


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_figures_hits_fail_with_a_wrong_fresh_result():
    from common import Tracer, Workspace
    from wl_figures import FiguresWorkload

    ws = Workspace("test")
    try:
        workload = FiguresWorkload(7, Tracer(False), ws, TINY["figures"])
        workload.setup()
        workload.measure(rounds=1)
        clean = Outcome()
        workload.check(clean)
        assert (clean.attempted, clean.failed) == (3, 0)
        fresh = workload.ops[0]
        label, point, cached, data = next(p for p in fresh["points"] if p[1].sim == "trace")
        data["baseline_l1_misses"] += 1
        tampered = Outcome()
        workload.check(tampered)
        # The fresh figure set fails its reference check, and its two hits with it.
        assert (tampered.attempted, tampered.failed) == (3, 3)
        assert any("reference" in error for error in tampered.check_errors)
    finally:
        ws.close()
