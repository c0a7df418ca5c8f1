"""Smoke tests for the benchmark itself, at tiny scale.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.checks import (
    CheckFailed,
    check_fleet,
    check_incremental_parity,
    check_journals,
    check_repeats,
    check_resumed,
)
from perfbench.metrics import (
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    benchmark_spec,
    load_benchmark_json,
)
from perfbench.speed import REFERENCE_S, Speedometer
from perfbench.tracer import Span, Tracer

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"


def _run(tmp_path: Path, workload: str, *, trace: int, seed: int = 1):
    cmd = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny",
    ]
    return subprocess.run(
        cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300, check=False
    )


# ---------------------------------------------------------------------- #
def test_benchmark_json_matches_the_metric_registry():
    spec = load_benchmark_json(ROOT)
    expected = benchmark_spec()
    assert spec["end_to_end"] == expected["end_to_end"]
    assert spec["per_layer"] == expected["per_layer"]
    assert [w["name"] for w in spec["workloads"]] == expected["workloads"]
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    names = [m.name for m in END_TO_END]
    assert "setup_s" in names and len(set(names)) == len(names)
    assert max(m.bound for m in END_TO_END) == END_TO_END[0].bound


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(tmp_path, workload, trace):
    proc = _run(tmp_path, workload, trace=trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [m.name for m in metrics]
    text = "\n".join(lines[:-1])
    for metric in metrics:
        assert result["metrics"][metric.name]["unit"] == metric.unit
        assert any(
            metric.name in line and metric.unit in line for line in lines[:-1]
        ), metric.name
    assert "fingerprint:" in text and "seed: 1" in text
    if not trace:
        for name in ("edit_s", "sessions_per_s", "completed_frac", "setup_s"):
            assert result["metrics"][name]["value"] > 0
    else:
        assert "prediction" in text and "confirmed" in text
        assert list(tmp_path.glob(".perfbench_out/trace-*.json"))
    assert not (tmp_path / ".perfbench_work").exists()


def test_a_second_seed_passes_every_check(tmp_path):
    proc = _run(tmp_path, "many_rules", trace=0, seed=2)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_refit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------- #
# Each output check fires on a corrupted result.
SIGNATURE = (((0.25, False, 0), (0.2, True, 20)), 0.8, 1.0)


@pytest.mark.parametrize(
    "corrupt",
    [
        (((0.25, False, 0), (0.2000001, True, 20)), 0.8, 1.0),  # loss
        (((0.25, True, 0), (0.2, True, 20)), 0.8, 1.0),  # verdict
        (((0.25, False, 0), (0.2, True, 21)), 0.8, 1.0),  # rows added
        (((0.25, False, 0),), 0.8, 1.0),  # an iteration missing
        (((0.25, False, 0), (0.2, True, 20)), 0.81, 1.0),  # test_j
        (((0.25, False, 0), (0.2, True, 20)), 0.8, 0.9),  # test_mra
    ],
)
def test_repeat_and_parity_checks_fire(corrupt):
    check_repeats({"LR": SIGNATURE}, {"LR": SIGNATURE}, "repeat")
    with pytest.raises(CheckFailed):
        check_repeats({"LR": SIGNATURE}, {"LR": corrupt}, "repeat")
    check_incremental_parity(SIGNATURE, SIGNATURE)
    with pytest.raises(CheckFailed):
        check_incremental_parity(SIGNATURE, corrupt)


def test_repeat_check_fires_on_a_missing_edit():
    with pytest.raises(CheckFailed):
        check_repeats({"LR": SIGNATURE, "RF": SIGNATURE}, {"LR": SIGNATURE}, "repeat")


def test_nan_mra_repeats_equal():
    nan_sig = (SIGNATURE[0], 0.8, float("nan"))
    check_repeats({"LR": nan_sig}, {"LR": nan_sig}, "repeat")


def test_fleet_check_fires():
    check_fleet({"tenant-0": "done", "tenant-1": "done"}, 32.0, 32.0)
    with pytest.raises(CheckFailed, match="tenant-1"):
        check_fleet({"tenant-0": "done", "tenant-1": "failed"}, 16.0, 32.0)
    with pytest.raises(CheckFailed, match="exceeds"):
        check_fleet({"tenant-0": "done"}, 48.0, 32.0)


def test_journal_check_fires_on_a_corrupted_journal(tmp_path):
    from repro.journal import JournalWriter

    with JournalWriter(tmp_path / "j", meta={"name": "j"}) as writer:
        for i in range(3):
            writer.append("note", {"i": i}, sync=True)
    (scan,) = check_journals([tmp_path / "j"])
    assert scan.ok
    segment = scan.segments[0]
    lines = segment.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"i":1', b'"i":7')  # tamper with one record
    segment.write_bytes(b"".join(lines))
    with pytest.raises(CheckFailed, match="does not scan clean"):
        check_journals([tmp_path / "j"])
    with pytest.raises(CheckFailed):
        check_journals([])


def test_the_runner_fails_a_round_that_does_not_repeat(tmp_path, monkeypatch):
    from perfbench import runner
    from perfbench.workloads import RoundResult

    class Drifting:
        """A workload whose edits come out different on every round."""

        def __init__(self, scale, meter):
            self.calls = 0

        def setup(self, seed, tracer):
            return None

        def round(self, inputs, workdir, tracer):
            self.calls += 1
            signature = (((0.5, False, self.calls),), 0.8, 1.0)
            return RoundResult(0.1, 1, 1, 0, [0.01], [0.01], {"x": signature})

        def start_recovery(self, inputs, first, workdir, tracer):
            return None

    monkeypatch.setitem(runner.WORKLOAD_CLASSES, "drifting", Drifting)
    report = runner.run_workload(
        "drifting", seed=1, seconds=0.01, trace=True, scale="tiny", workdir=tmp_path
    )
    assert not report.correct
    assert any("traced vs untraced" in failure for failure in report.failures)


def test_resume_check_fires():
    check_resumed({"a": [1, 2]}, {"a": [1, 2]})
    with pytest.raises(CheckFailed):
        check_resumed({"a": [1, 2]}, {"a": [1, 3]})
    with pytest.raises(CheckFailed):
        check_resumed({"a": [1, 2]}, {})


# ---------------------------------------------------------------------- #
def test_self_time_and_coverage():
    tracer = Tracer()
    tracer.spans = [
        Span(1, "bench.edit", 0.0, 10.0, None, "e", "round"),
        Span(2, "engine.step", 0.0, 6.0, 1, "e", "round"),
        Span(3, "engine.step", 5.0, 9.0, 1, "e", "round"),  # overlaps
        Span(4, "models.fit", 1.0, 4.0, 2, "e", "round"),
    ]
    self_time = tracer.self_times()
    assert self_time[2] == pytest.approx(3.0)
    assert self_time[4] == pytest.approx(3.0)
    assert tracer.coverage(("bench.edit",)) == pytest.approx(0.9)


def test_spans_nest_and_inherit_the_trace():
    tracer = Tracer()
    tracer.phase = "round"
    with tracer.span("bench.edit", trace="LR"):
        with tracer.span("models.fit", rows=3):
            pass
    fit, edit = tracer.spans
    assert fit.parent == edit.id and fit.trace == "LR" and fit.phase == "round"
    assert fit.attrs == {"rows": 3}


# ---------------------------------------------------------------------- #
def _meter(samples):
    """A speedometer holding the given (start, seconds) calibrations."""
    meter = Speedometer()
    for start, seconds in samples:
        meter._starts.append(start)
        meter._ends.append(start + seconds)
        meter._seconds.append(seconds)
    return meter


def test_scaling_takes_calibration_out_and_applies_the_host_speed():
    # The host runs at half the reference speed around [10, 12].
    slow = 2 * REFERENCE_S
    meter = _meter([(9.9, slow), (11.0, slow), (12.05, slow), (30.0, REFERENCE_S)])
    assert meter.paused(10.0, 12.0) == pytest.approx(slow)
    assert meter.factor(10.0, 12.0) == pytest.approx(0.5)
    assert meter.scaled(10.0, 12.0) == pytest.approx((2.0 - slow) * 0.5)
    # Far from every sample, the nearest one sets the speed.
    assert meter.factor(20.0, 20.5) == pytest.approx(1.0)
    assert meter.factor(100.0, 101.0) == pytest.approx(1.0)


def test_a_disabled_speedometer_reports_raw_times():
    meter = Speedometer(enabled=False)
    meter.sample()
    meter.tick()
    assert len(meter) == 0
    assert meter.scaled(1.0, 3.5) == pytest.approx(2.5)


def test_tick_calibrates_at_most_once_per_interval():
    meter = Speedometer()
    meter.tick()
    meter.tick()
    assert len(meter) == 1 and meter.paused(0.0, 2 * time.time()) > 0
