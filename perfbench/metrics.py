"""The benchmark's metric vocabulary: names, units, directions and bounds.

``BENCHMARK.json`` at the repository root lists the same metrics; the
smoke tests check that the two agree, so this module is the one place a
metric is defined.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("paper_refit", "many_rules", "served_fleet")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"
    #: Share of the parent's median by which an end-to-end metric may
    #: worsen before a change counts as a regression (``None``: per-layer).
    bound: float | None = None


#: Printed by every untraced run (``--trace 0``), on every workload.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("edit_s", "s", "lower", 0.25),
    Metric("iter_ms_p50", "ms", "lower", 0.25),
    Metric("iter_ms_p90", "ms", "lower", 0.25),
    Metric("sessions_per_s", "1/s", "higher", 0.25),
    Metric("step_ms_p50", "ms", "lower", 0.25),
    Metric("step_ms_p95", "ms", "lower", 0.25),
    Metric("resume_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.1),
    # Held-out J-bar and rule agreement of the edited models (paper 5.1).
    Metric("test_j", "1", "higher", 0.25),
    Metric("test_mra", "1", "higher", 0.25),
    Metric("completed_frac", "1", "higher", 0.05),
)

_S, _N = "s", "count"

#: Printed by every traced run (``--trace 1``), on every workload.  Times
#: and counts are per measured round (setup and resume layers: per set-up
#: and per resume phase); a layer a workload does not use reads 0.
PER_LAYER = (
    Metric("models.fit.calls", _N, "lower"),
    Metric("models.fit.rows", "rows", "lower"),
    Metric("models.fit.busy_s", _S),
    Metric("models.fit.LR.busy_s", _S),
    Metric("models.fit.RF.busy_s", _S),
    Metric("models.fit.LGBM.busy_s", _S),
    Metric("models.predict.calls", _N),
    Metric("models.predict.rows", "rows"),
    Metric("models.predict.busy_s", _S),
    Metric("models.partial_update.calls", _N),
    Metric("models.partial_update.rows", "rows"),
    Metric("models.partial_update.busy_s", _S),
    Metric("engine.setup.busy_s", _S),
    Metric("engine.feedback.busy_s", _S),
    Metric("engine.preselect.busy_s", _S),
    Metric("engine.preselect.recomputes", _N),
    Metric("engine.selection.busy_s", _S),
    Metric("engine.generation.busy_s", _S),
    Metric("engine.acceptance.busy_s", _S),
    Metric("engine.acceptance.self_s", _S),
    Metric("engine.finalize.busy_s", _S),
    Metric("engine.accept_ratio", "1", "higher"),
    Metric("sampling.generate.calls", _N),
    Metric("sampling.generate.rows", "rows"),
    Metric("sampling.generate.busy_s", _S),
    Metric("sampling.kept_ratio", "1", "higher"),
    Metric("experiments.context.busy_s", _S),
    Metric("serve.steps", _N),
    Metric("serve.step.busy_s", _S),
    Metric("serve.admission.wait_s", _S),
    Metric("serve.sessions.completed", _N, "higher"),
    Metric("serve.sessions.failed", _N),
    Metric("serve.sessions.rejected", _N),
    Metric("serve.pool.peak_reserved_mb", "MiB"),
    Metric("journal.io_s", _S),
    Metric("journal.records", _N),
    Metric("journal.bytes", "bytes"),
    Metric("journal.errors", _N),
    Metric("feedback.ruleset_deltas", _N),
    Metric("journal.resume.busy_s", _S),
    Metric("journal.resume.fit_calls", _N),
    Metric("trace.coverage", "1", "higher"),
    Metric("trace.overhead", "1"),
)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation), NaN when empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50.0)


def result_line(
    correct: bool, attempted: int, failed: int, values: dict, metrics
) -> str:
    """The final stdout line: one JSON object, every metric with its unit."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                m.name: {"value": float(values[m.name]), "unit": m.unit}
                for m in metrics
            },
        }
    )


def benchmark_spec() -> dict:
    """What ``BENCHMARK.json`` must say about workloads and metrics."""
    return {
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
        "workloads": list(WORKLOADS),
    }


def load_benchmark_json(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())
