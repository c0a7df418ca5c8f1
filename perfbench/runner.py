"""Drive one workload: timed set-ups, measured rounds, checks, metrics."""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.checks import CheckFailed, check_repeats
from perfbench.metrics import END_TO_END, PER_LAYER, median, percentile, result_line
from perfbench.speed import REFERENCE_S, Speedometer
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOAD_CLASSES, RoundResult, recover

SETUP_REPEATS = 5
#: Recovery passes after each round.  A pass is short (0.1-0.5 s), so
#: one sample catches a single moment of the host's speed; three per
#: round give its median as many samples as the rounds have iterations.
RECOVERY_PASSES = 3


@dataclass
class Report:
    values: dict[str, float]
    lines: list[str]
    traced: bool
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return not self.failures and self.failed == 0

    @property
    def complete(self) -> bool:
        """Every reported metric has a finite value."""
        metrics = PER_LAYER if self.traced else END_TO_END
        return all(math.isfinite(self.values.get(m.name, math.nan)) for m in metrics)

    def result_line(self) -> str:
        metrics = PER_LAYER if self.traced else END_TO_END
        return result_line(
            self.correct, self.attempted, self.failed, self.values, metrics
        )

    def trace_payload(self, machine: dict, seed: int) -> dict:
        return {
            "seed": seed,
            "fingerprint": machine,
            "metrics": {m.name: self.values[m.name] for m in PER_LAYER},
            "spans": [s.to_json() for s in self.tracer.spans],
        }


def run_workload(
    name: str, *, seed: int, seconds: float, trace: bool, scale: str, workdir: Path
) -> Report:
    """Set up ``SETUP_REPEATS`` times, then run rounds for ``seconds``.
    Round 0 edits the first set-up's inputs and every later round the
    last one's, so a set-up that is not deterministic fails the repeat
    check.  After round 0, the workload's once-per-invocation checks
    write the journals its recovery replays (outside the measured time).
    After every round come ``RECOVERY_PASSES`` recovery passes.  The
    work before the last round is fixed, so the process's peak RSS does
    not depend on how many rounds the host's speed allows.

    Untraced, every round is measured.  Traced, rounds alternate
    untraced / traced, starting untraced: round 0 is the reference for
    the exact-match check, and the untraced rounds after it are the
    baseline for the tracing overhead.
    """
    meter = Speedometer(enabled=not trace)
    workload = WORKLOAD_CLASSES[name](scale, meter)
    tracer = Tracer() if trace else None
    failures: list[str] = []
    setup_s: list[float] = []

    def set_up():
        if tracer is not None:
            tracer.phase = "setup"
        meter.sample()
        t0 = time.time()
        inputs = workload.setup(seed, tracer)
        t1 = time.time()
        meter.sample()
        setup_s.append(meter.scaled(t0, t1))
        return inputs

    first = set_up()
    for _ in range(SETUP_REPEATS - 1):
        inputs = set_up()
    rounds: list[RoundResult] = []
    resumes: list[float] = []
    recovery = None
    attempted = 0
    cycles: list[float] = []
    peak_rss_mb = None
    deadline = time.perf_counter() + seconds
    try:
        while True:
            traced = tracer if (trace and len(rounds) % 2) else None
            if traced is not None:
                traced.phase = "round"
            round_dir = workdir / f"round-{len(rounds)}"
            round_dir.mkdir()
            t0 = time.perf_counter()
            result = workload.round(inputs if rounds else first, round_dir, traced)
            result.traced = traced is not None
            rounds.append(result)
            if len(rounds) == 1:
                # Once per invocation, outside the measured time.
                if tracer is not None:
                    tracer.phase = "check"
                t_once = time.perf_counter()
                recovery = workload.start_recovery(first, result, workdir, tracer)
                if recovery is not None:
                    attempted += len(recovery.live)
                once = time.perf_counter() - t_once
                deadline += once
                t0 += once
            else:
                check_repeats(
                    rounds[0].signatures,
                    result.signatures,
                    "traced vs untraced" if result.traced else "same-seed repeat",
                )
            journals = result.recovery or recovery
            for _ in range(RECOVERY_PASSES if journals is not None else 0):
                resumes.append(recover(journals, tracer, meter))
                attempted += len(journals.live)
            result.recovery = None  # its journals are replayed; free them
            if len(rounds) == 2:
                # The peak over a fixed amount of work: set-ups, checks and
                # two rounds with their recovery passes.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            cycles.append(time.perf_counter() - t0)
            if len(rounds) >= 2 and time.perf_counter() + median(cycles) > deadline:
                break
    except CheckFailed as exc:
        failures.append(str(exc))
    finally:
        if hasattr(workload, "close"):
            workload.close()

    if peak_rss_mb is None:  # a check failed before round 2
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = max(attempted + sum(r.attempted for r in rounds), 1)
    failed = sum(r.failed for r in rounds)
    report = Report({}, [], trace, attempted, failed, failures, tracer)
    if not rounds:
        return report
    if trace:
        report.values, report.lines = _per_layer(tracer, rounds, setup_s, name)
    else:
        report.values, report.lines = _end_to_end(
            rounds, setup_s, resumes, attempted, failed, meter, peak_rss_mb
        )
    return report


def _end_to_end(rounds, setup_s, resumes, attempted, failed, meter, peak_rss_mb):
    def per_round(times: str, q: float) -> float:
        # A host hiccup lands in one round's tail; the median over rounds
        # of each round's percentile leaves it out.
        return 1e3 * median([percentile(getattr(r, times), q) for r in rounds])

    n_iter = sum(len(r.iter_s) for r in rounds)
    n_step = sum(len(r.step_s) for r in rounds)
    values = {
        "setup_s": median(setup_s),
        "edit_s": median([r.edit_s for r in rounds]),
        "iter_ms_p50": per_round("iter_s", 50),
        "iter_ms_p90": per_round("iter_s", 90),
        "sessions_per_s": median([r.sessions / r.edit_s for r in rounds]),
        "step_ms_p50": per_round("step_s", 50),
        "step_ms_p95": per_round("step_s", 95),
        "resume_s": median(resumes),
        **_quality(rounds[0]),
        "completed_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    counts = {
        "setup_s": f"median of {len(setup_s)} set-ups",
        "edit_s": f"median of {len(rounds)} rounds",
        "iter_ms_p50": f"median of {len(rounds)} rounds, {n_iter} iterations",
        "iter_ms_p90": f"median of {len(rounds)} rounds, {n_iter} iterations",
        "sessions_per_s": f"median of {len(rounds)} rounds, "
        f"{sum(r.sessions for r in rounds)} edits",
        "step_ms_p50": f"median of {len(rounds)} rounds, {n_step} steps",
        "step_ms_p95": f"median of {len(rounds)} rounds, {n_step} steps",
        "resume_s": f"median of {len(resumes)} recovery passes",
        "completed_frac": f"{attempted - failed}/{attempted}",
        "peak_rss_mb": "process peak up to round 2",
        "test_j": f"mean of {len(rounds[0].signatures)} edits",
        "test_mra": f"mean of {len(rounds[0].signatures)} edits",
    }
    lines = [
        f"host speed: {len(meter)} calibrations, median {meter.median_ms():.3f} ms "
        f"(spread {meter.spread():.3f}); times below are scaled to "
        f"{1e3 * REFERENCE_S:g} ms per calibration"
    ]
    lines += [
        f"  {m.name:<16} {values[m.name]:<12.6g} {m.unit:<5} ({counts[m.name]})"
        for m in END_TO_END
    ]
    return values, lines


def _quality(first: RoundResult) -> dict[str, float]:
    signatures = list(first.signatures.values())
    return {
        "test_j": float(np.mean([s[1] for s in signatures])),
        "test_mra": float(np.nanmean([s[2] for s in signatures])),
    }


def _per_layer(tracer: Tracer, rounds, setup_s, workload: str):
    traced = [r for r in rounds if r.traced]
    n = max(len(traced), 1)
    self_time = tracer.self_times()
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    rows: dict[str, int] = {}
    recomputes = 0
    for span in tracer.spans:
        if span.phase != "round":
            continue
        key = span.name
        if key == "models.fit":
            model_key = f"models.fit.{span.attrs.get('model')}"
            sums[model_key] = sums.get(model_key, 0.0) + span.duration
        if key == "engine.acceptance":
            sums["engine.acceptance.self"] = (
                sums.get("engine.acceptance.self", 0.0) + self_time[span.id]
            )
        if key == "engine.preselect" and span.attrs.get("stale"):
            recomputes += 1
        sums[key] = sums.get(key, 0.0) + span.duration
        counts[key] = counts.get(key, 0) + 1
        rows[key] = rows.get(key, 0) + int(span.attrs.get("rows", 0))

    def per_round(table, key):
        return table.get(key, 0) / n

    values: dict[str, float] = {}
    for layer in ("models.fit", "models.predict", "models.partial_update", "sampling.generate"):
        values[f"{layer}.calls"] = per_round(counts, layer)
        values[f"{layer}.rows"] = per_round(rows, layer)
        values[f"{layer}.busy_s"] = per_round(sums, layer)
    for model in ("LR", "RF", "LGBM"):
        values[f"models.fit.{model}.busy_s"] = per_round(sums, f"models.fit.{model}")
    for stage in ("setup", "feedback", "preselect", "selection", "generation",
                  "acceptance", "finalize"):
        values[f"engine.{stage}.busy_s"] = per_round(sums, f"engine.{stage}")
    values["engine.acceptance.self_s"] = per_round(sums, "engine.acceptance.self")
    values["engine.preselect.recomputes"] = recomputes / n
    iterations = sum(r.iterations for r in traced)
    values["engine.accept_ratio"] = sum(r.accepted for r in traced) / max(iterations, 1)
    generated = rows.get("sampling.generate", 0)
    values["sampling.kept_ratio"] = (
        sum(r.n_added for r in traced) / generated if generated else 0.0
    )

    setup_spans = [s for s in tracer.spans if s.phase == "setup"]
    values["experiments.context.busy_s"] = sum(
        s.duration for s in setup_spans if s.name == "experiments.context"
    ) / len(setup_s)
    for key in ("serve.steps", "serve.step.busy_s", "serve.admission.wait_s",
                "serve.sessions.completed", "serve.sessions.failed",
                "serve.sessions.rejected", "serve.pool.peak_reserved_mb",
                "journal.io_s", "journal.records", "journal.bytes",
                "journal.errors", "feedback.ruleset_deltas"):
        values[key] = sum(r.layers.get(key, 0) for r in traced) / n

    resume_spans = [s for s in tracer.spans if s.phase == "resume"]
    passes = max(sum(s.name == "bench.recovery" for s in resume_spans), 1)
    values["journal.resume.busy_s"] = sum(
        s.duration for s in resume_spans if s.name == "journal.resume"
    ) / passes
    values["journal.resume.fit_calls"] = sum(
        s.name == "models.fit" for s in resume_spans
    ) / passes

    values["trace.coverage"] = tracer.coverage(("bench.edit", "bench.fleet"))
    # Round 0 also warms the process; leave it out when a later untraced
    # round exists.
    untraced = [r.edit_s for r in rounds if not r.traced]
    untraced = untraced[1:] or untraced
    values["trace.overhead"] = (
        median([r.edit_s for r in traced]) / median(untraced) - 1.0
        if traced
        else float("nan")
    )

    lines = [f"  {m.name:<30} {values[m.name]:.6g} {m.unit}" for m in PER_LAYER]
    lines.append(
        f"  ({n} traced rounds, per-round values; "
        f"{len(rounds) - n} untraced rounds)"
    )
    lines += _predictions(tracer, values, traced, workload)
    return values, lines


def _predictions(tracer: Tracer, values: dict, traced, workload: str) -> list[str]:
    """Check the split the benchmark predicts for each workload, and show
    where the time went: the layers with the most self time."""
    edit = sum(r.edit_s for r in traced)
    self_time = tracer.self_times()
    by_layer: dict[str, float] = {}
    for span in tracer.spans:
        if span.phase == "round" and not span.name.startswith("bench."):
            by_layer[span.name] = by_layer.get(span.name, 0.0) + self_time[span.id]
    top = sorted(by_layer.items(), key=lambda item: -item[1])[:4]
    n = len(traced)
    fit_share = n * values["models.fit.busy_s"] / edit
    aug_share = n * (
        values["sampling.generate.busy_s"] + values["engine.acceptance.self_s"]
    ) / edit
    lines = [
        "  largest self times, share of edit_s: "
        + ", ".join(f"{name} {seconds / edit:.3f}" for name, seconds in top),
        f"  models.fit share of edit_s: {fit_share:.3f}",
        f"  sampling.generate + engine.acceptance.self share of edit_s: {aug_share:.3f}",
        f"  trace coverage of edit_s: {values['trace.coverage']:.3f}"
        f"  tracing overhead: {values['trace.overhead']:+.3f}",
    ]
    if workload == "served_fleet":
        lines.append("  (fleet shares sum busy time over concurrent workers)")
    if workload == "paper_refit":
        verdict = fit_share > 0.5
        lines.append(f"  prediction 'models.fit dominates edit_s': {_yes(verdict)}")
    elif workload == "many_rules":
        verdict = aug_share > 0.5
        lines.append(
            "  prediction 'sampling.generate + engine.acceptance.self dominate "
            f"edit_s': {_yes(verdict)}"
        )
    else:
        verdict = values["journal.io_s"] > 0
        lines.append(f"  prediction 'journal.io_s is nonzero': {_yes(verdict)}")
    return lines


def _yes(ok: bool) -> str:
    return "confirmed" if ok else "NOT confirmed"
