"""The three workloads: inputs made from a seed, and one measured round.

* ``paper_refit`` — the paper's protocol on ``adult``: one edit per paper
  model (LR, RF, LGBM).  Refit-bound, like real use.
* ``many_rules`` — ``nursery`` at paper size with an 8-rule feedback set
  and GaussianNB on the incremental path: refits are O(batch) partial
  updates, so augmentation does the work.
* ``served_fleet`` — 16 tenants served by one ``EditService`` with a
  shared memory pool and journals, then every tenant resumed from its
  journal.

Each workload edits one fixed problem instance (dataset draws, rule
pool, rule draws) and takes the random streams of its edits from the
seed: across instances the work per edit varies far more than across
streams (``many_rules`` instances accept from 0% to 77% of batches),
which would swamp any regression bound.

Each workload exposes ``setup(seed, tracer)`` (the set-up the benchmark
times), ``round(inputs, workdir, tracer)`` (one measured round) and
``start_recovery(inputs, first_round, workdir, tracer)``: once per
invocation, the journals whose fast-forward :func:`recover` times (or
``None`` when each round's result carries its own).  ``tracer`` is
``None`` on untraced runs.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import dataclasses
import shutil
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import repro
from repro.core.objective import evaluate_model
from repro.core.options import KernelOptions, ServeOptions, StorageOptions
from repro.datasets import load_dataset
from repro.experiments.setup import build_context, prepare_run
from repro.models import GaussianNB, algorithm, make_algorithm
from repro.serve import EditService

from perfbench.checks import (
    check_fleet,
    check_incremental_parity,
    check_journals,
    check_resumed,
    edit_signature,
)
from perfbench.speed import Speedometer


@dataclass
class Recovery:
    """Journals to fast-forward: one per name in ``live``, under
    ``journal_dir``; ``make_session(name, tracer)`` rebuilds the session
    that wrote each."""

    make_session: Callable
    live: dict
    journal_dir: Path
    passes: int = 0


@dataclass
class RoundResult:
    """What one measured round produced."""

    edit_s: float  # wall time of the round's edits (the fleet, when served)
    sessions: int  # edits or sessions completed
    attempted: int
    failed: int
    iter_s: list[float]  # engine-timed iteration times, scaled
    step_s: list[float]  # engine step latency as its caller saw it, scaled
    signatures: dict  # edit name -> checks.edit_signature
    #: Journals this round wrote for recovery, if it wrote its own.
    recovery: Recovery | None = None
    #: Library-reported per-round figures (serving, journal, feedback).
    layers: dict[str, float] = field(default_factory=dict)
    accepted: int = 0
    iterations: int = 0
    n_added: int = 0
    traced: bool = False


@dataclass(frozen=True)
class EditInputs:
    """One edit's inputs: training set, held-out set, feedback rules."""

    train: object
    test: object
    frs: object


def _seeds(seed: int, label: str, count: int) -> list[int]:
    """Deterministic child seeds of the workload seed."""
    rng = np.random.default_rng([seed, zlib.crc32(label.encode())])
    return [int(s) for s in rng.integers(2**31, size=count)]


def _prepare(ctx, frs_size: int, rng) -> EditInputs:
    """The paper's per-run draw: a conflict-free FRS plus the tcf split
    (redrawn from the same stream until the pool yields one)."""
    for _ in range(50):
        prepared = prepare_run(ctx, frs_size=frs_size, tcf=0.7, rng=rng)
        if prepared is not None:
            return EditInputs(prepared.train, prepared.test, prepared.frs)
    raise RuntimeError(f"no conflict-free {frs_size}-rule set in the pool")


def _span(tracer, name: str, **attrs):
    """A tracer span, or nothing on untraced runs."""
    return tracer.span(name, **attrs) if tracer is not None else contextlib.nullcontext()


def _context(tracer, dataset: str, n: int, seed: int):
    with _span(tracer, "experiments.context"):
        return build_context(dataset, "LR", n=n, random_state=seed)


class _Timings:
    """Listener collecting one session's iteration and step intervals on
    the wall clock, and calibrating the host's speed between iterations."""

    def __init__(self, meter: Speedometer, iters: list, steps: list | None) -> None:
        self.meter = meter
        self.iters = iters  # (end, engine-timed seconds)
        self.steps = steps  # (start, end)
        self.last = None

    def __call__(self, event) -> None:
        now = time.time()
        if event.kind == "started":
            self.last = now
        elif event.record is not None:
            self.iters.append((now, event.iteration_seconds))
            if self.steps is not None and self.last is not None:
                self.steps.append((self.last, now))
            self.last = now
            self.meter.tick()


def _scale_timings(meter: Speedometer, out: "RoundResult", iters, steps) -> None:
    """Iteration and step times of a round, at the reference speed."""
    out.iter_s = [s * meter.factor(end - s, end) for end, s in iters]
    out.step_s = [meter.scaled(start, end) for start, end in steps]


def _session(inputs: EditInputs, algo, model: str, tracer, **config):
    if tracer is not None:
        algo = tracer.algorithm(algo, model)
    return (
        repro.edit(inputs.train)
        .with_rules(inputs.frs)
        .with_algorithm(algo)
        .configure(**config)
    )


def _trace_engine(session, tracer, trace: str):
    if tracer is not None:
        session.with_engine(tracer.engine(session, trace))
    return session


def _run_edit(session, tracer, trace: str, meter: Speedometer):
    """Run one edit; return its result and its scaled wall time."""
    meter.sample()
    t0 = time.time()
    with _span(tracer, "bench.edit", trace=trace):
        result = session.run()
    t1 = time.time()
    meter.sample()
    return result, meter.scaled(t0, t1)


def _count(result_list, out: RoundResult) -> None:
    for result in result_list:
        out.accepted += result.accepted_iterations
        out.iterations += len(result.history)
        out.n_added += result.n_added


def recover(recovery: Recovery, tracer, meter: Speedometer) -> float:
    """One recovery pass: fast-forward every journal from a pristine copy
    (a resume appends), check each resumed history against the live one,
    and return the pass's scaled wall seconds."""
    if tracer is not None:
        tracer.phase = "resume"
    copy = recovery.journal_dir.with_name(
        f"{recovery.journal_dir.name}-resume-{recovery.passes}"
    )
    recovery.passes += 1
    shutil.copytree(recovery.journal_dir, copy)
    resumed = {}
    meter.sample()
    t0 = time.time()
    with _span(tracer, "bench.recovery"):
        for name in recovery.live:
            session = recovery.make_session(name, tracer).journaled(str(copy), name=name)
            session.on_event(lambda event: meter.tick())
            _trace_engine(session, tracer, f"resume/{name}")
            with _span(tracer, "journal.resume", trace=f"resume/{name}"):
                resumed[name] = session.run().history
            meter.tick()
    t1 = time.time()
    meter.sample()
    check_resumed(recovery.live, resumed)
    shutil.rmtree(copy)
    return meter.scaled(t0, t1)


@dataclass(frozen=True)
class Prepared:
    """A workload's inputs: the measured edit's, plus the further draws
    its recovery phase journals (the protocol's grid of runs) and the
    seed of their edits."""

    inputs: EditInputs
    edit_seed: int
    grid: tuple[EditInputs, ...] = ()
    grid_seed: int = 0


# ---------------------------------------------------------------------- #
class PaperRefit:
    """One edit per paper model on ``adult``.  Its recovery fast-forwards
    a journaled grid of LR runs over further rule draws."""

    name = "paper_refit"
    models = ("LR", "RF", "LGBM")
    instance = 0

    def __init__(self, scale: str, meter: Speedometer) -> None:
        self.meter = meter
        if scale == "paper":
            self.n, self.tau, self.eta, self.grid = 400, 4, 20, 16
        else:
            self.n, self.tau, self.eta, self.grid = 150, 2, 10, 2
            self.models = ("LR", "RF")

    def setup(self, seed: int, tracer) -> Prepared:
        # The grid's edits take the instance's stream, not the seed's: the
        # refits a fast-forward repeats follow the accepted batches, which
        # moved resume_s by a quarter between seeds.
        ctx_seed, draw_seed, grid_seed = _seeds(self.instance, self.name, 3)
        (edit_seed,) = _seeds(seed, f"{self.name}/edits", 1)
        ctx = _context(tracer, "adult", self.n, ctx_seed)
        rng = np.random.default_rng(draw_seed)
        inputs = _prepare(ctx, 2, rng)
        grid = tuple(_prepare(ctx, 2, rng) for _ in range(self.grid))
        return Prepared(inputs, edit_seed, grid, grid_seed)

    def _session(self, inputs: EditInputs, model: str, edit_seed: int, tracer):
        return _session(
            inputs, algorithm(model), model, tracer,
            tau=self.tau, q=0.5, eta=self.eta, random_state=edit_seed,
        )

    def round(self, prepared: Prepared, workdir: Path, tracer) -> RoundResult:
        inputs = prepared.inputs
        out = RoundResult(0.0, 0, 0, 0, [], [], {})
        results, iters, steps = [], [], []
        timings = _Timings(self.meter, iters, steps)
        for model in self.models:
            session = self._session(inputs, model, prepared.edit_seed, tracer)
            session.on_event(timings)
            _trace_engine(session, tracer, model)
            out.attempted += 1
            result, seconds = _run_edit(session, tracer, model, self.meter)
            out.edit_s += seconds
            out.sessions += 1
            results.append(result)
            out.signatures[model] = edit_signature(
                result, evaluate_model(result.model, inputs.test, inputs.frs)
            )
        _count(results, out)
        _scale_timings(self.meter, out, iters, steps)
        return out

    def start_recovery(
        self, prepared: Prepared, first: RoundResult, workdir: Path, tracer
    ) -> Recovery:
        """Journal the LR grid."""
        grid = {f"LR-{i}": inputs for i, inputs in enumerate(prepared.grid)}

        def make(name, tracer):
            return self._session(grid[name], "LR", prepared.grid_seed, tracer)

        journal_dir = workdir / "grid"
        live = {}
        for name in grid:
            session = make(name, tracer).journaled(str(journal_dir), name=name)
            _trace_engine(session, tracer, name)
            live[name] = session.run().history
        check_journals([journal_dir / name for name in grid])
        return Recovery(make, live, journal_dir)


# ---------------------------------------------------------------------- #
class ManyRules:
    """``nursery`` at paper size, 8 rules, GaussianNB on the incremental
    path.  A journaled non-incremental edit checks the incremental one,
    and its journal is what recovery fast-forwards."""

    name = "many_rules"
    #: The first instance whose edits accept 10-20% of batches (16 and 20
    #: of 120 on two streams), like the profile this workload stands for.
    instance = 1

    def __init__(self, scale: str, meter: Speedometer) -> None:
        self.meter = meter
        if scale == "paper":
            self.n, self.n_rules, self.tau, self.eta = 12958, 8, 120, 50
        else:
            self.n, self.n_rules, self.tau, self.eta = 1000, 3, 10, 20

    def setup(self, seed: int, tracer) -> Prepared:
        ctx_seed, draw_seed, _ = _seeds(self.instance, self.name, 3)
        (edit_seed,) = _seeds(seed, f"{self.name}/edits", 1)
        ctx = _context(tracer, "nursery", self.n, ctx_seed)
        inputs = _prepare(ctx, self.n_rules, np.random.default_rng(draw_seed))
        return Prepared(inputs, edit_seed)

    def _session(self, prepared: Prepared, tracer, incremental: bool):
        return _session(
            prepared.inputs,
            make_algorithm(GaussianNB, standardize=False),
            "NB",
            tracer,
            tau=self.tau,
            q=1.0,
            eta=self.eta,
            random_state=prepared.edit_seed,
            kernel=KernelOptions(incremental=incremental),
        )

    def round(self, prepared: Prepared, workdir: Path, tracer) -> RoundResult:
        inputs = prepared.inputs
        out = RoundResult(0.0, 0, 0, 0, [], [], {})
        session = self._session(prepared, tracer, True)
        iters, steps = [], []
        session.on_event(_Timings(self.meter, iters, steps))
        _trace_engine(session, tracer, "NB")
        out.attempted += 1
        result, out.edit_s = _run_edit(session, tracer, "NB", self.meter)
        out.sessions = 1
        out.signatures["NB"] = edit_signature(
            result, evaluate_model(result.model, inputs.test, inputs.frs)
        )
        _count([result], out)
        _scale_timings(self.meter, out, iters, steps)
        return out

    def start_recovery(
        self, prepared: Prepared, first: RoundResult, workdir: Path, tracer
    ) -> Recovery:
        """The incremental-vs-rebuild parity check, on a journaled
        reference edit."""
        inputs = prepared.inputs
        journal_dir = workdir / "reference"
        session = self._session(prepared, tracer, False)
        session.journaled(str(journal_dir), name="NB")
        _trace_engine(session, tracer, "check/NB")
        reference = session.run()
        check_incremental_parity(
            first.signatures["NB"],
            edit_signature(
                reference, evaluate_model(reference.model, inputs.test, inputs.frs)
            ),
        )
        check_journals([journal_dir / "NB"])
        return Recovery(
            lambda name, tracer: self._session(prepared, tracer, False),
            {"NB": reference.history},
            journal_dir,
        )


# ---------------------------------------------------------------------- #
class ServedFleet:
    """A closed loop of 16 tenants, each awaiting its own edit, under
    ``weighted-priority`` with a shared pool and journals; odd tenants get
    their second rule mid-run.  Then every tenant is fast-forwarded from
    the journal the fleet wrote."""

    name = "served_fleet"
    session_mb = 16.0
    instance = 0

    def __init__(self, scale: str, meter: Speedometer) -> None:
        self.meter = meter
        if scale == "paper":
            self.tenants, self.n, self.tau, self.active = 16, 400, 20, 8
        else:
            self.tenants, self.n, self.tau, self.active = 4, 200, 4, 2
        self.pool_mb = self.session_mb * self.active
        # One event loop with one worker thread serves every round (the
        # service runs one quantum at a time).  New threads, from a loop
        # per round or from an executor that starts one whenever the last
        # has not yet gone idle, each grow the RSS by a malloc arena.
        self._runner = asyncio.Runner()
        self._runner.get_loop().set_default_executor(
            concurrent.futures.ThreadPoolExecutor(max_workers=1)
        )

    def close(self) -> None:
        """Close the event loop and join its worker thread."""
        self._runner.close()

    def setup(self, seed: int, tracer):
        ctx_seed, draw_seed, *data_seeds = _seeds(
            self.instance, self.name, 2 + self.tenants
        )
        edit_seeds = _seeds(seed, f"{self.name}/edits", self.tenants)
        ctx = _context(tracer, "adult", 1000, ctx_seed)
        rng = np.random.default_rng(draw_seed)
        tenants = []
        for i, (data_seed, edit_seed) in enumerate(zip(data_seeds, edit_seeds)):
            own = dataclasses.replace(
                ctx, dataset=load_dataset("adult", self.n, random_state=data_seed)
            )
            tenants.append((f"tenant-{i}", _prepare(own, 2, rng), edit_seed))
        return tenants

    def _spec(self, tenant, tracer):
        name, inputs, edit_seed = tenant
        algo = algorithm("LR")
        if tracer is not None:
            algo = tracer.algorithm(algo, "LR")
        session = (
            repro.edit(inputs.train)
            .with_algorithm(algo)
            .configure(tau=self.tau, q=0.5, eta=20, random_state=edit_seed)
        )
        rules = list(inputs.frs)
        if int(name.rsplit("-", 1)[1]) % 2:
            session.with_rules(rules[0]).with_scheduled_rules(self.tau // 2, rules[1:])
        else:
            session.with_rules(rules)
        return session

    async def _serve(self, tenants, workdir: Path, tracer, iters: list):
        service = EditService(
            options=ServeOptions(
                max_concurrent_steps=1,
                policy="weighted-priority",
                memory_budget_mb=self.pool_mb,
                default_session_mb=self.session_mb,
                journal_dir=str(workdir),
            )
        )
        handles = []
        for i, tenant in enumerate(tenants):
            spec = self._spec(tenant, tracer)
            spec.on_event(_Timings(self.meter, iters, None))
            _trace_engine(spec, tracer, tenant[0])
            handles.append(service.submit(spec, name=tenant[0], priority=1.0 + i % 3))
        outcomes = await asyncio.gather(
            *(h.run_to_completion() for h in handles), return_exceptions=True
        )
        stats = service.stats()
        await service.close()
        statuses = {h.name: h.status for h in handles}
        return outcomes, statuses, stats, service

    def round(self, tenants, workdir: Path, tracer) -> RoundResult:
        out = RoundResult(0.0, 0, 0, 0, [], [], {})
        span = tracer.root_span("bench.fleet") if tracer else contextlib.nullcontext()
        iters = []
        self.meter.sample()
        t0 = time.time()
        with span:
            outcomes, statuses, stats, service = self._runner.run(
                self._serve(tenants, workdir, tracer, iters)
            )
        t1 = time.time()
        self.meter.sample()
        out.edit_s = self.meter.scaled(t0, t1)
        out.attempted = len(tenants)
        out.failed = sum(status != "done" for status in statuses.values())
        out.sessions = out.attempted - out.failed
        check_fleet(statuses, stats["peak_reserved_mb"], self.pool_mb)

        scans = check_journals(
            [workdir / t[0] for t in tenants] + [workdir / "_service"]
        )
        service_records = scans[-1].records
        submitted = {
            r.data["name"]: r.t for r in service_records if r.kind == "session-submitted"
        }
        # A quantum's record is written just after it ends.
        steps = [
            (r.t - r.data["seconds"], r.t)
            for r in service_records
            if r.kind == "quantum" and r.data["kind"] == "step"
        ]
        _scale_timings(self.meter, out, iters, steps)
        live = {}
        for (name, inputs, _), result in zip(tenants, outcomes):
            live[name] = result.history
            out.signatures[name] = edit_signature(
                result, evaluate_model(result.model, inputs.test, inputs.frs)
            )
        _count(outcomes, out)
        out.layers = {
            "serve.steps": len(out.step_s),
            "serve.step.busy_s": float(sum(out.step_s)),
            "serve.admission.wait_s": float(
                sum(
                    r.t - submitted[r.data["name"]]
                    for r in service_records
                    if r.kind == "admission-granted"
                )
            ),
            "serve.sessions.completed": stats["n_completed"],
            "serve.sessions.failed": stats["n_failed"] + stats["n_cancelled"],
            "serve.sessions.rejected": stats["n_rejected"],
            "serve.pool.peak_reserved_mb": stats["peak_reserved_mb"],
            "journal.io_s": service.journal_io_seconds,
            "journal.records": sum(len(s.records) for s in scans),
            "journal.bytes": sum(p.stat().st_size for s in scans for p in s.segments),
            "journal.errors": service.journal_errors,
            "feedback.ruleset_deltas": sum(len(r.ruleset_log) for r in outcomes),
        }

        by_name = {tenant[0]: tenant for tenant in tenants}

        def make(name, tracer):
            return self._spec(by_name[name], tracer).configure(
                storage=StorageOptions(max_resident_mb=self.session_mb)
            )

        out.recovery = Recovery(make, live, workdir)
        return out

    def start_recovery(self, tenants, first: RoundResult, workdir: Path, tracer):
        return None  # each round recovers the fleet it served


WORKLOAD_CLASSES = {w.name: w for w in (PaperRefit, ManyRules, ServedFleet)}
