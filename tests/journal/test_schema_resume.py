"""Journal parity across schema migrations.

The schema-evolution acceptance criteria, pinned at test scale:

* a session that adds and renames columns mid-run, crashed after a
  migration and an accepted post-migration batch were journaled,
  fast-forwards through the schema deltas and finishes **bit-identical**
  to the uninterrupted run (history, final columns, labels, and the
  content-hashed version lineage);
* the journal records the schema timeline (``SessionReplay
  .schema_timeline()``) and replay validates the re-derived version
  tokens against the journaled ones;
* runs with no schema deltas journal no schema records — the frozen
  default path is untouched;
* a crash at *any* model fit resumes bit-identically, including one that
  leaves a migration and a rule at the same boundary in the journal's
  uncommitted tail (replayed in write order), and replayed deltas are
  silent to listeners like replayed iterations.
"""

import numpy as np
import pytest

from repro.data.evolution import SchemaDelta
from repro.journal import JournalReader, SessionReplay
from repro.models import paper_algorithm

from test_replay_parity import make_session

DELTA2 = SchemaDelta.add_column("tenure", fill=3.0)
DELTA4 = SchemaDelta.rename_column("income", "annual_income")


def migrating_session(jdir, name, algorithm=None):
    """tau=8 with accept_equal so a batch is accepted *after* the
    iteration-2 migration — exercising journaled batches keyed by the
    migrated schema — plus a rule deferred until ``tenure`` lands."""
    session = (
        make_session(tau=8, accept_equal=True)
        .with_schema_migration(2, DELTA2)
        .with_schema_migration(4, DELTA4)
        .with_scheduled_rules(3, "tenure > 2 AND age < 30 => approve")
        .journaled(jdir, name=name)
    )
    if algorithm is not None:
        session = session.with_algorithm(algorithm)
    return session


def same_boundary_session(jdir, name, algorithm=None):
    """A migration plus a rule needing its column at iteration 2, a
    rename at 4, and a plain rule at 5."""
    session = (
        make_session(tau=8, accept_equal=True)
        .with_schema_migration(2, DELTA2)
        .with_scheduled_rules(2, "tenure > 2 AND age < 30 => approve")
        .with_schema_migration(4, DELTA4)
        .with_scheduled_rules(5, "age > 70 => deny")
        .journaled(jdir, name=name)
    )
    if algorithm is not None:
        session = session.with_algorithm(algorithm)
    return session


#: Model fits in one uninterrupted ``same_boundary_session`` run: setup,
#: one candidate per iteration, and the refit after ``add_column``.
SAME_BOUNDARY_FITS = 10


@pytest.fixture(scope="module")
def same_boundary_full(tmp_path_factory):
    base = paper_algorithm("LR")
    fits = {"n": 0}

    def counting(dataset):
        fits["n"] += 1
        return base(dataset)

    jdir = tmp_path_factory.mktemp("full")
    result = same_boundary_session(jdir, "full", counting).run()
    return result, fits["n"]


class Crash(RuntimeError):
    """Simulated mid-iteration death (in-process SIGKILL stand-in)."""


def bomb_algorithm(at_fit):
    base = paper_algorithm("LR")
    fits = {"n": 0}

    def algorithm(dataset):
        fits["n"] += 1
        if fits["n"] == at_fit:
            raise Crash(f"fit #{at_fit}")
        return base(dataset)

    return algorithm


def assert_runs_identical(got, want):
    assert got.history == want.history
    assert got.n_added == want.n_added
    assert got.dataset.X.schema == want.dataset.X.schema
    np.testing.assert_array_equal(got.dataset.y, want.dataset.y)
    for name in want.dataset.X.schema.names:
        np.testing.assert_array_equal(
            got.dataset.X.column(name), want.dataset.X.column(name)
        )
    assert [r.version for r in got.schema_log] == [
        r.version for r in want.schema_log
    ]


class TestSchemaCrashResume:
    def test_crash_after_migration_resumes_bit_identical(self, tmp_path):
        full = migrating_session(tmp_path, "full").run()
        assert [r.iteration for r in full.schema_log] == [2, 4]
        assert [r.model_refit for r in full.schema_log] == [True, False]
        assert "annual_income" in full.dataset.X.schema.names

        # Fit #6 dies inside iteration 3: the journal holds the
        # iteration-2 migration plus an accepted post-migration batch.
        with pytest.raises(Crash):
            migrating_session(tmp_path, "crash", bomb_algorithm(6)).run()

        replay = SessionReplay.load(tmp_path / "crash")
        committed = replay.committed()
        assert 0 < len(committed) < 8
        assert any(c.accepted for c in committed)
        assert len(replay.schema_timeline()) == 1
        assert replay.schema_timeline()[0]["op"] == "add_column"

        resumed = migrating_session(tmp_path, "crash").run()
        assert_runs_identical(resumed, full)

        replay = SessionReplay.load(tmp_path / "crash")
        assert replay.summary()["resumes"] == 1
        assert replay.summary()["finished"]
        assert replay.summary()["schema_deltas"] == 2

    def test_crash_before_first_migration_resumes_bit_identical(self, tmp_path):
        full = migrating_session(tmp_path, "full").run()
        # Fit #3 dies inside iteration 2, before the boundary migration.
        with pytest.raises(Crash):
            migrating_session(tmp_path, "crash", bomb_algorithm(3)).run()
        assert SessionReplay.load(tmp_path / "crash").schema_timeline() == []
        resumed = migrating_session(tmp_path, "crash").run()
        assert_runs_identical(resumed, full)

    def test_finished_migrated_journal_fast_forwards(self, tmp_path):
        full = migrating_session(tmp_path, "s").run()
        again = migrating_session(tmp_path, "s").run()
        assert_runs_identical(again, full)
        replay = SessionReplay.load(tmp_path / "s")
        assert replay.summary()["runs"] == 1
        assert replay.summary()["resumes"] == 1

    @pytest.mark.parametrize("at_fit", range(2, SAME_BOUNDARY_FITS + 1))
    def test_crash_at_every_fit_resumes_bit_identical(
        self, tmp_path, same_boundary_full, at_fit
    ):
        full, fits = same_boundary_full
        assert fits == SAME_BOUNDARY_FITS  # every fit is a crash point
        with pytest.raises(Crash):
            same_boundary_session(tmp_path, "crash", bomb_algorithm(at_fit)).run()
        resumed = same_boundary_session(tmp_path, "crash").run()
        assert_runs_identical(resumed, full)

    def test_fast_forward_replays_no_delta_events(self, tmp_path):
        migrating_session(tmp_path, "s").run()
        kinds = []
        migrating_session(tmp_path, "s").on_event(
            lambda event: kinds.append(event.kind)
        ).run()
        assert kinds == ["started", "finished"]

    def test_schema_timeline_carries_lineage(self, tmp_path):
        result = migrating_session(tmp_path, "s").run()
        timeline = SessionReplay.load(tmp_path / "s").schema_timeline()
        assert [row["iteration"] for row in timeline] == [2, 4]
        assert [row["op"] for row in timeline] == [
            "add_column", "rename_column",
        ]
        assert [row["version"] for row in timeline] == [
            r.version for r in result.schema_log
        ]
        # The chain links: the rename's parent is the add's version.
        assert timeline[1]["parent"] == timeline[0]["version"]

    def test_frozen_run_journals_no_schema_records(self, tmp_path):
        make_session().journaled(tmp_path, name="s").run()
        replay = SessionReplay.load(tmp_path / "s")
        assert replay.schema_timeline() == []
        assert replay.summary()["schema_deltas"] == 0
        kinds = {
            record.kind
            for record in JournalReader(tmp_path / "s").iter_records()
        }
        assert "schema-delta" not in kinds
