"""The dataset delta journal: "what changed since version v?".

Every mutation of the edit loop's active dataset is recorded as a
:class:`DatasetDelta` — either an **append** of a contiguous row range
(an accepted batch) or a **rebuild** (setup, modification, warm start:
anything that may have touched arbitrary rows).  Deltas form a version
graph keyed by the process-global dataset-version tokens that
:class:`~repro.engine.state.EditState` hands out, and
:class:`DeltaJournal.appended_between` answers the one question every
cache needs: *is the dataset at version ``v_new`` exactly the dataset at
``v_old`` plus appended rows — and if so, which rows?*

Consumers (memoized predictions, the FRS row assignment, fitted neighbour
indices, partial model refits) use the answer to extend cached values by
the delta instead of recomputing them over the full dataset, which is the
core of the incremental compute path.  Any non-append mutation, or a
version the journal no longer remembers, answers ``None`` — the caller
falls back to a full recompute, so the journal can never produce a wrong
result, only a slower one.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["DatasetDelta", "DeltaJournal"]

#: Delta kinds: ``append`` adds rows ``[start, stop)`` at the end of the
#: parent version's dataset; ``rebuild`` invalidates everything;
#: ``schema`` changes the feature space itself (row count preserved).
APPEND = "append"
REBUILD = "rebuild"
SCHEMA = "schema"


@dataclass(frozen=True)
class DatasetDelta:
    """One recorded mutation of the active dataset.

    Attributes
    ----------
    version:
        Dataset-version token *after* the mutation.
    parent:
        Token of the version this delta was applied to.
    start, stop:
        Appended row range ``[start, stop)`` for ``kind="append"``;
        ``(0, 0)`` otherwise.
    kind:
        ``"append"``, ``"rebuild"`` or ``"schema"``.
    provenance:
        Who recorded the delta (``"accepted-batch"``, ``"setup"``, ...),
        for audits and progress displays.
    """

    version: int
    parent: int
    start: int = 0
    stop: int = 0
    kind: str = APPEND
    provenance: str = ""

    @property
    def n_appended(self) -> int:
        """Number of rows this delta appended (0 for rebuilds)."""
        return self.stop - self.start

    @property
    def is_append(self) -> bool:
        return self.kind == APPEND


class DeltaJournal:
    """Bounded log of :class:`DatasetDelta` s forming a version graph.

    Parameters
    ----------
    max_entries:
        Oldest deltas are evicted past this size; asking about an evicted
        version simply answers "unknown" (→ full recompute).  The edit
        loop's consumers are at most a handful of versions behind, so a
        small bound suffices.
    """

    def __init__(self, *, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._deltas: OrderedDict[int, DatasetDelta] = OrderedDict()

    def __len__(self) -> int:
        return len(self._deltas)

    def __iter__(self):
        return iter(self._deltas.values())

    # ------------------------------------------------------------------ #
    def record(self, delta: DatasetDelta) -> DatasetDelta:
        """Add a delta to the journal (evicting the oldest past the bound)."""
        self._deltas[delta.version] = delta
        while len(self._deltas) > self.max_entries:
            self._deltas.popitem(last=False)
        return delta

    def record_append(
        self, parent: int, version: int, start: int, stop: int, provenance: str = ""
    ) -> DatasetDelta:
        """Record that ``version`` is ``parent`` plus rows ``[start, stop)``."""
        if stop < start:
            raise ValueError(f"invalid appended range [{start}, {stop})")
        return self.record(
            DatasetDelta(version, parent, start, stop, APPEND, provenance)
        )

    def record_rebuild(
        self, parent: int, version: int, provenance: str = ""
    ) -> DatasetDelta:
        """Record that ``version`` shares nothing cacheable with ``parent``."""
        return self.record(
            DatasetDelta(version, parent, 0, 0, REBUILD, provenance)
        )

    def record_schema(self, parent: int, version: int, provenance: str = "") -> DatasetDelta:
        """Record that ``version`` is ``parent`` after a schema migration.

        Row count and row identity are preserved, but columns changed;
        :meth:`appended_between` treats the boundary as uncrossable (the
        safe answer).
        """
        return self.record(DatasetDelta(version, parent, 0, 0, SCHEMA, provenance))

    # ------------------------------------------------------------------ #
    def get(self, version: int) -> DatasetDelta | None:
        """The delta that *produced* ``version``, if still remembered."""
        return self._deltas.get(version)

    def appended_between(self, old: int, new: int) -> tuple[int, int] | None:
        """Row range appended between versions ``old`` and ``new``.

        Returns ``(start, stop)`` — rows of the ``new``-version dataset
        not present at ``old`` — when the path from ``old`` to ``new``
        consists purely of appends; the ranges of a multi-append path are
        contiguous by construction, so they merge into one.  Equal
        versions answer ``(0, 0)``.  Returns ``None`` when a rebuild lies
        on the path or the path left the journal window.
        """
        if old == new:
            return (0, 0)
        stop: int | None = None
        start = 0
        cursor = new
        # Walk parent pointers; bounded by the journal size.
        for _ in range(len(self._deltas) + 1):
            delta = self._deltas.get(cursor)
            if delta is None or not delta.is_append:
                return None
            if stop is None:
                stop = delta.stop
            start = delta.start
            cursor = delta.parent
            if cursor == old:
                assert stop is not None
                return (start, stop)
        return None
