"""Output checks: each raises :class:`CheckFailed` on a wrong result.

They take plain data (edit signatures, journal paths, pool figures), so
the smoke tests can feed them corrupted results and see them fire.
"""

from __future__ import annotations

import math
from pathlib import Path


class CheckFailed(AssertionError):
    """An output of the benchmarked program is wrong."""


def edit_signature(result, evaluation) -> tuple:
    """What must repeat exactly for one edit: the per-iteration loss,
    verdict and rows added, plus the held-out J̄ and MRA."""
    history = tuple(
        (float(r.candidate_loss), bool(r.accepted), int(r.n_added_total))
        for r in result.history
    )
    return history, float(evaluation.j_weighted()), float(evaluation.mra)


def _same(a, b) -> bool:
    # NaN-aware exact equality over nested tuples (held-out MRA is NaN
    # when no rule covers a test row).
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def check_repeats(reference: dict, other: dict, what: str) -> None:
    """Two rounds on the same seed must give the same edits, bit for bit.

    ``reference`` / ``other`` map an edit's name to its
    :func:`edit_signature`.
    """
    if reference.keys() != other.keys():
        raise CheckFailed(
            f"{what}: edits differ: {sorted(reference)} vs {sorted(other)}"
        )
    for name, expected in reference.items():
        if not _same(expected, other[name]):
            raise CheckFailed(f"{what}: edit {name!r} gave a different result")


def check_incremental_parity(incremental: tuple, rebuild: tuple) -> None:
    """GaussianNB's O(batch) partial refits must reproduce full refits."""
    if not _same(incremental, rebuild):
        raise CheckFailed(
            "incremental GaussianNB edit differs from the non-incremental one"
        )


def check_fleet(
    statuses: dict[str, str], peak_reserved_mb: float, pool_mb: float
) -> None:
    """Every tenant completes, and the pool was never over-reserved."""
    unfinished = sorted(name for name, status in statuses.items() if status != "done")
    if unfinished:
        raise CheckFailed(f"tenants did not complete: {unfinished}")
    if not peak_reserved_mb <= pool_mb:
        raise CheckFailed(
            f"peak reserved memory {peak_reserved_mb} MiB exceeds the "
            f"{pool_mb} MiB pool"
        )


def check_journals(paths: list[Path]) -> list:
    """Every journal scans clean; returns the scans."""
    from repro.journal import JournalReader

    if not paths:
        raise CheckFailed("no journals were written")
    scans = []
    for path in paths:
        scan = JournalReader(path).scan()
        if not scan.ok:
            raise CheckFailed(
                f"journal {path.name} does not scan clean: "
                f"{scan.truncation.reason} ({scan.truncation.detail})"
            )
        scans.append(scan)
    return scans


def check_resumed(live: dict, resumed: dict) -> None:
    """Each journal fast-forward must rebuild its live history."""
    for name, history in live.items():
        if name not in resumed or resumed[name] != history:
            raise CheckFailed(f"resumed history of {name!r} differs from live")
