"""Turn-count difficulty bins, the three-stage cumulative schedule, and the
turn/resolve correlation diagnostic.

Bins are lower-inclusive/upper-exclusive, except the last bin which also
includes its upper bound, so a trajectory at exactly max_turns still bins
as hard. Defaults: easy [0,50), medium [50,70), hard [70,100].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import DEFAULT_MAX_TURNS, EASY_UPPER, MEDIUM_UPPER
from .errors import ForgeError, ValidationFailure
from .schema import Trajectory, TrajectorySummary


class BinningError(ValidationFailure):
    """Turn count outside every interval, or malformed bin configuration."""


class UndefinedCorrelationError(ForgeError):
    """Correlation is undefined: a single bucket or zero variance."""


@dataclass(frozen=True)
class DifficultyBin:
    label: str
    lower: int
    upper: int  # exclusive, except for the last bin of a partition


@dataclass(frozen=True)
class StagePlan:
    """Cumulative stages: S1 is the easy set, S2 adds medium, S3 adds hard.
    Each stage is sorted by trajectory id; S1 <= S2 <= S3 as sets."""

    stages: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class CorrelationReport:
    r: float
    n: int
    bins: tuple[tuple[float, float], ...]  # (bucket midpoint, resolve rate)


def default_bins(
    max_turns: int = DEFAULT_MAX_TURNS,
    easy_upper: int = EASY_UPPER,
    medium_upper: int = MEDIUM_UPPER,
) -> tuple[DifficultyBin, ...]:
    """The easy/medium/hard partition of [0, max_turns] at the given bounds."""
    return (
        DifficultyBin("easy", 0, easy_upper),
        DifficultyBin("medium", easy_upper, medium_upper),
        DifficultyBin("hard", medium_upper, max_turns),
    )


def _check_partition(bins: Sequence[DifficultyBin]) -> None:
    if not bins:
        raise BinningError("no bins configured")
    if bins[0].lower != 0:
        raise BinningError("first bin must start at 0")
    for i, b in enumerate(bins):
        if b.upper <= b.lower:
            raise BinningError(f"bin {b.label!r} is empty: [{b.lower}, {b.upper})")
        if i and b.lower != bins[i - 1].upper:
            raise BinningError(
                f"bins {bins[i - 1].label!r} and {b.label!r} do not tile the turn domain"
            )


def bin_by_turns(
    traj: Trajectory | TrajectorySummary | int, bins: Sequence[DifficultyBin] | None = None
) -> str:
    """Label a trajectory (or raw turn count) with its difficulty bin."""
    if bins is None:
        bins = default_bins()
    _check_partition(bins)
    turns = traj if isinstance(traj, int) else traj.turn_count
    for i, b in enumerate(bins):
        if b.lower <= turns < b.upper:
            return b.label
        if i == len(bins) - 1 and turns == b.upper:
            return b.label
    raise BinningError(f"turn count {turns} outside all bins")


def build_stages(
    trajs: Iterable[Trajectory | TrajectorySummary], bins: Sequence[DifficultyBin] | None = None
) -> StagePlan:
    """Assign every trajectory a bin and build the cumulative stage sets."""
    if bins is None:
        bins = default_bins()
    by_label: dict[str, list[str]] = {b.label: [] for b in bins}
    for traj in trajs:
        by_label[bin_by_turns(traj, bins)].append(traj.trajectory_id)
    stages = []
    cumulative: list[str] = []
    for b in bins:
        cumulative.extend(by_label[b.label])
        stages.append(tuple(sorted(cumulative)))
    return StagePlan(stages=tuple(stages))


def selected_for_training(
    traj: Trajectory | TrajectorySummary, *, recycle_semi_resolved: bool = True
) -> bool:
    """The training-set selection rule: resolved (plus semi_resolved when
    recycling), excluding truncated trajectories that hit the turn budget."""
    wanted = traj.outcome == "resolved" or (recycle_semi_resolved and traj.outcome == "semi_resolved")
    return wanted and traj.turn_count < traj.max_turns


def select_for_training(
    trajs: Iterable[Trajectory | TrajectorySummary], *, recycle_semi_resolved: bool = True
) -> list:
    """The trajectories (or summaries) `selected_for_training` keeps, in order."""
    return [t for t in trajs if selected_for_training(t, recycle_semi_resolved=recycle_semi_resolved)]


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    sum_x = sum(xs)
    sum_y = sum(ys)
    sum_xx = sum(x * x for x in xs)
    sum_yy = sum(y * y for y in ys)
    sum_xy = sum(x * y for x, y in zip(xs, ys))
    cov = n * sum_xy - sum_x * sum_y
    var_x = n * sum_xx - sum_x * sum_x
    var_y = n * sum_yy - sum_y * sum_y
    if var_x <= 0 or var_y <= 0:
        raise UndefinedCorrelationError("zero variance")
    return cov / math.sqrt(var_x * var_y)


def turn_resolve_correlation(
    records: Sequence[tuple[int, bool]], bucket_width: int = 10
) -> CorrelationReport:
    """Pearson correlation between turn-bucket midpoints and resolve rates.

    Records are (turn_count, resolved) pairs grouped into buckets of
    `bucket_width` turns. Needs at least two records, two buckets, and
    non-constant rates; otherwise the correlation is undefined.
    """
    if bucket_width <= 0:
        raise ValueError("bucket_width must be positive")
    if len(records) < 2:
        raise UndefinedCorrelationError("need at least two records")
    buckets: dict[int, list[int]] = {}
    for turns, resolved in records:
        counts = buckets.setdefault(turns // bucket_width, [0, 0])
        counts[0] += 1
        counts[1] += int(resolved)
    if len(buckets) < 2:
        raise UndefinedCorrelationError("all records fall into one bucket")
    bins = tuple(
        (b * bucket_width + bucket_width / 2, buckets[b][1] / buckets[b][0])
        for b in sorted(buckets)
    )
    r = _pearson([m for m, _ in bins], [rate for _, rate in bins])
    return CorrelationReport(r=r, n=len(records), bins=bins)
