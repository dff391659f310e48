"""Best-of-K selection with pluggable verifier scoring, TTS@K / Pass@K
metrics, and a sequential/parallel latency model with budget allocation.

Latency is modeled as c * T^alpha * K^beta: super-linear in interaction
turns T (growing context makes each turn costlier, so 1 < alpha <= 2) and
sub-linear in parallel rollouts K (batched execution, 0 < beta < 1).

Verifiers are external scoring endpoints speaking a line-delimited JSON
protocol; the deterministic stub verifier (hash of the patch text) and the
oracle verifier (reads the ground-truth resolved label, metrics harness
only) exist so selection math is testable without any model.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

from .errors import ForgeError, ValidationFailure
from .schema import RecordRejected, of_type, require

SCORE_PROVENANCES = ("generative", "regressive", "oracle", "stub")


class DegenerateScoreError(ForgeError):
    """Both yes/no probabilities are zero; no score is defined."""


class InfeasibleBudgetError(ValidationFailure):
    """No grid point fits under the latency budget."""


@dataclass(frozen=True)
class Candidate:
    """One rollout for one instance. `resolved` is ground truth used only by
    metrics and the oracle verifier, never by real verifiers."""

    instance_id: str
    rollout_index: int
    trajectory_summary: str
    final_patch: str
    resolved: bool

    @classmethod
    def from_record(cls, record: dict) -> "Candidate":
        """Raises ValueError when a field is missing or has the wrong type."""
        summary, patch = record.get("trajectory_summary", ""), record.get("final_patch", "")
        if not isinstance(summary, str) or not isinstance(patch, str):
            raise ValueError("fields 'trajectory_summary' and 'final_patch' must be strings")
        return cls(
            instance_id=require(record, "instance_id", str),
            rollout_index=require(record, "rollout_index", int),
            trajectory_summary=summary,
            final_patch=patch,
            resolved=require(record, "resolved", bool),
        )

    def to_record(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "rollout_index": self.rollout_index,
            "trajectory_summary": self.trajectory_summary,
            "final_patch": self.final_patch,
            "resolved": self.resolved,
        }


@dataclass(frozen=True)
class VerifierScore:
    score: float
    provenance: str

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")
        if self.provenance not in SCORE_PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")


@dataclass(frozen=True)
class LatencyModel:
    """latency(T, K) = c * T^alpha * K^beta."""

    c: float = 1.0
    alpha: float = 1.5
    beta: float = 0.5

    def __post_init__(self):
        if not 0 < self.c < math.inf:  # NaN too
            raise ValueError("c must be positive and finite")
        if not 1.0 < self.alpha <= 2.0:
            raise ValueError("alpha must lie in (1, 2]")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")


@dataclass(frozen=True)
class AllocationPlan:
    turns: int
    rollouts: int
    predicted_latency: float
    predicted_rate: float


# ---------------------------------------------------------------------------
# Scoring


def generative_score(p_yes: float, p_no: float) -> VerifierScore:
    """Score from yes/no token probabilities: p_yes / (p_yes + p_no)."""
    if p_yes < 0 or p_no < 0:
        raise ValueError("probabilities must be non-negative")
    total = p_yes + p_no
    if total == 0:
        raise DegenerateScoreError("p_yes + p_no is zero")
    return VerifierScore(score=p_yes / total, provenance="generative")


def regressive_score(value: float) -> VerifierScore:
    """Scalar score from a scoring-head response."""
    return VerifierScore(score=value, provenance="regressive")


class OracleVerifier:
    """Scores 1.0 for resolved candidates, 0.0 otherwise. Metrics harness
    only: it reads the ground-truth label."""

    def score(self, candidate: Candidate) -> VerifierScore:
        return VerifierScore(score=1.0 if candidate.resolved else 0.0, provenance="oracle")


class StubVerifier:
    """Deterministic pseudo-verifier: hashes the patch text into [0, 1]."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def score(self, candidate: Candidate) -> VerifierScore:
        digest = hashlib.sha256(
            f"{self.seed}:{candidate.final_patch}".encode("utf-8")
        ).hexdigest()
        return VerifierScore(score=int(digest[:8], 16) / 0xFFFFFFFF, provenance="stub")


def encode_score_request(candidate: Candidate) -> str:
    """One request line of the verifier wire protocol."""
    return json.dumps(
        {
            "instance_id": candidate.instance_id,
            "rollout_index": candidate.rollout_index,
            "trajectory_summary": candidate.trajectory_summary,
            "final_patch": candidate.final_patch,
        },
        ensure_ascii=False,
        separators=(",", ":"),
    )


def decode_score_response(line: str) -> VerifierScore:
    """Parse a response line: either {"p_yes", "p_no"} (generative) or
    {"score"} (regressive), each a number (not a boolean); else ForgeError."""
    record = json.loads(line)
    if not isinstance(record, dict) or not all(
            of_type(record[key], (int, float)) for key in ("p_yes", "p_no", "score") if key in record):
        raise ForgeError(f"verifier response is not an object of numbers: {line!r}")
    if "p_yes" in record or "p_no" in record:
        return generative_score(record.get("p_yes", 0.0), record.get("p_no", 0.0))
    if "score" in record:
        return regressive_score(record["score"])
    raise ForgeError(f"verifier response carries neither probabilities nor a score: {line!r}")


class LineDelimitedVerifier:
    """Adapter speaking the line protocol through a transport callable that
    maps one request line to one response line."""

    def __init__(self, transport: Callable[[str], str]):
        self.transport = transport

    def score(self, candidate: Candidate) -> VerifierScore:
        return decode_score_response(self.transport(encode_score_request(candidate)))


# ---------------------------------------------------------------------------
# Selection and metrics


class Scored(NamedTuple):
    """What tts-select keeps of an instance's best candidate once its line
    is read and scored: no summary or patch text."""

    rollout_index: int
    resolved: bool
    score: VerifierScore


def rank(score: VerifierScore, rollout_index: int) -> tuple[float, int]:
    """The ranking key of a scored candidate; the lowest key is the top-1:
    the maximal score, ties broken to the lowest rollout_index."""
    return -score.score, rollout_index


class Rollouts:
    """What tts-select keeps of one instance's candidates once each is
    scored: the rollout indices seen, the best candidate so far and whether
    any candidate is resolved."""

    __slots__ = ("indices", "best", "any_resolved")

    def __init__(self, best: Scored):
        self.indices = [best.rollout_index]
        self.best = best
        self.any_resolved = best.resolved

    def add(self, scored: Scored) -> None:
        self.indices.append(scored.rollout_index)
        if rank(scored.score, scored.rollout_index) < rank(self.best.score, self.best.rollout_index):
            self.best = scored
        self.any_resolved |= scored.resolved


def add_rollout(groups: dict[str, Rollouts], record: dict, verifier) -> None:
    """Parse one rollouts line, score its candidate with `verifier` and fold
    it into its instance's `Rollouts` in `groups` (instance id -> Rollouts).
    Raises ValueError when a field is missing or has the wrong type,
    RecordRejected (DUPLICATE_ROLLOUT_INDEX) when the instance already holds
    that rollout_index, and ForgeError when the verifier raises ValueError or
    OverflowError, so that its fault is never reported as a bad line; a
    candidate that raises leaves `groups` as it was."""
    candidate = Candidate.from_record(record)
    rollouts = groups.get(candidate.instance_id)
    if rollouts is not None and candidate.rollout_index in rollouts.indices:
        raise RecordRejected(
            ("DUPLICATE_ROLLOUT_INDEX",),
            f"instance {candidate.instance_id!r} repeats rollout_index {candidate.rollout_index}",
        )
    try:
        score = verifier.score(candidate)
    except (ValueError, OverflowError) as exc:
        raise ForgeError(str(exc)) from exc
    scored = Scored(candidate.rollout_index, candidate.resolved, score)
    if rollouts is None:
        groups[candidate.instance_id] = Rollouts(scored)
    else:
        rollouts.add(scored)


def check_rankable(groups: Mapping[str, Rollouts], source: str) -> None:
    """Raise ValidationFailure, with its rejection report entries, unless
    every instance of the rollouts read from `source` holds the same number
    of candidates. The entries name no candidates at all (EMPTY_ROLLOUTS),
    or each instance whose count differs from the most common one
    (RAGGED_ROLLOUTS)."""
    if not groups:
        raise ValidationFailure(f"{source}: no candidates", [
            {"file": source, "line_no": None, "instance_id": None, "codes": ["EMPTY_ROLLOUTS"],
             "message": "rollouts file holds no candidates"}])
    sizes = Counter(len(rollouts.indices) for rollouts in groups.values())
    if len(sizes) > 1:
        k = sizes.most_common(1)[0][0]
        raise ValidationFailure(f"{source}: ragged candidate counts per instance: {sorted(sizes)}", [
            {"file": source, "line_no": None, "instance_id": iid, "codes": ["RAGGED_ROLLOUTS"],
             "message": f"{len(rollouts.indices)} candidate(s) where most instances have {k}"}
            for iid, rollouts in groups.items() if len(rollouts.indices) != k])


def select_top1(candidates: Sequence[Candidate], scores: Sequence[VerifierScore]) -> Candidate:
    """The candidate with the maximal score; ties break to the lowest
    rollout_index, so selection is deterministic and permutation-stable."""
    if not candidates:
        raise ValueError("no candidates to select from")
    if len(candidates) != len(scores):
        raise ValueError("candidates and scores differ in length")
    best = min(zip(candidates, scores), key=lambda pair: rank(pair[1], pair[0].rollout_index))
    return best[0]


def tts_at_k(
    instances: Sequence[tuple[Sequence[Candidate], Sequence[VerifierScore]]],
) -> dict[str, float]:
    """TTS@K and Pass@K over instances with exactly K candidates each.

    tts is the fraction of instances whose top-1 selected candidate is
    resolved; pass is the fraction with any resolved candidate. tts <= pass
    always, with equality under the oracle verifier.
    """
    if not instances:
        raise ValueError("no instances")
    k = len(instances[0][0])
    resolved_by_selection = 0
    resolved_by_any = 0
    for candidates, scores in instances:
        if len(candidates) != k:
            raise ValueError(
                f"ragged candidate counts: expected {k}, got {len(candidates)}"
            )
        if select_top1(candidates, scores).resolved:
            resolved_by_selection += 1
        if any(c.resolved for c in candidates):
            resolved_by_any += 1
    total = len(instances)
    return {"tts": resolved_by_selection / total, "pass": resolved_by_any / total}


def best_of_k(groups: Mapping[str, Rollouts]) -> tuple[list[dict], dict]:
    """Each instance's top-1 candidate as `select_top1` picks it, and the
    metrics `tts_at_k` gives, read from the folded `groups` (as `add_rollout`
    fills it and `check_rankable` accepts it: the same number K of candidates
    per instance). Returns one selection line per instance, in instance id
    order, and the metrics `{k, instances, tts, pass}`."""
    if not groups:
        raise ValueError("no instances")
    instance_ids = sorted(groups)
    k = len(groups[instance_ids[0]].indices)
    selection_lines = []
    resolved_by_selection = 0
    resolved_by_any = 0
    for instance_id in instance_ids:
        rollouts = groups[instance_id]
        if len(rollouts.indices) != k:
            raise ValueError(f"ragged candidate counts: expected {k}, got {len(rollouts.indices)}")
        chosen = rollouts.best
        selection_lines.append(
            {
                "instance_id": instance_id,
                "selected_rollout_index": chosen.rollout_index,
                "score": chosen.score.score,
                "provenance": chosen.score.provenance,
                "resolved": chosen.resolved,
            }
        )
        resolved_by_selection += chosen.resolved
        resolved_by_any += rollouts.any_resolved
    total = len(selection_lines)
    return selection_lines, {"k": k, "instances": total,
                             "tts": resolved_by_selection / total, "pass": resolved_by_any / total}


# ---------------------------------------------------------------------------
# Latency model and allocation


def surface_point(record: dict) -> tuple[tuple[int, int], float]:
    """One surface line: ((turns, rollouts), rate). Raises ValueError unless
    turns and rollouts are integers of at least 1 and rate is a number in
    [0, 1]."""
    point = require(record, "turns", int), require(record, "rollouts", int)
    rate = require(record, "rate", (int, float))
    if min(point) < 1:
        raise ValueError("turns and rollouts must be at least 1")
    if not 0 <= rate <= 1:  # NaN too
        raise ValueError(f"rate {rate} outside [0, 1]")
    return point, float(rate)


def latency(model: LatencyModel, turns: int, rollouts: int) -> float:
    """Predicted wall-clock cost of running `rollouts` trajectories of up to
    `turns` turns. Strictly increasing in both arguments; `math.inf` when
    the power overflows a float, so no budget fits that point."""
    if turns < 1 or rollouts < 1:
        raise ValueError("turns and rollouts must be at least 1")
    try:
        return model.c * turns**model.alpha * rollouts**model.beta
    except OverflowError:
        return math.inf


def iso_latency_contour(
    model: LatencyModel, budget: float, turn_grid: Sequence[int]
) -> tuple[tuple[int, float], ...]:
    """For each grid T, the continuous K where latency(T, K) equals the
    budget: the iso-latency contour sampled on the grid. A K past the float
    range is `math.inf`."""
    out = []
    for turns in sorted(set(turn_grid)):
        try:
            k = (budget / latency(model, turns, 1)) ** (1.0 / model.beta)
        except OverflowError:
            k = math.inf
        out.append((turns, k))
    return tuple(out)


def allocate(
    model: LatencyModel,
    budget: float,
    surface: Mapping[tuple[int, int], float],
) -> tuple[AllocationPlan, tuple[tuple[int, float], ...]]:
    """Pick the measured (turns, rollouts) grid point that maximizes the
    resolve rate under the latency budget.

    Ties break to the smaller latency, then the smaller rollout count. Also
    returns the iso-latency contour sampled at the grid's turn values.
    Raises InfeasibleBudgetError when nothing fits.
    """
    if not surface:
        raise ValueError("empty allocation surface")
    if not budget > 0:  # NaN too
        raise ValueError("budget must be positive")
    best: tuple[float, float, int, int] | None = None  # (-rate, latency, K, T)
    for (turns, rollouts), rate in surface.items():
        cost = latency(model, turns, rollouts)
        if cost > budget:
            continue
        key = (-rate, cost, rollouts, turns)
        if best is None or key < best:
            best = key
    if best is None:
        raise InfeasibleBudgetError(f"no (turns, rollouts) point fits budget {budget}")
    neg_rate, cost, rollouts, turns = best
    plan = AllocationPlan(
        turns=turns,
        rollouts=rollouts,
        predicted_latency=cost,
        predicted_rate=-neg_rate,
    )
    contour = iso_latency_contour(model, budget, [t for t, _ in surface])
    return plan, contour
