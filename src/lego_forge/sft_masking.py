"""Turns curated trajectories into loss-masked training samples.

Every step stays in the rendered sample (full context is preserved); only
loss participation changes. Assistant segments of steps whose observation
matched an execution-error pattern are excluded from the loss, except for
steps in the reproduction or testing phases: those observations are
*supposed* to show failures (a failing repro script is the point), so their
errors never mask anything.

Masking is whole-step: the entire assistant message of an erroneous step is
taken out of the loss. Oversize samples are dropped rather than truncated,
because truncation severs action/observation causality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import ForgeError
from .registries import ErrorPattern, PhaseRule, load_error_patterns, load_phase_patterns
from .schema import ToolCall, Trajectory

LOSS_EXEMPT_PHASES = ("reproduction", "testing")

_EDITOR_VIEW_COMMANDS = ("view",)


class EmptySampleError(ForgeError):
    """The trajectory has no assistant steps to train on."""


@dataclass(frozen=True)
class Segment:
    source: str  # system | user | assistant | observation
    step_index: int | None
    text: str
    in_loss: bool


@dataclass(frozen=True)
class TrainingSample:
    trajectory_id: str
    rendered: tuple[Segment, ...]
    token_estimate: int


def whitespace_token_count(text: str) -> int:
    """Reference token counter: whitespace-separated chunks."""
    return len(text.split())


# ---------------------------------------------------------------------------
# Phase assignment and error detection


def assign_phases(traj: Trajectory, rules: Sequence[PhaseRule] | None = None) -> Trajectory:
    """Tag each step with its `step_phase`."""
    if rules is None:
        rules = load_phase_patterns()
    steps = tuple(replace(step, phase=step_phase(step.action, rules)) for step in traj.steps)
    return replace(traj, steps=steps)


def step_phase(action: ToolCall | str, rules: Sequence[PhaseRule]) -> str:
    """The phase of one step's action.

    Editor calls are phased structurally (view -> exploration, any edit ->
    editing); bash commands go through the phase-pattern registry, first
    match wins; think/finish and plain messages are "other".
    """
    if not isinstance(action, ToolCall):
        return "other"
    if action.tool == "str_replace_editor":
        command = action.arguments.get("command", "")
        return "exploration" if command in _EDITOR_VIEW_COMMANDS else "editing"
    if action.tool == "execute_bash":
        command = action.arguments.get("command", "")
        if isinstance(command, str):
            for rule in rules:
                if rule.regex.search(command):
                    return rule.phase
        return "other"
    return "other"


def detect_step_errors(
    traj: Trajectory, patterns: Sequence[ErrorPattern] | None = None
) -> Trajectory:
    """Set each step's error_flag with `has_execution_error`. Deterministic;
    returns a new trajectory."""
    if patterns is None:
        patterns = load_error_patterns()
    steps = tuple(
        replace(step, error_flag=has_execution_error(step.observation, patterns))
        for step in traj.steps
    )
    return replace(traj, steps=steps)


def has_execution_error(observation: str, patterns: Sequence[ErrorPattern]) -> bool:
    """True exactly when the observation matches at least one registry pattern."""
    for p in patterns:
        if p.search(observation):
            return True
    return False


# ---------------------------------------------------------------------------
# Rendering


_ARGUMENTS_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)  # built once, not per call


def render_action(action: ToolCall | str) -> str:
    if isinstance(action, ToolCall):
        return f"{action.tool}({_ARGUMENTS_ENCODER.encode(action.arguments)})"
    return action


def _segment_text(text: str) -> str:
    return text if text.endswith("\n") else text + "\n"


def render_trajectory(traj: Trajectory, problem_statement: str | None = None) -> str:
    """Canonical unmasked rendering: the concatenation every sample's
    segment texts must reproduce exactly."""
    parts = []
    if problem_statement is not None:
        parts.append(_segment_text(problem_statement))
    for step in traj.steps:
        parts.append(_segment_text(render_action(step.action)))
        if step.observation:
            parts.append(_segment_text(step.observation))
    return "".join(parts)


def build_loss_mask(traj: Trajectory, problem_statement: str | None = None) -> TrainingSample:
    """Render a trajectory with per-segment loss participation.

    Expects error flags and phases to be assigned already. Assistant
    segments are in the loss unless their step is error-flagged in a
    non-exempt phase; system/user/observation segments never are.
    """
    segments: list[Segment] = []
    if problem_statement is not None:
        segments.append(
            Segment(source="user", step_index=None, text=_segment_text(problem_statement), in_loss=False)
        )
    assistant_count = 0
    for step in traj.steps:
        masked = step.error_flag and step.phase not in LOSS_EXEMPT_PHASES
        segments.append(
            Segment(
                source="assistant",
                step_index=step.index,
                text=_segment_text(render_action(step.action)),
                in_loss=not masked,
            )
        )
        assistant_count += 1
        if step.observation:
            segments.append(
                Segment(
                    source="observation",
                    step_index=step.index,
                    text=_segment_text(step.observation),
                    in_loss=False,
                )
            )
    if assistant_count == 0:
        raise EmptySampleError(f"{traj.trajectory_id}: no assistant steps")
    full_text = "".join(s.text for s in segments)
    return TrainingSample(
        trajectory_id=traj.trajectory_id,
        rendered=tuple(segments),
        token_estimate=whitespace_token_count(full_text),
    )


# ---------------------------------------------------------------------------
# Serialization


def serialize_sample(sample: TrainingSample, context_limit: int) -> dict | None:
    """Emit a sample record if it fits the context limit, else None.

    The token estimate is the whitespace count `build_loss_mask` took over
    the full rendering. Per-segment in_loss markers are preserved
    bit-exactly.
    """
    if sample.token_estimate > context_limit:
        return None
    return {
        "trajectory_id": sample.trajectory_id,
        "token_estimate": sample.token_estimate,
        "rendered": [
            {
                "source": s.source,
                "step_index": s.step_index,
                "text": s.text,
                "in_loss": s.in_loss,
            }
            for s in sample.rendered
        ],
    }


def mask_sample(traj: Trajectory, context_limit: int) -> tuple[dict | None, dict | None]:
    """Mask and serialize one trajectory: `(sample record, None)`, or `(None,
    drop)` with the drop as `{trajectory_id, reason}`: `empty: ...` without
    assistant steps, `overflow` (with the estimate and the limit) past the
    context limit, and `fully_masked` when no segment is left in the loss."""
    try:
        sample = build_loss_mask(traj)
    except EmptySampleError as exc:
        return None, {"trajectory_id": traj.trajectory_id, "reason": f"empty: {exc}"}
    emitted = serialize_sample(sample, context_limit)
    if emitted is None:
        return None, {
            "trajectory_id": traj.trajectory_id,
            "reason": "overflow",
            "token_estimate": sample.token_estimate,
            "context_limit": context_limit,
        }
    if not any(seg["in_loss"] for seg in emitted["rendered"]):
        return None, {"trajectory_id": traj.trajectory_id, "reason": "fully_masked"}
    return emitted, None
