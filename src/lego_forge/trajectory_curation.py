"""Repairs malformed tool calls, prunes the tool set, classifies outcomes,
and aggregates rollout statistics; `curate` runs all of it over a corpus,
one trajectory at a time.

Outcome classification is a strict cascade: empty patch first, then a clean
full pass (resolved), then pass-with-cheating demoted to unresolved, then
100% golden-file recall (semi_resolved), then unresolved. A trajectory that
passes every test but edited test files or read git history is kept in the
corpus as unresolved rather than deleted, so accounting stays exhaustive.
Curation marks a run over its turn budget unresolved whatever the cascade
gave, so each record it makes from a valid trajectory is valid too. Within
one pass it judges each distinct bash command (phase and hack patterns) once,
in a memo freed when the pass ends; a golden patch is parsed where an outcome
needs it.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ForgeError
from . import patch_analysis
from .registries import ErrorPattern, HackPattern, PhaseRule
from .repo_sanitizer import HackFinding, detect_git_hacking, has_high_finding, matching_hack_patterns
from .schema import (ALLOWED_TOOLS, OUTCOMES, Step, TaskInstance, TestReport, ToolCall, Trajectory,
                     TrajectorySummary)
from .sft_masking import has_execution_error, step_phase

_INT_RE = re.compile(r"-?\d+")

_TEST_DIR_SEGMENTS = ("tests", "test", "testing")


class UnrepairableCallError(ForgeError):
    """The call's view_range cannot be interpreted as a range at all."""

    def __init__(self, call: ToolCall, message: str):
        self.call = call
        super().__init__(message)


class ClassificationError(ForgeError):
    """Outcome classification is impossible (e.g. missing final report)."""


# ---------------------------------------------------------------------------
# Tool-call repair


def _coerce_ints(raw) -> list[int] | None:
    if isinstance(raw, str):
        found = _INT_RE.findall(raw)
        return [int(x) for x in found] if found else None
    if isinstance(raw, (list, tuple)):
        out = []
        for item in raw:
            if isinstance(item, bool):
                return None
            if isinstance(item, int):
                out.append(item)
            elif isinstance(item, float) and item.is_integer():
                out.append(int(item))
            elif isinstance(item, str):
                found = _INT_RE.findall(item)
                if not found:
                    return None
                out.extend(int(x) for x in found)
            else:
                return None
        return out or None
    if isinstance(raw, int) and not isinstance(raw, bool):
        return [raw]
    return None


def repair_tool_call(
    call: ToolCall, context: Mapping[str, int] | None = None
) -> tuple[ToolCall, bool]:
    """Normalize a str_replace_editor view_range argument.

    Text-encoded ranges become integer pairs, reversed bounds are swapped,
    and bounds are clipped to [1, file_line_count] when the context supplies
    a file length (without it only the lower bound is enforced). Idempotent:
    repairing a repaired call changes nothing. Calls without a view_range
    pass through untouched; a view_range with no extractable integers raises
    UnrepairableCallError.
    """
    if call.tool != "str_replace_editor" or "view_range" not in call.arguments:
        return call, False
    raw = call.arguments["view_range"]
    values = _coerce_ints(raw)
    if values is None or len(values) < 2:
        raise UnrepairableCallError(call, f"view_range {raw!r} is not a range")
    start, end = values[0], values[1]
    if start > end:
        start, end = end, start
    start = max(start, 1)
    end = max(end, 1)
    if context is not None and "file_line_count" in context:
        limit = context["file_line_count"]
        start = min(start, limit)
        end = min(end, limit)
    repaired_range = [start, end]
    already_canonical = (
        isinstance(raw, list)
        and len(raw) == 2
        and all(type(v) is int for v in raw)
        and raw == repaired_range
    )
    if already_canonical:
        return call, False
    arguments = dict(call.arguments)
    arguments["view_range"] = repaired_range
    return ToolCall(tool=call.tool, arguments=arguments), True


# ---------------------------------------------------------------------------
# Tool-set pruning


def prune_toolset(traj: Trajectory) -> Trajectory:
    """Drop steps using tools outside the four-tool set, re-packing indices.

    Plain assistant messages are kept. The observation of a pruned step is
    removed with it. Pruning twice equals pruning once.
    """
    kept = [step for step in traj.steps if kept_by_toolset(step.action)]
    steps = tuple(replace(step, index=i) for i, step in enumerate(kept))
    return replace(traj, steps=steps, turn_count=len(steps))


def kept_by_toolset(action: ToolCall | str) -> bool:
    """True for plain assistant messages and calls to the four-tool set."""
    return not isinstance(action, ToolCall) or action.tool in ALLOWED_TOOLS


# ---------------------------------------------------------------------------
# Cheating detection


def default_test_path_matcher(path: str) -> bool:
    """Conservative test-file conventions: a test directory segment in the
    path, or a test_*/*_test.py / conftest.py file name."""
    segments = path.split("/")
    if any(seg in _TEST_DIR_SEGMENTS for seg in segments[:-1]):
        return True
    name = segments[-1]
    return name.startswith("test_") or name.endswith("_test.py") or name == "conftest.py"


def _f2p_module_paths(inst: TaskInstance) -> set[str]:
    paths = set()
    for test_id in inst.fail_to_pass:
        module = test_id.split("::")[0]
        if module.endswith(".py"):
            paths.add(module)
        elif "." in module and "/" not in module:
            paths.add(module.replace(".", "/") + ".py")
    return paths


def detect_test_modification(final_patch: patch_analysis.Patch, inst: TaskInstance) -> bool:
    """True when the patch touches any test file or any file holding a
    fail_to_pass test id's module."""
    f2p_paths = _f2p_module_paths(inst)
    for fd in final_patch.file_diffs:
        path = fd.display_path
        if default_test_path_matcher(path):
            return True
        if path in f2p_paths:
            return True
        if any(path.endswith("/" + fp) or fp.endswith("/" + path) for fp in f2p_paths):
            return True
    return False


# ---------------------------------------------------------------------------
# Outcome classification


def _tests_pass(report: TestReport, inst: TaskInstance) -> bool:
    """True when every fail_to_pass and pass_to_pass test passes."""
    return all(report.results.get(t) == "pass" for t in (*inst.fail_to_pass, *inst.pass_to_pass))


def classify_outcome(
    traj: Trajectory,
    inst: TaskInstance,
    final_report: TestReport | None,
    *,
    hack_findings: Sequence[HackFinding] | None = None,
) -> str:
    """Classify one trajectory: empty_patch, resolved, semi_resolved, or
    unresolved. `final_report` must reflect the trajectory's final patch
    state. Precomputed hack findings save a rescan. The golden patch is
    parsed only for a trajectory whose tests do not all pass."""
    if final_report is None:
        raise ClassificationError(f"{traj.trajectory_id}: missing final test report")
    if not traj.final_patch.strip():
        return "empty_patch"
    try:
        final = patch_analysis.parse_patch(traj.final_patch)
    except patch_analysis.PatchParseError:
        return "unresolved"
    if _tests_pass(final_report, inst):
        if hack_findings is None:
            hack_findings = detect_git_hacking(traj)
        cheated = detect_test_modification(final, inst)
        if not cheated and not has_high_finding(hack_findings):
            return "resolved"
        return "unresolved"
    try:
        golden = patch_analysis.parse_patch(inst.golden_patch)
    except patch_analysis.PatchParseError:
        return "unresolved"
    overlap = patch_analysis.line_overlap(final, golden)
    if overlap.golden_files_total > 0 and overlap.golden_files_touched == overlap.golden_files_total:
        return "semi_resolved"
    return "unresolved"


# ---------------------------------------------------------------------------
# Statistics


def rollout_stats(
    trajs: Sequence[Trajectory | TrajectorySummary], *, recycle_semi_resolved: bool = False
) -> dict:
    """Aggregate classified trajectories (or their summaries) into
    `{avg_turns, valid_rate, counts}`.

    valid_rate counts resolved trajectories, plus semi_resolved ones when
    recycling is enabled. Empty input yields zero counts with rates set to
    None (the undefined-rate flag).
    """
    counts = dict.fromkeys(OUTCOMES, 0)
    for traj in trajs:
        counts[traj.outcome] = counts.get(traj.outcome, 0) + 1
    total = len(trajs)
    if total == 0:
        return {"avg_turns": None, "valid_rate": None, "counts": counts}
    avg_turns = sum(t.turn_count for t in trajs) / total
    valid = counts["resolved"]
    if recycle_semi_resolved:
        valid += counts["semi_resolved"]
    return {"avg_turns": avg_turns, "valid_rate": valid / total, "counts": counts}


# ---------------------------------------------------------------------------
# Curation


def curate(
    trajectories: Iterable[Trajectory],
    instances: Mapping[str, TaskInstance],
    final_reports: Mapping[str, TestReport],
    hack_patterns: Sequence[HackPattern],
    error_patterns: Sequence[ErrorPattern],
    phase_rules: Sequence[PhaseRule],
    report: dict,
    *,
    recycle_semi_resolved: bool,
) -> Iterator[Trajectory]:
    """Curate each trajectory in one pass over `trajectories`, yielding it
    before the next is taken, so that a generator is never held whole:
    prune, repair, phase and error-flag each step, then classify the outcome
    against the trajectory's instance and its final report (by trajectory
    id); without either the outcome is `unclassified`, with a note; over the
    turn budget it is `unresolved` either way. After the last one, `report`
    gets `rollout_stats` plus the repaired and hack-invalidated counts, the
    unrepairable calls and the notes."""
    judged: dict[str, tuple[str, list[HackPattern]]] = {}
    summaries: list[TrajectorySummary] = []
    unrepairable: list[dict] = []
    notes: list[dict] = []
    repaired_calls = 0
    hack_invalidated = 0
    for traj in trajectories:
        # One pass builds each kept step once: the same as prune_toolset, repair,
        # assign_phases, detect_git_hacking and detect_step_errors in turn.
        steps: list[Step] = []
        findings: list[HackFinding] = []
        for step in traj.steps:
            action = step.action
            if not kept_by_toolset(action):
                continue
            if isinstance(action, ToolCall):
                try:
                    action, repaired = repair_tool_call(action)
                    if repaired:
                        repaired_calls += 1
                except UnrepairableCallError as exc:
                    unrepairable.append(
                        {"trajectory_id": traj.trajectory_id, "step": step.index, "reason": str(exc)}
                    )
            bash = isinstance(action, ToolCall) and action.tool == "execute_bash"
            command = action.arguments.get("command", "") if bash else None
            if isinstance(command, str):
                verdict = judged.get(command)
                if verdict is None:
                    verdict = judged[command] = (step_phase(action, phase_rules),
                                                 matching_hack_patterns(command, hack_patterns))
                phase, hacks = verdict
                findings += [HackFinding(len(steps), command, p.pattern_id, p.severity) for p in hacks]
            else:
                phase = step_phase(action, phase_rules)
            steps.append(Step(
                index=len(steps),
                action=action,
                observation=step.observation,
                phase=phase,
                error_flag=has_execution_error(step.observation, error_patterns),
            ))
        work = replace(traj, steps=tuple(steps), turn_count=len(steps))

        inst = instances.get(work.instance_id)
        final = final_reports.get(work.trajectory_id)
        if inst is None or final is None:
            outcome = "unclassified"
            notes.append({
                "trajectory_id": work.trajectory_id,
                "reason": "missing instance" if inst is None else "missing final report",
            })
        else:
            outcome = classify_outcome(work, inst, final, hack_findings=findings)
            if outcome == "unresolved" and has_high_finding(findings) and _tests_pass(final, inst):
                hack_invalidated += 1
        if work.turn_count > work.max_turns:
            outcome = "unresolved"  # the only outcome an over-budget run may carry here
        curated = replace(work, outcome=outcome)
        summaries.append(curated.summary())
        yield curated

    report.update(rollout_stats(summaries, recycle_semi_resolved=recycle_semi_resolved))
    report["repaired_calls"] = repaired_calls
    report["hack_invalidated"] = hack_invalidated
    report["unrepairable_calls"] = unrepairable
    report["notes"] = notes

