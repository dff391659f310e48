"""Five-way failure classification for unsuccessful trajectories.

The cascade is strict, first match wins:
1. failed_to_reproduce - no reproduction/testing-phase step ever showed a
   failure signature;
2. read_localization_error - reproduced, but not every golden-patch file
   was opened or inspected;
3. write_localization_error - inspected everything, but no golden file was
   edited or the edited lines share nothing with the golden patch;
4. ran_out_of_max_turns - localized correctly but hit the turn budget;
5. incorrect_implementation - everything else: right place, wrong fix.

"Inspected" counts editor tool calls, registered file-reading bash
commands, and files touched by the final patch (editing a file is the
strongest form of inspecting it; this also guarantees a trajectory that
edited every golden file can never land in read_localization_error).
"""

from __future__ import annotations

import re
import shlex
from functools import lru_cache
from typing import Mapping, Sequence

from . import patch_analysis
from .registries import ErrorPattern
from .schema import TaskInstance, ToolCall, Trajectory

FAILURE_LABELS = (
    "failed_to_reproduce",
    "read_localization_error",
    "write_localization_error",
    "ran_out_of_max_turns",
    "incorrect_implementation",
)

# Observation text that evidences a reproduced failure.
_FAILURE_SIGNATURE = ErrorPattern("FAILURE_SIGNATURE", re.compile(
    r"Traceback \(most recent call last\)"
    r"|\bFAILED\b"
    r"|\bFAIL\b"
    r"|\bAssertionError\b"
    r"|\b[A-Z][A-Za-z]*Error\b"
    r"|\bassert(?:ion)? failed\b"
))

# Bash commands whose file arguments count as "inspecting" a file.
READER_COMMANDS = (
    "cat",
    "head",
    "tail",
    "less",
    "more",
    "nl",
    "sed",
    "awk",
    "grep",
    "rg",
    "view",
    "vi",
    "vim",
)


def _exhibits_failure(observation: str, fail_to_pass: Sequence[str]) -> bool:
    if _FAILURE_SIGNATURE.search(observation):
        return True
    lower = observation.lower()
    return any(t in observation and "fail" in lower for t in fail_to_pass)


def reproduced_issue(traj: Trajectory, inst: TaskInstance) -> bool:
    """True when some reproduction/testing-phase observation shows a failure
    signature or a failing fail_to_pass test id."""
    return any(
        step.phase in ("reproduction", "testing")
        and _exhibits_failure(step.observation, inst.fail_to_pass)
        for step in traj.steps
    )


@lru_cache(maxsize=4096)
def _read_paths(command: str) -> frozenset[str]:
    """Paths the reader commands in one bash command take as arguments."""
    # Agents repeat commands (`git status`, `cat` of the same file), so each
    # distinct command is tokenized once.
    try:
        tokens = shlex.split(command)
    except ValueError:
        tokens = command.split()
    paths: set[str] = set()
    reading = False
    for token in tokens:
        base = token.rsplit("/", 1)[-1]
        if base in READER_COMMANDS:
            reading = True
            continue
        if token in ("|", "&&", "||", ";"):
            reading = False
            continue
        if reading and not token.startswith("-") and ("/" in token or "." in token):
            paths.add(token.lstrip("./"))
    return frozenset(paths)


def _final_patch(traj: Trajectory) -> patch_analysis.Patch | None:
    """The parsed final patch; None when it is empty or does not parse."""
    if not traj.final_patch.strip():
        return None
    try:
        return patch_analysis.parse_patch(traj.final_patch)
    except patch_analysis.PatchParseError:
        return None


def viewed_files(traj: Trajectory, final: patch_analysis.Patch | None) -> set[str]:
    """Files the agent opened: editor calls (any command), file-reading bash
    commands, and the files of `final`, the parsed final patch (None when it
    is empty or does not parse)."""
    seen: set[str] = set()
    for step in traj.steps:
        action = step.action
        if not isinstance(action, ToolCall):
            continue
        if action.tool == "str_replace_editor":
            path = action.arguments.get("path")
            if isinstance(path, str) and path:
                seen.add(path.lstrip("./"))
        elif action.tool == "execute_bash":
            command = action.arguments.get("command", "")
            if isinstance(command, str):
                seen |= _read_paths(command)
    if final is not None:
        seen |= {fd.display_path for fd in final.file_diffs}
    return seen


def _covers(viewed: set[str], golden_path: str) -> bool:
    return any(v == golden_path or v.endswith("/" + golden_path) for v in viewed)


def classify_failure(traj: Trajectory, inst: TaskInstance) -> str:
    """Classify one failed trajectory into exactly one failure label."""
    return explain_failure(traj, inst)["label"]


def explain_failure(traj: Trajectory, inst: TaskInstance) -> dict:
    """classify_failure plus the rule evidence, for auditable reports."""
    if traj.outcome == "resolved":
        raise ValueError(f"{traj.trajectory_id} is resolved; only failures are classified")
    golden = patch_analysis.parse_patch(inst.golden_patch)
    golden_paths = sorted({fd.display_path for fd in golden.file_diffs})

    if not reproduced_issue(traj, inst):
        return {"label": "failed_to_reproduce", "golden_files": golden_paths}

    final = _final_patch(traj)
    seen = viewed_files(traj, final)
    missing = [g for g in golden_paths if not _covers(seen, g)]
    if missing:
        return {
            "label": "read_localization_error",
            "golden_files": golden_paths,
            "unviewed_files": missing,
        }

    overlap = None if final is None else patch_analysis.line_overlap(final, golden)
    if overlap is None or overlap.golden_files_touched == 0 or overlap.total_overlap == 0:
        return {
            "label": "write_localization_error",
            "golden_files": golden_paths,
            "golden_files_touched": 0 if overlap is None else overlap.golden_files_touched,
            "total_overlap": 0 if overlap is None else overlap.total_overlap,
        }

    if traj.turn_count >= traj.max_turns:
        return {
            "label": "ran_out_of_max_turns",
            "turn_count": traj.turn_count,
            "max_turns": traj.max_turns,
        }

    return {
        "label": "incorrect_implementation",
        "golden_files_touched": overlap.golden_files_touched,
        "total_overlap": overlap.total_overlap,
    }


def failure_distribution(labels: Sequence[str]) -> dict[str, float]:
    """Fractions per observed label; they sum to 1 within 1e-12."""
    if not labels:
        raise ValueError("cannot compute a distribution over zero labels")
    for label in labels:
        if label not in FAILURE_LABELS:
            raise ValueError(f"unknown failure label {label!r}")
    total = len(labels)
    out: dict[str, float] = {}
    for label in FAILURE_LABELS:
        count = sum(1 for x in labels if x == label)
        if count:
            out[label] = count / total
    return out


class FailureClassifier:
    """classify-errors as a fold over trajectories: `label` each in turn,
    `merge` the `state` of any fold over the trajectories after them, then
    `summary`. It keeps only the labels per `checkpoint` tag and the
    counts, never a trajectory."""

    def __init__(self, instances: Mapping[str, TaskInstance]):
        self.instances = instances
        self.failed = 0
        self.skipped: list[dict] = []
        self.labels_by_tag: dict[str, list[str]] = {}

    def label(self, traj: Trajectory) -> dict | None:
        """The `{trajectory_id, label, evidence}` line of a failed (unresolved,
        error or empty_patch) trajectory; None for any other, and for a
        failure whose instance is missing, which `summary` lists as skipped."""
        if traj.outcome not in ("unresolved", "error", "empty_patch"):
            return None
        self.failed += 1
        inst = self.instances.get(traj.instance_id)
        if inst is None:
            self.skipped.append({"trajectory_id": traj.trajectory_id, "reason": "missing instance"})
            return None
        evidence = explain_failure(traj, inst)
        label = evidence.pop("label")
        self.labels_by_tag.setdefault(str(traj.extra.get("checkpoint", "all")), []).append(label)
        return {"trajectory_id": traj.trajectory_id, "label": label, "evidence": evidence}

    def state(self) -> tuple[int, list[dict], dict[str, list[str]]]:
        return self.failed, self.skipped, self.labels_by_tag

    def merge(self, state: Sequence) -> None:
        """Add another fold's `state`, whose trajectories come after this one's."""
        failed, skipped, labels_by_tag = state
        self.failed += failed
        self.skipped += skipped
        for tag, labels in labels_by_tag.items():
            self.labels_by_tag.setdefault(tag, []).extend(labels)

    def summary(self) -> tuple[dict[str, dict[str, float]], dict]:
        """The label distribution per `checkpoint` tag (`all` when a
        trajectory carries none), and the counts `{failed, labeled, skipped}`."""
        distribution = {
            tag: failure_distribution(labels) for tag, labels in sorted(self.labels_by_tag.items())
        }
        labeled = sum(len(labels) for labels in self.labels_by_tag.values())
        return distribution, {"failed": self.failed, "labeled": labeled, "skipped": self.skipped}
