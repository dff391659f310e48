"""Removes solution leakage from exported git histories and detects
history-reading ("git hacking") behavior in trajectories.

Histories are consumed as exported CommitRecord lists, not on-disk object
databases; `export_history` is the plumbing adapter that produces such a
list from a real repository.

For real instances, every commit authored after the issue-creation cutoff
is dropped so future fixes stay invisible; parent links of survivors are
rewritten to their nearest retained ancestor. For synthetic instances the
entire history collapses to a single neutral snapshot commit, because the
buggy tree is ahead of the clean one and any history would reveal the
injection.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import ForgeError
from .registries import HackPattern, load_hack_patterns
from .schema import ToolCall, Trajectory, parse_timestamp, require

SNAPSHOT_MESSAGE = "initial snapshot"
SNAPSHOT_DATE = "1970-01-01T00:00:00+00:00"


class EmptyHistoryError(ForgeError):
    """Sanitization removed every commit; the instance must be dropped."""


@dataclass(frozen=True)
class CommitRecord:
    commit_id: str
    author_date: str
    message: str
    parent_ids: tuple[str, ...] = ()

    @staticmethod
    def check(record: dict) -> None:
        """ValueError unless `record` is a commit object with the four fields
        of their types: the one check of a commit line."""
        if not (isinstance(record, dict) and isinstance(record.get("commit_id"), str)
                and isinstance(record.get("author_date"), str) and isinstance(record.get("message"), str)
                and isinstance(record.get("parent_ids"), list)
                and all(isinstance(parent, str) for parent in record["parent_ids"])):
            raise ValueError("every commit needs string commit_id, author_date, message and list parent_ids")

    @classmethod
    def from_record(cls, record: dict) -> "CommitRecord":
        cls.check(record)
        return cls(
            commit_id=record["commit_id"],
            author_date=record["author_date"],
            message=record["message"],
            parent_ids=tuple(record["parent_ids"]),
        )

    def to_record(self) -> dict:
        return {
            "commit_id": self.commit_id,
            "author_date": self.author_date,
            "message": self.message,
            "parent_ids": list(self.parent_ids),
        }


@dataclass(frozen=True)
class HackFinding:
    step_index: int
    command: str
    pattern_id: str
    severity: str


def sanitize_real_history(
    history: Sequence[CommitRecord], cutoff: str
) -> list[CommitRecord]:
    """Drop commits authored after the cutoff; rewrite dangling parents.

    The input lists each commit once, parents before children, else
    ValueError; a parent id that names no commit of it (a shallow export's)
    is allowed. Retained messages are unchanged. A removed commit's
    survivors point at its nearest retained ancestor, found by walking
    parent chains in order. A retained commit whose parents all survive is
    returned as it came.
    """
    cutoff_dt = parse_timestamp(cutoff)
    # Maps every commit id to its retained stand-in (itself when kept,
    # nearest retained ancestor when dropped, None when no ancestor is kept).
    stand_in: dict[str, str | None] = {}
    retained: list[CommitRecord] = []
    named: set[str] = set()  # every commit id and parent id met so far
    for commit in history:
        if commit.commit_id in named:  # it repeats, or a commit before it names it as a parent
            raise ValueError(f"commit {commit.commit_id!r} repeats or comes after a child of it: "
                             "a history lists each commit once, parents first")
        named.add(commit.commit_id)
        named.update(commit.parent_ids)
        if parse_timestamp(commit.author_date) <= cutoff_dt:
            parents = []
            for parent in commit.parent_ids:
                resolved = stand_in.get(parent)
                if resolved is not None and resolved not in parents:
                    parents.append(resolved)
            if tuple(parents) != commit.parent_ids:
                commit = CommitRecord(commit.commit_id, commit.author_date, commit.message, tuple(parents))
            retained.append(commit)
            stand_in[commit.commit_id] = commit.commit_id
        else:
            resolved = None
            for parent in commit.parent_ids:
                resolved = stand_in.get(parent)
                if resolved is not None:
                    break
            stand_in[commit.commit_id] = resolved
    if not retained:
        raise EmptyHistoryError(f"no commits remain at or before {cutoff}")
    return retained


def sanitize_synthetic_history(history: Sequence, snapshot_id: str) -> list[CommitRecord]:
    """Collapse the history to one parentless snapshot commit with a fixed
    neutral message, independent of the input: its commits (records or
    checked commit objects) are not read."""
    return [
        CommitRecord(
            commit_id=snapshot_id,
            author_date=SNAPSHOT_DATE,
            message=SNAPSHOT_MESSAGE,
            parent_ids=(),
        )
    ]


def sanitize_record(record: dict) -> dict:
    """One histories line, checked and sanitized as it is read, so only one
    history's commits are alive at a time: the output line, or
    `{instance_id, reason}` when a cutoff keeps no commit. Raises ValueError
    when a field is missing or has the wrong type, or a cutoff history is
    not parents-first with unique ids. Each commit is checked once; only a
    cutoff history builds its CommitRecords."""
    policy = require(record, "policy", str)
    anchor = {"cutoff": "cutoff", "single_snapshot": "snapshot_id"}.get(policy)
    if anchor is None:
        raise ValueError(f"unknown history policy {policy!r}")
    instance_id = require(record, "instance_id", str)
    require(record, anchor, str)
    commits = require(record, "commits", list)
    try:
        if policy == "cutoff":
            clean = sanitize_real_history([CommitRecord.from_record(c) for c in commits], record["cutoff"])
        else:
            for commit in commits:
                CommitRecord.check(commit)
            clean = sanitize_synthetic_history(commits, record["snapshot_id"])
    except EmptyHistoryError as exc:
        return {"instance_id": instance_id, "reason": str(exc)}
    return {"instance_id": instance_id, "policy": policy, "commits": [c.to_record() for c in clean]}


def detect_git_hacking(
    traj: Trajectory, patterns: Sequence[HackPattern] | None = None
) -> list[HackFinding]:
    """Scan every execute_bash command against the leakage-pattern registry.

    Findings come back ordered by step index; clean trajectories yield an
    empty list. One command can trigger several distinct patterns.
    """
    if patterns is None:
        patterns = load_hack_patterns()
    findings: list[HackFinding] = []
    for step in traj.steps:
        action = step.action
        if not isinstance(action, ToolCall) or action.tool != "execute_bash":
            continue
        command = action.arguments.get("command", "")
        for pattern in matching_hack_patterns(command, patterns):
            findings.append(HackFinding(step.index, command, pattern.pattern_id, pattern.severity))
    return findings


def matching_hack_patterns(command, patterns: Sequence[HackPattern]) -> list[HackPattern]:
    """The patterns one bash command triggers; none when it is empty or not a string."""
    if not isinstance(command, str) or not command:
        return []
    return [pattern for pattern in patterns if pattern.regex.search(command)]


def has_high_finding(findings: Sequence[HackFinding]) -> bool:
    return any(f.severity == "high" for f in findings)


def export_history(repo_dir: str | Path) -> list[CommitRecord]:
    """Export a real repository's history as CommitRecords (topological,
    parents first). Plumbing for feeding sanitize_real_history."""
    import subprocess  # only export needs it; a sanitize run does not pay its import

    fmt = "%H%x1f%aI%x1f%P%x1f%B%x1e"
    proc = subprocess.run(
        ["git", "log", "--topo-order", "--reverse", f"--format={fmt}"],
        cwd=str(repo_dir),
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise ForgeError(f"git log failed in {repo_dir}: {proc.stderr.strip()}")
    records = []
    for chunk in proc.stdout.split("\x1e"):
        chunk = chunk.strip("\n")
        if not chunk.strip():
            continue
        commit_id, author_date, parents, message = chunk.split("\x1f")
        records.append(
            CommitRecord(
                commit_id=commit_id,
                author_date=author_date,
                message=message.strip("\n"),
                parent_ids=tuple(parents.split()) if parents.strip() else (),
            )
        )
    return records
