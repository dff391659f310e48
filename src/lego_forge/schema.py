"""Data model and JSON Lines I/O shared by every pipeline stage.

All record types are immutable values: build them once and share them
freely. Corpora are JSON Lines files (one record per line) with a
canonical field order, so identical inputs always serialize to identical
bytes. Unknown fields found on disk are kept on the record (`extra`) and
written back verbatim, in their original order, for forward compatibility.

Every stage input is read by `load_jsonl`, which splits at "\n" only and
turns each line into a record or a `Rejection`; `load_corpus` is that
reader plus a corpus kind's record type, validator and duplicate rules.

Timestamps are ISO-8601 UTC text. They are stored as strings and parsed on
demand so that round-trips never reformat them.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from .errors import ForgeError

ORIGINS = ("real", "synthetic")
DIFFICULTIES = ("easy", "medium", "hard")
OUTCOMES = ("resolved", "semi_resolved", "unresolved", "error", "empty_patch", "unclassified")
PHASES = ("reproduction", "exploration", "editing", "testing", "other")
ALLOWED_TOOLS = ("execute_bash", "str_replace_editor", "think", "finish")
TEST_STATUSES = ("pass", "fail", "error")
CODE_STATES = ("pre_patch", "post_patch", "buggy", "restored", "final")

DEFAULT_MAX_TURNS = 100


class CorpusError(ForgeError):
    """Unreadable corpus file or unknown corpus kind."""


def parse_timestamp(text: str) -> datetime:
    """Parse ISO-8601 text; 'Z' suffixes and naive values are treated as UTC."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise ValueError(f"invalid ISO-8601 timestamp: {text!r}") from exc
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed


def require(record: dict, key: str, types: type | tuple) -> Any:
    """record[key], or ValueError when it is missing or not of `types`."""
    if key not in record:
        raise ValueError(f"missing field {key!r}")
    value = record[key]
    if not isinstance(value, types):
        raise ValueError(f"field {key!r} has wrong type {type(value).__name__}")
    return value


def _string_list(record: dict, key: str) -> tuple[str, ...]:
    value = require(record, key, list)
    if not all(isinstance(item, str) for item in value):
        raise ValueError(f"field {key!r} must be a list of strings")
    return tuple(value)


@dataclass(frozen=True)
class TaskInstance:
    """One executable SWE issue: problem text, golden patch, labeled tests, sandbox id."""

    instance_id: str
    repo: str
    base_commit: str
    origin: str
    problem_statement: str
    golden_patch: str
    fail_to_pass: tuple[str, ...]
    pass_to_pass: tuple[str, ...]
    image_name: str
    created_at: str
    difficulty: str | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    _FIELDS = (
        "instance_id",
        "repo",
        "base_commit",
        "origin",
        "problem_statement",
        "golden_patch",
        "fail_to_pass",
        "pass_to_pass",
        "image_name",
        "created_at",
        "difficulty",
    )

    @classmethod
    def from_record(cls, record: dict) -> "TaskInstance":
        difficulty = record.get("difficulty")
        if difficulty is not None and not isinstance(difficulty, str):
            raise ValueError("field 'difficulty' must be a string or null")
        return cls(
            instance_id=require(record, "instance_id", str),
            repo=require(record, "repo", str),
            base_commit=require(record, "base_commit", str),
            origin=require(record, "origin", str),
            problem_statement=require(record, "problem_statement", str),
            golden_patch=require(record, "golden_patch", str),
            fail_to_pass=_string_list(record, "fail_to_pass"),
            pass_to_pass=_string_list(record, "pass_to_pass"),
            image_name=require(record, "image_name", str),
            created_at=require(record, "created_at", str),
            difficulty=difficulty,
            extra={k: v for k, v in record.items() if k not in cls._FIELDS},
        )

    def to_record(self) -> dict:
        record = {
            "instance_id": self.instance_id,
            "repo": self.repo,
            "base_commit": self.base_commit,
            "origin": self.origin,
            "problem_statement": self.problem_statement,
            "golden_patch": self.golden_patch,
            "fail_to_pass": list(self.fail_to_pass),
            "pass_to_pass": list(self.pass_to_pass),
            "image_name": self.image_name,
            "created_at": self.created_at,
            "difficulty": self.difficulty,
        }
        record.update(self.extra)
        return record


@dataclass(frozen=True)
class ToolCall:
    """A single tool invocation by the agent."""

    tool: str
    arguments: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_record(cls, record: dict) -> "ToolCall":
        tool = require(record, "tool", str)
        arguments = record.get("arguments", {})
        if not isinstance(arguments, dict):
            raise ValueError("field 'arguments' must be an object")
        return cls(tool=tool, arguments=dict(arguments))

    def to_record(self) -> dict:
        return {"tool": self.tool, "arguments": dict(self.arguments)}


@dataclass(frozen=True)
class Step:
    """One agent turn: an action plus the environment's reply."""

    index: int
    action: ToolCall | str
    observation: str = ""
    phase: str = "other"
    error_flag: bool = False

    @classmethod
    def from_record(cls, record: dict) -> "Step":
        if not isinstance(record, dict):
            raise ValueError("every step must be an object")
        raw_action = record.get("action")
        if isinstance(raw_action, dict):
            action: ToolCall | str = ToolCall.from_record(raw_action)
        elif isinstance(raw_action, str):
            action = raw_action
        else:
            raise ValueError("field 'action' must be a tool call object or a string")
        return cls(
            index=require(record, "index", int),
            action=action,
            observation=require(record, "observation", str),
            phase=require(record, "phase", str),
            error_flag=bool(record.get("error_flag", False)),
        )

    def to_record(self) -> dict:
        action = self.action.to_record() if isinstance(self.action, ToolCall) else self.action
        return {
            "index": self.index,
            "action": action,
            "observation": self.observation,
            "phase": self.phase,
            "error_flag": self.error_flag,
        }


@dataclass(frozen=True)
class Trajectory:
    """The agent's full turn sequence for one instance, plus its outcome."""

    trajectory_id: str
    instance_id: str
    steps: tuple[Step, ...]
    final_patch: str = ""
    turn_count: int = 0
    outcome: str = "unclassified"
    max_turns: int = DEFAULT_MAX_TURNS
    extra: dict[str, Any] = field(default_factory=dict)

    _FIELDS = (
        "trajectory_id",
        "instance_id",
        "steps",
        "final_patch",
        "turn_count",
        "outcome",
        "max_turns",
    )

    @classmethod
    def from_record(cls, record: dict) -> "Trajectory":
        raw_steps = require(record, "steps", list)
        steps = tuple(Step.from_record(s) for s in raw_steps)
        return cls(
            trajectory_id=require(record, "trajectory_id", str),
            instance_id=require(record, "instance_id", str),
            steps=steps,
            final_patch=require(record, "final_patch", str),
            turn_count=require(record, "turn_count", int),
            outcome=require(record, "outcome", str),
            max_turns=require(record, "max_turns", int) if "max_turns" in record else DEFAULT_MAX_TURNS,
            extra={k: v for k, v in record.items() if k not in cls._FIELDS},
        )

    def to_record(self) -> dict:
        record = {
            "trajectory_id": self.trajectory_id,
            "instance_id": self.instance_id,
            "steps": [s.to_record() for s in self.steps],
            "final_patch": self.final_patch,
            "turn_count": self.turn_count,
            "outcome": self.outcome,
            "max_turns": self.max_turns,
        }
        record.update(self.extra)
        return record


@dataclass(frozen=True)
class TestReport:
    """Test outcomes for one code state: test id -> pass | fail | error."""

    code_state: str
    results: dict[str, str]

    @classmethod
    def from_record(cls, record: dict) -> "TestReport":
        results = require(record, "results", dict)
        for test_id, status in results.items():
            if not isinstance(test_id, str) or not isinstance(status, str):
                raise ValueError("field 'results' must map test ids to status strings")
            if status not in TEST_STATUSES:
                raise ValueError(f"unknown test status {status!r} for {test_id!r}")
        code_state = require(record, "code_state", str)
        if code_state not in CODE_STATES:
            raise ValueError(f"unknown code_state {code_state!r}")
        return cls(code_state=code_state, results=dict(results))

    def to_record(self) -> dict:
        return {"code_state": self.code_state, "results": dict(self.results)}


# ---------------------------------------------------------------------------
# Validation


def validate_instance(inst: TaskInstance, *, patch_parses: bool | None = None) -> list[str]:
    """Check one instance against the schema rules.

    Returns a list of stable violation codes; an empty list means the
    instance is well-formed. Violations are data, not exceptions. A caller
    that has already parsed the golden patch passes its verdict as
    `patch_parses`; otherwise the patch is parsed here.
    """
    codes = []
    if not inst.instance_id:
        codes.append("EMPTY_INSTANCE_ID")
    if inst.origin not in ORIGINS:
        codes.append("BAD_ORIGIN")
    if not inst.fail_to_pass:
        codes.append("EMPTY_F2P")
    if set(inst.fail_to_pass) & set(inst.pass_to_pass):
        codes.append("LABEL_OVERLAP")
    if patch_parses is None:
        from . import patch_analysis

        try:
            patch_analysis.parse_patch(inst.golden_patch)
            patch_parses = True
        except patch_analysis.PatchParseError:
            patch_parses = False
    if not patch_parses:
        codes.append("BAD_PATCH")
    try:
        parse_timestamp(inst.created_at)
    except ValueError:
        codes.append("BAD_TIMESTAMP")
    if inst.difficulty is not None and inst.difficulty not in DIFFICULTIES:
        codes.append("BAD_DIFFICULTY")
    return codes


def validate_trajectory(traj: Trajectory) -> list[str]:
    """Check one trajectory against the schema rules; returns violation codes.

    Unknown tool names are accepted here: trajectories arrive from rollouts
    with tools that the curation stage prunes later.
    """
    codes = []
    if not traj.trajectory_id:
        codes.append("EMPTY_TRAJECTORY_ID")
    if not traj.instance_id:
        codes.append("EMPTY_INSTANCE_ID")
    if [s.index for s in traj.steps] != list(range(len(traj.steps))):
        codes.append("NONCONTIGUOUS_STEPS")
    for step in traj.steps[:-1]:
        if isinstance(step.action, ToolCall) and step.action.tool == "finish":
            codes.append("FINISH_NOT_TERMINAL")
            break
    if traj.turn_count != len(traj.steps):
        codes.append("TURN_COUNT_MISMATCH")
    if traj.outcome not in OUTCOMES:
        codes.append("BAD_OUTCOME")
    if traj.max_turns <= 0:
        codes.append("BAD_MAX_TURNS")
    # Over-budget trajectories are only legal when the outcome records the truncation.
    elif traj.turn_count > traj.max_turns and traj.outcome not in ("unresolved", "error"):
        codes.append("TURNS_EXCEED_MAX")
    for step in traj.steps:
        if step.phase not in PHASES:
            codes.append("BAD_PHASE")
            break
    for step in traj.steps:
        if isinstance(step.action, ToolCall) and any(not k for k in step.action.arguments):
            codes.append("EMPTY_ARG_KEY")
            break
    return codes


# ---------------------------------------------------------------------------
# Corpus I/O


@dataclass(frozen=True)
class Rejection:
    """One rejected input line: where it was, what rule it broke."""

    line_no: int
    codes: tuple[str, ...]
    message: str


@dataclass(frozen=True)
class LoadResult:
    """Accepted records plus the rejection report for one JSON Lines file.

    For a corpus, len(records) + len(rejections) always equals the input
    line count; other inputs skip blank lines, which count in neither.
    """

    records: list
    rejections: list[Rejection]


class RecordRejected(ValueError):
    """A record that parsed but breaks a rule; `codes` name the rules."""

    def __init__(self, codes: Sequence[str], message: str):
        super().__init__(message)
        self.codes = tuple(codes)


def load_jsonl(path: str | Path, parse: Callable[[dict], Any], *, reject_blank: bool = False) -> LoadResult:
    """Read a JSON Lines file into `parse(record)` per line, in file order.

    Lines split at "\n" only, so text that holds U+2028 and the like reads
    back as written. A line that is not a JSON object is BAD_JSON; one that
    `parse` refuses with ValueError is BAD_RECORD, or the codes of a
    RecordRejected. A blank line is skipped, or is EMPTY_LINE with
    reject_blank. An unreadable file raises CorpusError.
    """
    file_path = Path(path)
    try:
        lines = file_path.read_text(encoding="utf-8").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"cannot read {file_path}: {exc}") from exc
    if not lines[-1]:
        lines.pop()  # what follows the final newline is no line
    records: list = []
    rejections: list[Rejection] = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            if reject_blank:
                rejections.append(Rejection(line_no, ("EMPTY_LINE",), "blank line"))
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            rejections.append(Rejection(line_no, ("BAD_JSON",), str(exc)))
            continue
        if not isinstance(raw, dict):
            rejections.append(Rejection(line_no, ("BAD_JSON",), "record is not an object"))
            continue
        try:
            records.append(parse(raw))
        except ValueError as exc:
            codes = exc.codes if isinstance(exc, RecordRejected) else ("BAD_RECORD",)
            rejections.append(Rejection(line_no, codes, str(exc)))
    return LoadResult(records=records, rejections=rejections)


_KINDS = {
    "instances": (TaskInstance, validate_instance),
    "trajectories": (Trajectory, validate_trajectory),
}


def load_corpus(path: str | Path, kind: str) -> LoadResult:
    """Load a JSON Lines corpus, collecting malformed lines instead of dropping them.

    `kind` selects the record type: "instances" or "trajectories". Records are
    returned in file order. Every line either becomes a record or a rejection
    entry carrying its line number and violation codes; a blank line is
    EMPTY_LINE. For instances, a duplicate instance_id, or a duplicate
    image_name among origin=real records, rejects the later line.
    """
    if kind not in _KINDS:
        raise CorpusError(f"unknown corpus kind {kind!r}")
    record_type, validator = _KINDS[kind]
    real_images: dict[str, str] = {}
    seen_ids: set[str] = set()

    def parse(raw: dict):
        record = record_type.from_record(raw)
        codes = validator(record)
        if codes:
            raise RecordRejected(codes, "; ".join(codes))
        if kind == "instances":
            if record.instance_id in seen_ids:
                raise RecordRejected(("DUPLICATE_ID",), f"instance_id {record.instance_id!r} already seen")
            if record.origin == "real":
                holder = real_images.get(record.image_name)
                if holder is not None:
                    raise RecordRejected(
                        ("DUPLICATE_IMAGE",), f"image_name {record.image_name!r} already used by {holder}"
                    )
                real_images[record.image_name] = record.instance_id
            seen_ids.add(record.instance_id)
        return record

    return load_jsonl(path, parse, reject_blank=True)


def dumps_record(record: dict) -> str:
    """Canonical single-line JSON for one record (no trailing newline)."""
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write a file atomically: temp file in the same directory, then rename.

    An interrupted write never leaves a partially written file at `path`.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        encoding="utf-8",
        dir=target.parent,
        prefix=f".{target.name}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, target)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def save_corpus(records: Iterable, path: str | Path) -> None:
    """Write records as JSON Lines with deterministic bytes.

    Identical inputs produce byte-identical files; an empty record list
    produces a zero-byte file. load_corpus(save_corpus(x)) round-trips to x.
    """
    lines = [dumps_record(r.to_record()) for r in records]
    text = "".join(line + "\n" for line in lines)
    try:
        atomic_write_text(path, text)
    except OSError as exc:
        raise CorpusError(f"cannot write corpus {path}: {exc}") from exc


def save_jsonl(records: Sequence[dict], path: str | Path) -> None:
    """Write plain dict records as canonical JSON Lines (atomic)."""
    text = "".join(dumps_record(r) + "\n" for r in records)
    atomic_write_text(path, text)
