"""Data model and JSON Lines I/O shared by every pipeline stage.

Record types are values: build them once and share them freely. Most are
frozen; `Step` and `ToolCall`, built by the thousand per corpus, are slotted
and not frozen, which is cheaper to build, and no code assigns to their
fields. Corpora are JSON Lines files (one record per line) with a
canonical field order, so identical inputs always serialize to identical
bytes. Unknown fields found on disk are kept on the record (`extra`) and
written back verbatim, in their original order, for forward compatibility.

Every stage input is read by `read_jsonl`, which splits at "\n" only and
turns each line into a record or a `Rejection`, one line at a time;
`read_corpus` is that reader plus a corpus kind's record type, validator
and duplicate rules. An index (key -> path and byte offset of a line, as
an instance corpus's `IndexEntry`s) holds no record: an `OffsetLookup`
decodes a record from its line when it is looked up. `load_jsonl` and
`load_corpus` hold their whole result; nothing in the package calls them,
and they stay while `bench/tracing.py` wraps them. Every writer encodes
one line at a time into the temp file of an `AtomicWriter`, the one
temp-file, sync and rename implementation.

Timestamps are ISO-8601 UTC text. They are stored as strings and parsed on
demand so that round-trips never reformat them.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
from collections import ChainMap
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from functools import cache, cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import DEFAULT_MAX_TURNS
from .errors import ForgeError
from .registries import PHASES

if TYPE_CHECKING:
    from .patch_analysis import PatchStats

ORIGINS = ("real", "synthetic")
DIFFICULTIES = ("easy", "medium", "hard")
OUTCOMES = ("resolved", "semi_resolved", "unresolved", "error", "empty_patch", "unclassified")
ALLOWED_TOOLS = ("execute_bash", "str_replace_editor", "think", "finish")
TEST_STATUSES = ("pass", "fail", "error")
CODE_STATES = ("pre_patch", "post_patch", "buggy", "restored", "final")


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


def of_type(value: Any, types: type | tuple) -> bool:
    """isinstance(value, types), except that JSON `true` and `false` are not
    integers: a bool passes only when `types` names bool itself."""
    if isinstance(value, bool):
        return bool in (types if isinstance(types, tuple) else (types,))
    return isinstance(value, types)


def require(record: dict, key: str, types: type | tuple) -> Any:
    """record[key], or ValueError when it is missing or not of `types`
    (see `of_type`)."""
    try:
        value = record[key]
    except KeyError:
        raise ValueError(f"missing field {key!r}") from None
    if type(value) is types or of_type(value, types):
        return value
    raise ValueError(f"field {key!r} has wrong type {type(value).__name__}")


def optional(record: dict, key: str, types: type | tuple, default: Any = None) -> Any:
    """require(record, key, types) when the key is present, else `default`."""
    return require(record, key, types) if key in record else default


@cache
def _declared(cls: type) -> frozenset[str]:
    """The keys a record type declares: its dataclass fields but `extra`."""
    return frozenset(f.name for f in fields(cls)) - {"extra"}


def _string_list(record: dict, key: str) -> tuple[str, ...]:
    value = require(record, key, list)
    if not all(isinstance(item, str) for item in value):
        raise ValueError(f"field {key!r} must be a list of strings")
    return tuple(value)


@dataclass(frozen=True)
class TaskInstance:
    """One executable SWE issue: problem text, golden patch, labeled tests, sandbox id.

    `golden_stats` is computed on first use and kept: only the three counts,
    never the parsed patch. A builder that has already parsed the patch
    seeds it with `object.__setattr__`.
    """

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

    @classmethod
    def from_record(cls, record: dict) -> "TaskInstance":
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
            difficulty=optional(record, "difficulty", (str, type(None))),
            extra={k: v for k, v in record.items() if k not in _declared(cls)},
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

    @cached_property
    def golden_stats(self) -> PatchStats:
        """patch_stats of the parsed golden patch; PatchParseError if it does not parse."""
        from . import patch_analysis

        return patch_analysis.patch_stats(patch_analysis.parse_patch(self.golden_patch))


@dataclass(slots=True)
class ToolCall:
    """A single tool invocation by the agent."""

    tool: str
    arguments: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_record(cls, record: dict) -> "ToolCall":
        tool = require(record, "tool", str)
        return cls(tool=tool, arguments=dict(optional(record, "arguments", dict, {})))

    def to_record(self) -> dict:
        return {"tool": self.tool, "arguments": dict(self.arguments)}


@dataclass(slots=True)
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
            error_flag=optional(record, "error_flag", bool, False),
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


class TrajectorySummary(NamedTuple):
    """The fields of a curated trajectory that its statistics and the
    curriculum read, kept where the whole trajectory need not be."""

    trajectory_id: str
    turn_count: int
    outcome: str
    max_turns: int


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
            max_turns=optional(record, "max_turns", int, DEFAULT_MAX_TURNS),
            extra={k: v for k, v in record.items() if k not in _declared(cls)},
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

    def summary(self) -> TrajectorySummary:
        return TrajectorySummary(self.trajectory_id, self.turn_count, self.outcome, self.max_turns)


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


def validate_instance(inst: TaskInstance) -> list[str]:
    """Check one instance against the schema rules.

    Returns a list of stable violation codes; an empty list means the
    instance is well-formed. Violations are data, not exceptions. The golden
    patch is parsed through `golden_stats`, which keeps the counts for a
    later reader, so a builder that has seeded them is not parsed again.
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
    from . import patch_analysis

    try:
        inst.golden_stats
    except patch_analysis.PatchParseError:
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


# A \uD800-\uDFFF escape. Only lines holding one can decode to a lone
# surrogate, which no UTF-8 output can hold.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89abcdefABCDEF]")


def _finite(text: str) -> float:
    """A JSON number; ValueError for NaN, Infinity and past the float range."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


_DECODER = json.JSONDecoder(parse_constant=_finite, parse_float=_finite)  # built once, used per line


def _encodes(raw: dict) -> bool:
    """Whether every string in a decoded record encodes as UTF-8."""
    try:
        json.dumps(raw, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _read_lines(file_path: Path, start: int = 0) -> Iterator[bytes]:
    """The lines of a file from byte offset `start`, split at "\n" only and
    without it, read one at a time so that no more than one line of the text
    is held; what follows the final newline is no line. CorpusError if it is
    unreadable."""
    try:
        with file_path.open("rb") as handle:
            handle.seek(start)
            for line in handle:
                yield line.removesuffix(b"\n")
    except OSError as exc:
        raise CorpusError(f"cannot read {file_path}: {exc}") from exc


def read_jsonl(path: str | Path, parse: Callable[[dict], Any], rejections: list[Rejection], *,
               reject_blank: bool = False, offsets: bool = False, start: int = 0, stop: int | None = None) -> Iterator:
    """Yield `parse(record)` for each line of a JSON Lines file, in file
    order, decoding one line at a time, or with `offsets` (byte offset of
    the line, parse(record)) pairs; append each refused line's Rejection to
    `rejections`. The one JSON decoder of stage inputs. Only the lines that
    start in bytes [start, stop) are read, `start` a line start; line
    numbers count from the line at `start`.

    Lines split at "\n" only, so text that holds U+2028 and the like reads
    back as written. A line that is not UTF-8, that is not a JSON object (nor
    is one nested past the recursion limit, or holding an integer past int's
    digit limit or a number that is not finite), or that escapes a lone
    surrogate (text no UTF-8 output can hold), is BAD_JSON; one that `parse`
    refuses with ValueError is BAD_RECORD, or the codes of a RecordRejected.
    A blank line is skipped, or is EMPTY_LINE with reject_blank. An
    unreadable file raises CorpusError, also after some lines were yielded.
    """
    end = start
    for line_no, encoded in enumerate(_read_lines(Path(path), start), start=1):
        if stop is not None and end >= stop:
            break
        offset, end = end, end + len(encoded) + 1
        try:
            line = encoded.decode("utf-8")
        except UnicodeDecodeError as exc:
            rejections.append(Rejection(line_no, ("BAD_JSON",), f"not UTF-8: {exc}"))
            continue
        if not line.strip():
            if reject_blank:
                rejections.append(Rejection(line_no, ("EMPTY_LINE",), "blank line"))
            continue
        try:
            raw = _DECODER.decode(line)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            rejections.append(Rejection(line_no, ("BAD_JSON",), str(exc)))
            continue
        if not isinstance(raw, dict):
            rejections.append(Rejection(line_no, ("BAD_JSON",), "record is not an object"))
            continue
        if "\\u" in line and _SURROGATE_ESCAPE.search(line) and not _encodes(raw):
            rejections.append(Rejection(line_no, ("BAD_JSON",), "lone surrogate"))
            continue
        try:
            record = parse(raw)
        except ValueError as exc:
            codes = exc.codes if isinstance(exc, RecordRejected) else ("BAD_RECORD",)
            rejections.append(Rejection(line_no, codes, str(exc)))
            continue
        yield (offset, record) if offsets else record


def load_jsonl(path: str | Path, parse: Callable[[dict], Any], *, reject_blank: bool = False) -> LoadResult:
    """Every record and rejection of `read_jsonl`, held whole."""
    rejections: list[Rejection] = []
    return LoadResult(list(read_jsonl(path, parse, rejections, reject_blank=reject_blank)), rejections)


_KINDS = {
    "instances": (TaskInstance, validate_instance),
    "trajectories": (Trajectory, validate_trajectory),
}


def read_corpus(path: str | Path, kind: str, rejections: list[Rejection], *, offsets: bool = False,
                start: int = 0, stop: int | None = None) -> Iterator:
    """Read a JSON Lines corpus with `read_jsonl` (`offsets`, `start` and `stop` are its own),
    collecting malformed lines instead of dropping them.

    `kind` selects the record type: "instances" or "trajectories". Records are
    yielded in file order. Every line either becomes a record or a rejection
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

    return read_jsonl(path, parse, rejections, reject_blank=True, offsets=offsets, start=start, stop=stop)


def load_corpus(path: str | Path, kind: str) -> LoadResult:
    """Every record and rejection of `read_corpus`, held whole."""
    rejections: list[Rejection] = []
    return LoadResult(list(read_corpus(path, kind, rejections)), rejections)


class IndexEntry(NamedTuple):
    """What an instance corpus index keeps of one instance: where its line starts, and what stats sums."""

    path: Path
    offset: int
    origin: str
    issue_words: int
    golden_stats: PatchStats
    fail_to_pass: int
    pass_to_pass: int

    @classmethod
    def of(cls, inst: TaskInstance, path: Path, offset: int) -> "IndexEntry":
        return cls(path, offset, inst.origin, len(inst.problem_statement.split()), inst.golden_stats,
                   len(inst.fail_to_pass), len(inst.pass_to_pass))


class OffsetLookup(ChainMap):
    """Records by key over offset indexes (maps of key to an entry that starts with the path
    and byte offset of the record's line, such as an `IndexEntry`), the first index's where
    several hold a key, each decoded from its line by `parse` whenever it is looked up, so a
    lookup keeps no record; no file stays open."""

    def __init__(self, parse: Callable[[dict], Any], *indexes: Mapping[str, Sequence]):
        super().__init__(*indexes)
        self.parse = parse

    def __getitem__(self, key: str) -> Any:
        path, offset = super().__getitem__(key)[:2]
        with open(path, "rb") as handle:
            handle.seek(offset)
            return self.parse(_DECODER.decode(handle.readline().decode("utf-8")))


_RECORD_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))  # built once, not per call


def dumps_record(record: dict) -> str:
    """Canonical single-line JSON for one record (no trailing newline)."""
    return _RECORD_ENCODER.encode(record)


def corpus_line(record) -> str:
    """A corpus record's line, as `save_corpus` writes it."""
    return dumps_record(record.to_record()) + "\n"


class AtomicWriter:
    """A file written atomically, piece by piece: `write` strings into a temp
    file in the target's directory, then `commit` (sync, then rename over the
    target) or `discard` (close and remove the temp file). A commit that
    fails discards too, so neither a partial target nor the temp file is left."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, self._temp = tempfile.mkstemp(dir=self.path.parent, prefix=f".{self.path.name}.", suffix=".tmp")
        self._file = open(fd, "w", encoding="utf-8")
        self.write = self._file.write

    def commit(self) -> None:
        try:
            with self._file:
                self._file.flush()
                os.fsync(self._file.fileno())
            os.replace(self._temp, self.path)
        except BaseException:
            self.discard()
            raise

    def append(self, source: str | Path) -> None:
        """Write the bytes of file `source` as they are, 64 KiB at a time."""
        self._file.flush()
        with open(source, "rb") as f:
            while chunk := f.read(1 << 16):
                self._file.buffer.write(chunk)

    def discard(self) -> None:
        self._file.close()
        try:
            os.unlink(self._temp)
        except OSError:
            pass


def atomic_write_text(path: str | Path, text: str | Iterable[str | Path]) -> None:
    """`AtomicWriter` in one call: write `text`, or each string an iterable
    yields as it yields it (and the bytes of each file it names by a Path,
    as they are), then commit. An interrupted write (an exception from the
    iterable too) leaves neither a partial file at `path` nor the temp file."""
    writer = AtomicWriter(path)
    write = writer.write
    try:
        for piece in [text] if isinstance(text, str) else text:
            if isinstance(piece, str):
                write(piece)
            else:
                writer.append(piece)
    except BaseException:
        writer.discard()
        raise
    writer.commit()


def save_corpus(records: Iterable, path: str | Path,
                on_write: Callable[[Any, int], None] | None = None) -> None:
    """Write records as JSON Lines with deterministic bytes.

    Identical inputs produce byte-identical files; an empty record list
    produces a zero-byte file. load_corpus(save_corpus(x)) round-trips to x.
    Each record is encoded into the temp file as it is taken, and passed
    with the byte offset of its line to `on_write`, if given. A Path among
    the records names a corpus whose lines were encoded so, and its bytes
    are written as they are (not with `on_write`).
    """
    def lines() -> Iterator[str | Path]:
        end = 0
        for record in records:
            if isinstance(record, Path):
                yield record
                continue
            line = corpus_line(record)
            if on_write is not None:
                on_write(record, end)
                end += len(line.encode("utf-8"))
            yield line

    try:
        atomic_write_text(path, lines())
    except OSError as exc:
        raise CorpusError(f"cannot write corpus {path}: {exc}") from exc


def save_jsonl(records: Iterable[dict], path: str | Path) -> int:
    """Write plain dict records as canonical JSON Lines, atomically, encoding
    each into the temp file as it is taken; returns the number of lines."""
    written = 0

    def lines() -> Iterator[str]:
        nonlocal written
        for written, record in enumerate(records, start=1):
            yield dumps_record(record) + "\n"

    atomic_write_text(path, lines())
    return written
