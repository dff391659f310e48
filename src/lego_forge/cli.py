"""Pipeline orchestration: `forge <stage> --config <path>`.

Each stage loads its inputs, calls one library function and writes that
function's outputs; the README's CLI table names, for every input, the
function that parses one of its lines and, for every stage, the library
function it calls. Stages write their outputs atomically (temp file plus
rename, so an interrupted stage leaves nothing partial), and are
deterministic: identical inputs produce byte-identical outputs. The
`pipeline` command runs every configured stage in dependency order and
skips each one whose outputs all exist and whose state entry is still its
record (see below). Within one `pipeline` run each file is hashed, and
each instance corpus indexed, once per content: `build-tasks` and
`inject` index each instance as they write it, any other corpus is indexed
by one validating read, and no stage holds an instance corpus (see
`_handoff`). The `trajectories` input is decoded one line at a time into
`curate`, never held whole, nor is `final_reports`: `curate` decodes each
report from its line (`schema.OffsetLookup`). On two CPUs or more a forked
child, the shard, curates the lines from the first line start at or after
the file's byte midpoint into a temp directory, and hands back its report
parts and rejections; its bytes are appended to `curated.jsonl` as they
are, and the outputs are those of one pass. As `curate` writes each curated
record, it hands it to the reader stages, those whose `Stage.run` is a
generator function that a `_Reader` feeds, which use it and let it go, so
no stage holds the curated corpus. The shard feeds its half to readers of
its own, which write their lines into its directory and hand back their
state; each reader here appends those lines after its own and merges that
state, so no line of the shard's half is decoded again. Each reader stage
commits its outputs at its own turn, and one whose inputs turn out
unchanged drops them and is skipped.
Where `curate` does not run, the first reader stage that runs feeds itself
and every reader stage after it from one pass over `curated.jsonl`, by the
same rule. Every JSON Lines output is encoded line by line into its temp
file. A build output whose instance ids (or real image
names) repeat is not indexed for the later stages, so `curate` reads and
rejects it. A single-stage run (`forge curate`, `forge stats`) reads and
parses from disk. Each module is imported where the code that uses it
runs, so loading the config loads only `errors`, `registries` and this
module, and a `forge pipeline` re-run that skips every stage adds only
`argparse`, `hashlib` and `json`. The record layer (`schema`) loads with the first
stage or state write that uses it, and before the fork where a worker will
run stages, so that the worker and this process share that one import.
The stages that share no file with the rest (read no other stage's output,
and no stage reads theirs) run in one forked worker process alongside the
others, through this process's stage loop (`_run_stages`), and the shard
is a second child (`_fork`); where this process cannot fork safely, it
does their work itself. Stdout, state and the exit code stay in stage
order, up to the first failing stage. Those stages hold one input line at
a time: `sanitize` writes each history before it reads the next,
and `tts-select` scores each candidate as it reads it and keeps one state
per instance (`tts.Rollouts`), not the candidate. The records hold no
reference cycles, so a `pipeline` run turns the cyclic garbage collector
off, worker included, and leaves it as it found it.

Exit codes: 0 success, 1 internal error, 2 missing input, 3 validation
failure (`errors.ValidationFailure`). `run_stage` stamps each report with
its stage's name and writes every rejection report next to the stage
outputs, so no stage body names its stage. Every JSON Lines input is read
by `schema.read_jsonl`, so a malformed line (one not UTF-8 too) is a
rejection, except in `real_inputs`, where it is skipped with its reason; a
streamed input fails its stage after its last line. Any other error, say
an output the file system refuses, fails its stage with exit 1 wherever it
runs (`_failure`); a report or state file it refuses, or a missing `git`,
ends `main` with one `error:` line and exit 1.

`out_dir/.forge_state.json` maps each stage that succeeded to its record
(`_record`): the [name, sha256] of the config file, of each input that
exists and of each output that exists, in that order. A state file that is
missing, undecodable or not a JSON object counts as empty, so every stage
re-runs; an entry of any other value re-runs its own stage alone.

The config file is a plain `key = value` text file, the one source of run
settings (the seed too); paths resolve relative to its directory. Its
lines, as a registry file's, end at "\n", "\r\n" or "\r" only. A value of
the wrong type or that no stage can use (say, a `context_limit` that is not
positive) fails at load with exit 1 and `path:line`; a config or registry
file that is not UTF-8 fails with exit 1 and its path. Keys:

  out_dir            output directory (default: out; a file there fails at load)
  repo, base_commit  repository identity for the inject stage
  real_inputs        JSONL of PR fixtures for build-tasks
  snapshot_dir       clean repository snapshot for inject
  mutations          JSONL of mutation specs (+ buggy/restored reports)
  histories          JSONL of exported commit histories for sanitize
  trajectories       JSONL of rollout trajectories for curate
  final_reports      JSONL of final-state test reports for curate
  instances          optional extra instance corpus (pre-built; exit 2 if missing)
  rollouts           JSONL of best-of-K candidates for tts-select
  surface            JSONL of (turns, rollouts, rate) triples (optional)
  latency_budget     budget in seconds for allocation (optional)
  max_turns          turn budget (default 100)
  context_limit      token budget for mask (default 128000)
  easy_upper, medium_upper   difficulty bin boundaries (default 50, 70)
  bucket_width       correlation bucket width in turns (default 10)
  latency_c, latency_alpha, latency_beta   latency model (1.0, 1.5, 0.5)
  recycle_semi_resolved      keep semi-resolved for training (default true)
  verifier           stub | oracle (default stub)
  seed               RNG seed (default 0)
  hack_patterns, error_patterns, phase_patterns   registry overrides (curate inputs)
"""

from __future__ import annotations

import gc
import inspect
import marshal
import math
import os
import sys
import threading
from collections import ChainMap
from dataclasses import asdict, dataclass, fields
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Iterator, Sequence

from . import DEFAULT_MAX_TURNS, EASY_UPPER, MEDIUM_UPPER, finite
from .errors import ForgeError, ValidationFailure
from .registries import content_lines, load_error_patterns, load_hack_patterns, load_phase_patterns

if TYPE_CHECKING:
    from .schema import IndexEntry, Rejection, TaskInstance, TestReport, Trajectory, TrajectorySummary

EXIT_OK = 0
EXIT_INTERNAL = ForgeError.exit_code
EXIT_MISSING_INPUT = 2
EXIT_VALIDATION = ValidationFailure.exit_code


class MissingInputError(ForgeError):
    exit_code = EXIT_MISSING_INPUT


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class PipelineConfig:
    """Every field but `config_path` is a config key, parsed by its annotation."""

    config_path: Path
    out_dir: Path = Path("out")
    repo: str = ""
    base_commit: str = ""
    real_inputs: Path | None = None
    snapshot_dir: Path | None = None
    mutations: Path | None = None
    histories: Path | None = None
    trajectories: Path | None = None
    final_reports: Path | None = None
    instances: Path | None = None
    rollouts: Path | None = None
    surface: Path | None = None
    latency_budget: float | None = None
    max_turns: int = DEFAULT_MAX_TURNS
    context_limit: int = 128000
    easy_upper: int = EASY_UPPER
    medium_upper: int = MEDIUM_UPPER
    bucket_width: int = 10
    latency_c: float = 1.0
    latency_alpha: float = 1.5
    latency_beta: float = 0.5
    recycle_semi_resolved: bool = True
    verifier: str = "stub"
    seed: int = 0
    hack_patterns: Path | None = None
    error_patterns: Path | None = None
    phase_patterns: Path | None = None

    def allocates(self) -> bool:
        """tts-select plans a latency allocation only when both are set."""
        return self.surface is not None and self.latency_budget is not None


_KEY_TYPES = {f.name: f.type for f in fields(PipelineConfig) if f.name != "config_path"}


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"bad boolean {value!r}")


def _parse_value(annotation: str, value: str, base_dir: Path):
    if annotation.endswith(" | None") and not value:
        return None
    kind = annotation.removesuffix(" | None")
    if kind == "Path":
        return (base_dir / value).resolve()
    return {"str": str, "int": int, "float": float, "bool": _parse_bool}[kind](value)


def _check_range(key: str, value) -> None:
    """Raise ValueError for a value no stage can use. The latency model
    checks its own ranges, so only a config that sets one of its keys
    imports tts."""
    if (key in ("latency_budget", "bucket_width", "context_limit") and value is not None
            and not 0 < value < math.inf):
        raise ValueError("must be positive and finite")
    if key == "verifier" and value not in ("stub", "oracle"):
        raise ValueError(f"unknown verifier {value!r}")
    if key in ("latency_c", "latency_alpha", "latency_beta"):
        from . import tts

        tts.LatencyModel(**{key.removeprefix("latency_"): value})


def load_config(path: str | Path) -> PipelineConfig:
    """Parse the key-value config file and validate the invariants that can
    be checked at load time (value types and ranges, bin partition, registry
    files, enums)."""
    config_path = Path(path).resolve()
    try:
        text = config_path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise MissingInputError(f"cannot read config {config_path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ForgeError(f"{config_path}: not UTF-8 text: {exc}") from None
    base_dir = config_path.parent
    values: dict = {}
    line_of: dict[str, int] = {}
    for line_no, line in content_lines(text):
        if "=" not in line:
            raise ForgeError(f"{config_path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEY_TYPES:
            raise ForgeError(f"{config_path}:{line_no}: unknown key {key!r}")
        line_of[key] = line_no
        try:
            values[key] = _parse_value(_KEY_TYPES[key], value.strip(), base_dir)
            _check_range(key, values[key])
        except ValueError as exc:
            raise ForgeError(f"{config_path}:{line_no}: bad value for {key!r}: {exc}") from None
    cfg = PipelineConfig(config_path=config_path, **values)
    cfg.out_dir = (base_dir / cfg.out_dir).resolve()
    try:
        if not all(path.is_dir() for path in (cfg.out_dir, *cfg.out_dir.parents) if path.exists()):
            raise ForgeError(f"{config_path}: out_dir {cfg.out_dir} is not a directory")
    except OSError as exc:  # say, a name longer than the file system allows
        raise ForgeError(f"{config_path}: out_dir {cfg.out_dir} cannot be looked up: {exc.strerror}") from None
    if not 0 < cfg.easy_upper < cfg.medium_upper < cfg.max_turns:
        last = max(line_of[key] for key in ("easy_upper", "medium_upper", "max_turns") if key in line_of)
        raise ForgeError(f"{config_path}:{last}: bin boundaries must satisfy "
                         "0 < easy_upper < medium_upper < max_turns")
    for registry in (cfg.hack_patterns, cfg.error_patterns, cfg.phase_patterns):
        if registry is not None:
            _require_input(registry, "registry file")
    # Compile the registries now so bad patterns fail at load, not mid-stage.
    load_hack_patterns(cfg.hack_patterns)
    load_error_patterns(cfg.error_patterns)
    load_phase_patterns(cfg.phase_patterns)
    return cfg


# ---------------------------------------------------------------------------
# Helpers


def _dump_report(report: dict) -> str:
    import json

    return json.dumps(report, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def _require_input(path: Path | None, what: str, directory: bool = False) -> Path:
    """`path` when it names an existing regular file (or, with `directory`,
    a directory), else MissingInputError naming `what`."""
    if path is None:
        raise MissingInputError(f"config does not set {what}")
    try:
        if not path.exists():
            raise MissingInputError(f"{what} {path} does not exist")
    except OSError as exc:  # say, a name longer than the file system allows
        raise MissingInputError(f"{what} {path} cannot be looked up: {exc.strerror}") from None
    if not (path.is_dir() if directory else path.is_file()):
        raise MissingInputError(f"{what} {path} is not a {'directory' if directory else 'regular file'}")
    return path


def _fail_on_rejections(source: Path, rejections: Sequence[Rejection]) -> None:
    if rejections:
        entries = [{"file": str(source), **asdict(r)} for r in rejections]  # line_no, codes, message
        raise ValidationFailure(f"{source}: {len(rejections)} rejected line(s)", entries)


# Per-run state of run_pipeline, emptied when the run ends: the sha256 of
# each path hashed so far, the index of each instance corpus read or written
# (instance id -> IndexEntry, never the instance), keyed by (path, sha256 of
# the file; curate's index of final_reports is its own, made and dropped in
# its stage), and, by stage name, the `_Reader` of each reader stage that
# curate, or one pass over curated.jsonl, has fed and whose turn has not
# come. Outside a run nothing is kept.
_in_run = False
_digests: dict[Path, str] = {}
_handoff: dict[tuple[Path, str], dict[str, IndexEntry]] = {}
_readers: dict[str, _Reader] = {}


def _save_instances(instances: Iterable[TaskInstance], path: Path) -> int:
    """Write `instances` to corpus `path` and return their count. Within a
    run, the index made as they are written is handed to later stages
    unless a read would reject a line: the builders' instances validate, so
    only the repeat rule (`schema.InstanceRepeats`) would."""
    from .schema import IndexEntry, InstanceRepeats, save_corpus

    index: dict[str, IndexEntry] = {}
    repeats, rejected = InstanceRepeats(), []  # per instance, what a read would reject its line with

    def add(inst: TaskInstance, offset: int) -> None:
        rejected.append(repeats.rejection(inst))
        index[inst.instance_id] = IndexEntry.of(inst, path, offset)

    save_corpus(instances, path, on_write=add)
    if _in_run and not any(rejected):
        _handoff[(path, _hash_path(path))] = index
    return len(rejected)


def _index(path: Path) -> dict[str, IndexEntry]:
    """The index of instance corpus `path`, made by one validating read once
    per content within a run; a read with rejections fails the stage and
    is never kept."""
    from .schema import IndexEntry

    key = (path, _hash_path(path)) if _in_run else None
    index = _handoff.get(key)
    if index is None:
        index = {inst.instance_id: IndexEntry.of(inst, path, offset)
                 for offset, inst in _stream(path, "instances", offsets=True)}
        if key is not None:
            _handoff[key] = index
    return index


def _stream(path: Path, parse: Callable[[dict], Any] | str, offsets: bool = False) -> Iterator:
    """The records of stage input `path`, decoded one line at a time by
    `parse`, or as a corpus of that kind (`offsets` as read_corpus's); once
    the last is yielded, a rejected line fails the stage with its report."""
    from .schema import read_corpus, read_jsonl

    rejections: list[Rejection] = []
    yield from (read_corpus(path, parse, rejections, offsets=offsets) if isinstance(parse, str)
                else read_jsonl(path, parse, rejections))
    _fail_on_rejections(path, rejections)


def _instance_sources(cfg: PipelineConfig) -> list[Path]:
    sources = [cfg.out_dir / "instances_real.jsonl", cfg.out_dir / "instances_synth.jsonl"]
    if cfg.instances is not None:
        sources.append(cfg.instances)
    return sources


def _indexes(cfg: PipelineConfig) -> list[dict[str, IndexEntry]]:
    """The index of each instance corpus, in source order: the first to hold an id wins."""
    if cfg.instances is not None:
        _require_input(cfg.instances, "instances")
    existing = [p for p in _instance_sources(cfg) if p.exists()]
    if not existing:
        raise MissingInputError("no instance corpus found (run build-tasks/inject or set `instances`)")
    return [_index(source) for source in existing]


# ---------------------------------------------------------------------------
# Stages


def _stage_build_tasks(cfg: PipelineConfig) -> dict:
    from . import task_builder
    from .schema import read_jsonl

    source = _require_input(cfg.real_inputs, "real_inputs")
    rejections: list[Rejection] = []
    built = _save_instances(read_jsonl(source, task_builder.build_real_instance, rejections),
                            cfg.out_dir / "instances_real.jsonl")
    return {"built": built, "skipped": [{"record": r.line_no - 1, "reason": r.message} for r in rejections]}


def _stage_inject(cfg: PipelineConfig) -> dict:
    from . import task_builder

    snapshot_dir = _require_input(cfg.snapshot_dir, "snapshot_dir", directory=True)
    mutations_path = _require_input(cfg.mutations, "mutations")
    if not cfg.repo or not cfg.base_commit:
        raise MissingInputError("inject needs `repo` and `base_commit` in the config")
    mutations = list(_stream(mutations_path, lambda r: task_builder.MutationSpec.from_record(r, cfg.seed)))
    snapshot = task_builder.read_snapshot(snapshot_dir)
    statements = task_builder.TemplateStatementProvider()
    provider = task_builder.PythonAstProvider()  # parses each snapshot file once
    invisible: list[dict] = []
    bad_specs: list[dict] = []

    def built() -> Iterator[TaskInstance]:
        for idx, (spec, reports) in enumerate(mutations):
            try:
                instance = task_builder.build_synthetic_instance(
                    snapshot, spec, reports, statements,
                    repo=cfg.repo, base_commit=cfg.base_commit, provider=provider)
            except task_builder.InvisibleBugError as exc:
                invisible.append({"record": idx, "reason": str(exc)})
            except (task_builder.MutationError, ValueError) as exc:
                bad_specs.append({"record": idx, "reason": str(exc)})
            else:
                yield instance
        # Raised inside the writer's input, so that it discards its temp file and writes nothing.
        if bad_specs:
            raise ValidationFailure(f"{len(bad_specs)} mutation spec(s) could not be applied", bad_specs)

    path = cfg.out_dir / "instances_synth.jsonl"
    return {"built": _save_instances(built(), path), "invisible_bugs": invisible}


def _stage_sanitize(cfg: PipelineConfig) -> dict:
    from . import repo_sanitizer
    from .schema import save_jsonl

    source = _require_input(cfg.histories, "histories")
    dropped: list[dict] = []

    def sanitized() -> Iterator[dict]:
        # Each history is written as it is read; a rejection fails the stage before the rename.
        for line in _stream(source, repo_sanitizer.sanitize_record):
            if "reason" in line:
                dropped.append(line)
            else:
                yield line

    count = save_jsonl(sanitized(), cfg.out_dir / "sanitized_histories.jsonl")
    return {"sanitized": count, "dropped": dropped}


def _stage_curate(cfg: PipelineConfig) -> dict:
    import shutil
    import tempfile

    from . import trajectory_curation
    from .schema import (OffsetLookup, Rejection, TaskInstance, TestReport, TrajectorySummary, corpus_line,
                         read_corpus, read_jsonl, require, save_corpus)

    def final_report(record: dict) -> tuple[str, TestReport]:
        """One final_reports line: `{trajectory_id, code_state, results}`."""
        return require(record, "trajectory_id", str), TestReport.from_record(record)

    traj_path = _require_input(cfg.trajectories, "trajectories")
    reports_path = _require_input(cfg.final_reports, "final_reports")
    instances = OffsetLookup(TaskInstance.from_record, *_indexes(cfg))
    report_rejections: list[Rejection] = []
    reports = OffsetLookup(TestReport.from_record, {  # a repeated trajectory id means its last line
        trajectory_id: (reports_path, offset)
        for offset, (trajectory_id, _) in read_jsonl(reports_path, final_report, report_rejections, offsets=True)})
    registries = (load_hack_patterns(cfg.hack_patterns), load_error_patterns(cfg.error_patterns),
                  load_phase_patterns(cfg.phase_patterns))

    def share(rejections: list[Rejection], report: dict, start: int = 0, stop: int | None = None):
        """Curate the trajectories whose lines start in bytes [start, stop), one at a time."""
        return trajectory_curation.curate(read_corpus(traj_path, "trajectories", rejections, start=start, stop=stop),
                                          instances, reports, *registries, report,
                                          recycle_semi_resolved=cfg.recycle_semi_resolved)

    def shard(send: Callable[[Any], None]) -> None:
        """The child's share, from `mid` on, fed to its own readers: its lines and theirs go to files in
        `shard_dir`, and its report parts, summaries, rejections (numbered in the whole file) and each
        reader's `state` to `send`; `_fork` sends an error as its exit code and message."""
        rejections: list[Rejection] = []
        report: dict = {}
        summaries = []
        with open(shard_dir / "curated.jsonl", "w", encoding="utf-8") as out:
            for traj in _fold(cfg, fed, share(rejections, report, start=mid), into=shard_dir):
                out.write(corpus_line(traj))
                summaries.append(tuple(traj.summary()))
        before = _lines_before(traj_path, mid) if rejections else 0
        send((EXIT_OK, report, summaries, [(before + r.line_no, r.codes, r.message) for r in rejections],
              {name: reader.state() for name, reader in _readers.items()}))  # where _fold left them

    rejections: list[Rejection] = []
    report: dict = {}
    summaries: list[TrajectorySummary] = []

    def curated() -> Iterator[Trajectory | tuple[Path, dict]]:
        # Trajectories are decoded one at a time into curate; a rejection,
        # the trajectories' first, fails it before the rename.
        nonlocal child
        for traj in share(rejections, report, stop=mid):
            summaries.append(traj.summary())
            yield traj
        if child is not None:
            sent, child = _reap(child), None
            code, *parts = sent[0] if sent else (EXIT_INTERNAL, "curate's shard ended before its share did")
            if code != EXIT_OK:
                raise _error(code, parts[0])
            shard_report, shard_summaries, shard_rejections, shard_readers = parts
            summaries.extend(map(TrajectorySummary._make, shard_summaries))
            report.update(trajectory_curation.rollout_stats(summaries, recycle_semi_resolved=cfg.recycle_semi_resolved))
            for key in ("repaired_calls", "hack_invalidated", "unrepairable_calls", "notes"):
                report[key] += shard_report[key]
            rejections.extend(Rejection(*r) for r in shard_rejections)
            yield shard_dir, shard_readers  # its lines, and its readers' shares (see _fold)
        _fail_on_rejections(traj_path, rejections)
        _fail_on_rejections(reports_path, report_rejections)

    # This process's share is the whole file where the second half holds no
    # line, or where no child can curate it alongside (one CPU, no safe fork).
    # Within a run every reader stage takes each curated trajectory as it is
    # written, in the process that curated it; those planned to run commit
    # their outputs at their turn.
    fed = [s for s in STAGES if s.reader] if _in_run else []
    mid = _split(traj_path) if _cpus() > 1 else None
    shard_dir = child = None
    try:
        if mid is not None:
            cfg.out_dir.mkdir(parents=True, exist_ok=True)
            shard_dir = Path(tempfile.mkdtemp(dir=cfg.out_dir, prefix=".curated.jsonl.", suffix=".tmp"))
            child = _fork(shard)
            if child is None:
                mid = None
        save_corpus(_fold(cfg, fed, curated()), _curated_path(cfg))
    finally:
        if child is not None:
            _reap(child)
        if shard_dir is not None:
            shutil.rmtree(shard_dir)
    return report


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code (1 for any but a ForgeError) and message `exc` ends a stage, `main` or a child with."""
    return (exc.exit_code if isinstance(exc, ForgeError) else EXIT_INTERNAL), str(exc)


def _error(code: int, message: str) -> ForgeError:
    """The error a child sent as `_failure`, to raise in this process."""
    error = ForgeError(message)
    error.exit_code = code
    return error


def _split(path: Path) -> int | None:
    """The byte offset of the first line start at or after half of `path`'s
    size (past offset 0), where the shard's share begins; None where the
    second half holds no line."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        f.seek(max(size // 2, 1) - 1)
        f.readline()
        mid = f.tell()
    return mid if mid < size else None


def _lines_before(path: Path, offset: int) -> int:
    """How many lines of `path` end before byte `offset`, counted 64 KiB at a time."""
    count = 0
    with open(path, "rb") as f:
        while offset > 0 and (chunk := f.read(min(offset, 1 << 16))):
            count += chunk.count(b"\n")
            offset -= len(chunk)
    return count


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _curated_path(cfg: PipelineConfig) -> Path:
    return cfg.out_dir / "curated.jsonl"


class _Reader:
    """A reader stage's fold over curated.jsonl, run by its body: a generator
    function of (cfg, output) that sets up, takes each trajectory sent to it
    until None, yields its state, is sent the list of states to merge after
    its own, then writes the outputs that need them all and returns the
    report. `output(name)` writes JSON lines into `name` in out_dir, which
    `finish` commits at the stage's turn. A reader whose body raised an
    Exception is detached: it takes nothing more, and `finish` raises it.

    A reader of curate's shard (`into` set) writes its lines into plain files
    in directory `into`, and `state` ends it there. This process's reader of
    the stage then `merge`s its share."""

    def __init__(self, cfg: PipelineConfig, body: Callable[..., Generator[Any, Any, dict]],
                 into: Path | None = None):
        self.cfg = cfg
        self.into = into
        self.writers: list = []  # AtomicWriters, or the shard's plain files
        self.shards: list = []  # the states to merge, in file order
        self.error: Exception | None = None
        self.body = body(cfg, self.output)
        self.take(None)  # runs the body's set-up

    def output(self, name: str) -> Callable[[dict], None]:
        from .schema import AtomicWriter, dumps_record

        if self.into is None:
            writer = AtomicWriter(self.cfg.out_dir / name)
        else:
            writer = open(self.into / name, "w", encoding="utf-8")
        self.writers.append(writer)
        return lambda record: writer.write(dumps_record(record) + "\n")

    def take(self, traj: Trajectory | None) -> None:
        if self.error is None:
            try:
                self.body.send(traj)
            except Exception as exc:
                self.error = exc
                self.discard()

    def state(self) -> tuple:
        """In the shard, once the last trajectory is taken: (EXIT_OK, the
        body's state), or its error as `_failure`; its files are closed."""
        result = _failure(self.error) if self.error is not None else (EXIT_OK, self.body.send(None))
        self.discard()
        return result

    def merge(self, result: tuple, shard_dir: Path) -> None:
        """Take the share of the shard's reader of this stage, whose `state`
        was `result`: its lines in `shard_dir`, appended after this process's,
        and its state, for `finish`. A failure there detaches this reader,
        unless its own came first."""
        if self.error is None:
            code, state = result
            try:
                if code != EXIT_OK:
                    raise _error(code, state)
                for writer in self.writers:
                    writer.append(shard_dir / writer.path.name)
                self.shards.append(state)
            except Exception as exc:
                self.error = exc
                self.discard()

    def finish(self) -> dict:
        if self.error is not None:
            raise self.error
        try:
            try:
                self.body.send(None)  # yields its own state, which only the shard sends
                self.body.send(self.shards)
            except StopIteration as done:
                report = done.value
            for writer in self.writers:
                writer.commit()
        except BaseException:
            self.discard()
            raise
        return report

    def discard(self) -> None:
        self.body.close()  # else its frame and this reader keep each other alive
        for writer in self.writers:
            (writer.discard if self.into is None else writer.close)()


def _mask(cfg: PipelineConfig, output: Callable) -> Generator[Any, Any, dict]:
    from . import curriculum, sft_masking

    write_sample, write_drop = output("samples.jsonl"), output("mask_drops.jsonl")
    emitted = dropped = 0
    while (traj := (yield)) is not None:
        if curriculum.selected_for_training(traj, recycle_semi_resolved=cfg.recycle_semi_resolved):
            sample, drop = sft_masking.mask_sample(traj, cfg.context_limit)
            if sample is None:
                write_drop(drop)
                dropped += 1
            else:
                write_sample(sample)
                emitted += 1
    for shard_emitted, shard_dropped in (yield emitted, dropped):
        emitted, dropped = emitted + shard_emitted, dropped + shard_dropped
    return {"emitted": emitted, "dropped": dropped, "context_limit": cfg.context_limit}


def _curriculum(cfg: PipelineConfig, output: Callable) -> Generator[Any, Any, dict]:
    from . import curriculum
    from .schema import TrajectorySummary, atomic_write_text, save_jsonl

    summaries: list[TrajectorySummary] = []
    while (traj := (yield)) is not None:
        summaries.append(traj.summary())
    for shard in (yield [tuple(summary) for summary in summaries]):  # marshal takes no named tuple
        summaries.extend(map(TrajectorySummary._make, shard))
    selected = curriculum.select_for_training(summaries, recycle_semi_resolved=cfg.recycle_semi_resolved)
    bins = curriculum.default_bins(cfg.max_turns, cfg.easy_upper, cfg.medium_upper)
    plan = curriculum.build_stages(selected, bins)
    # A stage names its members; their content is in curated.jsonl.
    for stage_no, stage_ids in enumerate(plan.stages, start=1):
        save_jsonl([{"trajectory_id": tid} for tid in stage_ids], cfg.out_dir / f"stage{stage_no}.jsonl")

    records = [(t.turn_count, t.outcome == "resolved") for t in summaries]
    try:
        corr = curriculum.turn_resolve_correlation(records, cfg.bucket_width)
        corr_report = {**asdict(corr), "r": round(corr.r, 6), "bucket_width": cfg.bucket_width}
    except curriculum.UndefinedCorrelationError as exc:
        corr_report = {"r": None, "n": len(records), "error": str(exc)}
    atomic_write_text(cfg.out_dir / "correlation_report.json", _dump_report(corr_report))
    return {
        "selected": len(selected),
        "stage_sizes": [len(s) for s in plan.stages],
    }


def _classify_errors(cfg: PipelineConfig, output: Callable) -> Generator[Any, Any, dict]:
    from . import error_taxonomy
    from .schema import OffsetLookup, TaskInstance, atomic_write_text

    classifier = error_taxonomy.FailureClassifier(OffsetLookup(TaskInstance.from_record, *_indexes(cfg)))
    write_failure = output("failures.jsonl")
    while (traj := (yield)) is not None:
        line = classifier.label(traj)
        if line is not None:
            write_failure(line)
    for shard in (yield classifier.state()):
        classifier.merge(shard)
    distribution, report = classifier.summary()
    atomic_write_text(cfg.out_dir / "distribution.json", _dump_report(distribution))
    return report


def _fold(cfg: PipelineConfig, stages: list[Stage], trajectories: Iterable, into: Path | None = None) -> Iterator:
    """Yield each trajectory once a new reader of each of `stages` (a
    reader of the shard's, with `into`) has taken it, and each path of a
    curated corpus once they have taken its trajectories, read by one pass
    where there is a reader. The shard's share comes as its directory and
    its readers' results: each reader merges its own, and the path of the
    shard's curated lines is yielded. Any exception, a GeneratorExit from a
    failing writer too, discards every reader; they go to `_readers` once
    the last trajectory has passed."""
    readers = {stage.name: _Reader(cfg, stage.run, into) for stage in stages}

    def take(traj: Trajectory) -> None:
        for reader in readers.values():
            reader.take(traj)

    try:
        for item in trajectories:
            if isinstance(item, tuple):
                shard_dir, results = item
                for name, reader in readers.items():
                    reader.merge(results[name], shard_dir)
                item = shard_dir / "curated.jsonl"
            elif not isinstance(item, Path):
                take(item)
            elif readers:
                for traj in _stream(item, "trajectories"):
                    take(traj)
            yield item
    except BaseException:
        for reader in readers.values():
            reader.discard()
        raise
    _readers.update(readers)


def _run_reader(cfg: PipelineConfig, stage: Stage) -> dict:
    """Finish reader `stage` as this run fed it; else feed it first from one
    pass over curated.jsonl, and within a run every reader stage after it
    too, as curate feeds them all. A rejected line there fails `stage`, and
    no reader writes its outputs."""
    if stage.name not in _readers:
        path = _require_input(_curated_path(cfg), "curated corpus (run the curate stage first)")
        fed = [s for s in STAGES[STAGES.index(stage):] if s.reader] if _in_run else [stage]
        for _ in _fold(cfg, fed, [path]):
            pass
    return _readers.pop(stage.name).finish()


def _stage_tts_select(cfg: PipelineConfig) -> dict:
    from . import tts
    from .schema import atomic_write_text, save_jsonl

    rollouts_path = _require_input(cfg.rollouts, "rollouts")
    verifier = tts.StubVerifier(cfg.seed) if cfg.verifier == "stub" else tts.OracleVerifier()
    groups: dict[str, tts.Rollouts] = {}
    for _ in _stream(rollouts_path, lambda record: tts.add_rollout(groups, record, verifier)):
        pass
    selection_lines, metrics = tts.best_of_k(groups, str(rollouts_path))

    report = {"instances": metrics["instances"], "k": metrics["k"]}
    # A bad surface fails the stage before it writes any output.
    if cfg.allocates():
        surface_path = _require_input(cfg.surface, "surface")
        surface = dict(_stream(surface_path, tts.surface_point))
        model = tts.LatencyModel(c=cfg.latency_c, alpha=cfg.latency_alpha, beta=cfg.latency_beta)
        plan, contour = tts.allocate(model, cfg.latency_budget, surface)
        allocation_report = {
            "budget": cfg.latency_budget,
            "plan": asdict(plan),
            # A K past the float range is null, so the file stays standard JSON.
            "contour": [[t, k_cont if k_cont < math.inf else None] for t, k_cont in contour],
        }
        atomic_write_text(cfg.out_dir / "allocation.json", _dump_report(allocation_report))
        report["allocation"] = allocation_report["plan"]
    save_jsonl(selection_lines, cfg.out_dir / "selection.jsonl")
    atomic_write_text(cfg.out_dir / "tts_metrics.json", _dump_report({**metrics, "verifier": cfg.verifier}))
    return report


def _stage_stats(cfg: PipelineConfig) -> dict:
    from . import patch_analysis

    everyone = list(ChainMap(*_indexes(cfg)).values())  # a fold over the index entries

    def aggregate(group: list[IndexEntry]) -> dict:
        if not group:
            return {"instances": 0}
        n = len(group)
        return {
            "instances": n,
            "issue_words": sum(e.issue_words for e in group) / n,
            "golden_patch": patch_analysis.mean_patch_stats([e.golden_stats for e in group]),
            "tests": {
                "fail_to_pass": sum(e.fail_to_pass for e in group) / n,
                "pass_to_pass": sum(e.pass_to_pass for e in group) / n,
                "total": sum(e.fail_to_pass + e.pass_to_pass for e in group) / n,
            },
        }

    return {
        "conventions": {
            "lines": "added + removed (a modified line counts twice)",
            "renames": "counted in files, not hunks or lines",
        },
        "real": aggregate([i for i in everyone if i.origin == "real"]),
        "synthetic": aggregate([i for i in everyone if i.origin == "synthetic"]),
        "combined": aggregate(everyone),
    }


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: `run` returns its report, or, for a stage that
    reads curated.jsonl, is the generator function a `_Reader` runs as its
    body; `inputs` are the paths whose content decides a re-run; `outputs`
    are the file names it writes in out_dir besides its `report`."""

    name: str
    run: Callable[[PipelineConfig], dict] | Callable[..., Generator[Any, Any, dict]]
    inputs: Callable[[PipelineConfig], list[Path | None]]
    outputs: Callable[[PipelineConfig], list[str]]
    report: str

    @property
    def reader(self) -> bool:
        return inspect.isgeneratorfunction(self.run)


# Dependency order: `pipeline` runs these top to bottom.
STAGES = (
    Stage("build-tasks", _stage_build_tasks, lambda cfg: [cfg.real_inputs],
          lambda cfg: ["instances_real.jsonl"], "build_tasks_report.json"),
    Stage("inject", _stage_inject, lambda cfg: [cfg.snapshot_dir, cfg.mutations],
          lambda cfg: ["instances_synth.jsonl"], "inject_report.json"),
    Stage("sanitize", _stage_sanitize, lambda cfg: [cfg.histories],
          lambda cfg: ["sanitized_histories.jsonl"], "sanitize_report.json"),
    Stage("curate", _stage_curate,
          lambda cfg: [cfg.trajectories, cfg.final_reports, *_instance_sources(cfg),
                       cfg.hack_patterns, cfg.error_patterns, cfg.phase_patterns],
          lambda cfg: ["curated.jsonl"], "curation_report.json"),
    Stage("mask", _mask, lambda cfg: [_curated_path(cfg)],
          lambda cfg: ["samples.jsonl", "mask_drops.jsonl"], "mask_report.json"),
    Stage("curriculum", _curriculum, lambda cfg: [_curated_path(cfg)],
          lambda cfg: ["stage1.jsonl", "stage2.jsonl", "stage3.jsonl",  # easy, +medium, +hard
                       "correlation_report.json"],
          "curriculum_report.json"),
    Stage("classify-errors", _classify_errors,
          lambda cfg: [_curated_path(cfg), *_instance_sources(cfg)],
          lambda cfg: ["failures.jsonl", "distribution.json"], "classify_errors_report.json"),
    Stage("tts-select", _stage_tts_select, lambda cfg: [cfg.rollouts, cfg.surface],
          lambda cfg: ["selection.jsonl", "tts_metrics.json",
                       *(["allocation.json"] if cfg.allocates() else [])],
          "tts_select_report.json"),
    Stage("stats", _stage_stats, _instance_sources, lambda cfg: [], "corpus_stats.json"),
)


# ---------------------------------------------------------------------------
# Stage runner and pipeline


def run_stage(stage: str, cfg: PipelineConfig) -> tuple[int, dict]:
    """Run one stage; returns (exit_code, report), stamped with the stage's
    name. The report is also written to the stage's report file in out_dir;
    a ValidationFailure's rejection entries, to `<stage>_rejections.jsonl`
    there, which the report names."""
    from .schema import atomic_write_text, save_jsonl

    spec = next((s for s in STAGES if s.name == stage), None)
    if spec is None:
        raise ValueError(f"unknown stage {stage!r}")
    try:
        report = _run_reader(cfg, spec) if spec.reader else spec.run(cfg)
        code = EXIT_OK
    except Exception as exc:  # say, an output the file system refuses, or a library's ValueError
        code, message = _failure(exc)
        report = {"error": message}
        if isinstance(exc, ValidationFailure) and exc.rejections is not None:
            path = cfg.out_dir / f"{stage.replace('-', '_')}_rejections.jsonl"
            save_jsonl(exc.rejections, path)
            report.update(error=f"{message}; see {path}", rejection_report=str(path))
    report.update(stage=stage, exit_code=code)
    atomic_write_text(cfg.out_dir / spec.report, _dump_report(report))
    return code, report


def _hash_path(path: Path) -> str:
    """sha256 of a file, or of a directory's relative names and contents;
    within a run each path is hashed once until a stage rewrites it."""
    digest = _digests.get(path)
    if digest is None:
        digest = _digests[path] = _sha256(path)
    return digest


def _sha256(path: Path) -> str:
    import hashlib

    digest = hashlib.sha256()
    files = [path]
    if path.is_dir():
        files = sorted(p for p in path.rglob("*") if p.is_file())
    for file_path in files:
        if file_path != path:
            digest.update(os.fsencode(file_path.relative_to(path).as_posix()))  # a name's bytes, UTF-8 or not
        with open(file_path, "rb") as f:  # 64 KiB at a time, so no whole file is held
            while chunk := f.read(1 << 16):
                digest.update(chunk)
    return digest.hexdigest()


def _outputs(stage: Stage, cfg: PipelineConfig) -> list[Path]:
    return [cfg.out_dir / name for name in (*stage.outputs(cfg), stage.report)]


def _record(stage: Stage, cfg: PipelineConfig) -> list[list[str]]:
    """`stage`'s state entry (see the module docstring): a list, not a dict
    by name, as two inputs may share a file name."""
    # An input that cannot be looked up counts as missing: _require_input then exits 2.
    inputs = [path for path in stage.inputs(cfg) if path is not None and os.path.exists(path)]
    paths = [cfg.config_path, *inputs, *(path for path in _outputs(stage, cfg) if path.exists())]
    return [[path.name, _hash_path(path)] for path in paths]


def _read_state(path: Path) -> tuple[bytes, dict]:
    """The state file's bytes and its entries by stage: none where it is
    missing, undecodable (say, truncated, nested past the recursion limit,
    or holding NaN, Infinity or a number past the float range, which the
    rewritten file could not hold as standard JSON) or not a JSON object."""
    import json

    try:
        recorded = path.read_bytes()
    except FileNotFoundError:
        return b"", {}
    try:
        state = json.loads(recorded.decode("utf-8"), parse_constant=finite, parse_float=finite)
    except (ValueError, RecursionError):
        return recorded, {}
    return recorded, state if isinstance(state, dict) else {}


def _write_state(path: Path, state: dict, state_bytes: bytes) -> None:
    """Write the state file, unless `state_bytes`, read at the start of the
    run, are already what it would hold."""
    text = _dump_report(state)
    if text.encode("utf-8") != state_bytes:
        from .schema import atomic_write_text

        atomic_write_text(path, text)


def _detached_stages(cfg: PipelineConfig) -> list[Stage]:
    """The stages that read no other stage's output and whose outputs no
    other stage reads."""
    # A stage reads another's output where one of its inputs is that output
    # or a directory above it; every output lies directly in out_dir.
    above = {cfg.out_dir, *cfg.out_dir.parents}
    written = {s.name: {*above, *_outputs(s, cfg)} for s in STAGES}
    inputs = {s.name: s.inputs(cfg) for s in STAGES}

    def reads(reader: Stage, writer: Stage) -> bool:
        return not written[writer.name].isdisjoint(inputs[reader.name])

    return [s for s in STAGES if not any(reads(s, o) or reads(o, s) for o in STAGES if o is not s)]


def _fork(body: Callable[[Callable[[Any], None]], None]) -> tuple[int, int] | None:
    """Fork a child that runs `body(send)`, where `send` marshals a value down a pipe, sends an
    Exception escaping `body` as `_failure`, and then exits; the child never returns. Returns its pid
    and the pipe's read end, for `_reap`, or None where this process cannot fork safely, so that it
    does the work itself: a child forked while other threads run may deadlock on a lock one of them held."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return None
    # The worker's stages and this process's state write after _reap both use
    # the record layer: imported once here, it is not imported on each side.
    from . import schema  # noqa: F401
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid:
        os.close(write_fd)
        return pid, read_fd
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as pipe:
            try:
                body(lambda value: marshal.dump(value, pipe))
            except Exception as exc:
                marshal.dump(_failure(exc), pipe)
    finally:
        os._exit(0)


def _reap(child: tuple[int, int]) -> list:
    """Every value `child` sent, once it has exited."""
    pid, read_fd = child
    sent = []
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            while True:
                sent.append(marshal.load(pipe))
    except (EOFError, ValueError):
        pass  # the child closed the pipe, or died mid-write
    finally:
        os.waitpid(pid, 0)
    return sent


def _run_stages(stages: Iterable[Stage], cfg: PipelineConfig, plan: Callable[[Stage], bool],
                send: Callable[[Any], None]) -> None:
    """Run each of `stages` that `plan` runs, in order, up to the first failure, and `send` each one's
    outcome: (name, exit code, error, whether `run_stage` raised it). This process and the worker run
    their stages here; a reader stage that does not run drops what an earlier pass fed it."""
    for stage in stages:
        if not plan(stage):
            speculative = _readers.pop(stage.name, None)
            if speculative is not None:  # fed by an earlier pass, but its inputs are unchanged
                speculative.discard()
            continue
        try:
            code, report = run_stage(stage.name, cfg)
            error, raised = report.get("error", "unknown error"), False
        except Exception as exc:  # its report or rejections refused
            (code, error), raised = _failure(exc), True
        send((stage.name, code, error, raised))
        if code != EXIT_OK:
            break


def run_pipeline(cfg: PipelineConfig, echo: Callable[[str], None] = print) -> int:
    """Run every stage in dependency order, skipping each one whose outputs
    all exist and whose state entry equals its `_record`. The detached
    stages run in one forked worker alongside the others; lines, state and
    the exit code still follow stage order, up to the first failing stage,
    whose exit code is returned. The state file is rewritten only when its
    bytes change."""
    global _in_run
    state_path = cfg.out_dir / ".forge_state.json"
    state_bytes, state = _read_state(state_path)

    @cache  # each stage is decided once
    def plan(stage: Stage) -> bool:
        outputs = _outputs(stage, cfg)
        if all(path.exists() for path in outputs) and state.get(stage.name) == _record(stage, cfg):
            return False
        # The stage rewrites its outputs; they are hashed only once written.
        for path in outputs:
            _digests.pop(path, None)
        return True

    _in_run = True
    collecting = gc.isenabled()  # off for the run (see the module docstring)
    gc.disable()
    try:
        # No stage writes what a detached stage reads, so it is decided now,
        # and those to run are forked off before this process loads anything.
        forked = [stage for stage in _detached_stages(cfg) if plan(stage)]
        worker = _fork(lambda send: _run_stages(forked, cfg, plan, send)) if forked else None
        ended: list[tuple] = []  # each stage's outcome, as _run_stages sends it
        try:
            _run_stages([stage for stage in STAGES if worker is None or stage not in forked], cfg, plan, ended.append)
        finally:
            if worker is not None:
                ended += _reap(worker)
        outcomes = {name: outcome for name, *outcome in ended}  # a `_failure` from `_fork` names no stage

        for stage in STAGES:
            if not plan(stage):
                echo(f"[skip] {stage.name}: inputs unchanged")
                continue
            code, error, raised = outcomes.get(stage.name, (EXIT_INTERNAL, "worker process ended before the stage did",
                                                            False))
            if code != EXIT_OK:
                if not raised:
                    echo(f"[fail] {stage.name}: {error} (exit {code})")
                state.pop(stage.name, None)
                _write_state(state_path, state, state_bytes)
                if raised:
                    raise _error(code, error)
                return code
            state[stage.name] = _record(stage, cfg)
            echo(f"[ok]   {stage.name}")
        _write_state(state_path, state, state_bytes)
        return EXIT_OK
    finally:
        _in_run = False
        if collecting:
            gc.enable()
        _digests.clear()
        _handoff.clear()
        for reader in _readers.values():
            reader.discard()
        _readers.clear()


# ---------------------------------------------------------------------------
# Entry point


def _summarize(report: dict) -> str:
    if "combined" in report:  # stats counts its instances by origin and combined
        report = report["combined"]
    keys = [k for k in ("built", "sanitized", "emitted", "selected", "labeled", "instances") if k in report]
    parts = [f"{k}={report[k]}" for k in keys]
    if "valid_rate" in report and report["valid_rate"] is not None:
        parts.append(f"valid_rate={report['valid_rate']:.2f}")
    return " ".join(parts)


def main(argv: Sequence[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="forge",
        description="Build SWE task instances, curate trajectories, and run best-of-K selection.",
    )
    parser.add_argument(
        "stage",
        choices=[*(s.name for s in STAGES), "pipeline", "export-history"],
        help="pipeline stage to run ('pipeline' runs all stages in order)",
    )
    parser.add_argument("--config", help="path to the key-value config file")
    parser.add_argument("--repo", help="repository path (export-history only)")
    parser.add_argument("--out", help="output file (export-history only)")
    args = parser.parse_args(argv)

    if args.stage == "export-history" and not (args.repo and args.out):
        parser.error("export-history requires --repo and --out")
    if args.stage != "export-history" and not args.config:
        parser.error("--config is required")
    # An OSError here is a report, the state file or an export's --out that
    # cannot be read or written, or a git that cannot be run.
    try:
        if args.stage == "export-history":
            from . import repo_sanitizer
            from .schema import save_jsonl

            blocker = next((p for p in Path(args.out).parents if p.exists() and not p.is_dir()), None)
            if blocker is not None:
                raise ForgeError(f"cannot write --out {args.out}: {blocker} is not a directory")
            records = repo_sanitizer.export_history(_require_input(Path(args.repo), "repo", directory=True))
            save_jsonl([r.to_record() for r in records], args.out)
            print(f"exported {len(records)} commits to {args.out}")
            return EXIT_OK
        cfg = load_config(args.config)
        if args.stage == "pipeline":
            return run_pipeline(cfg)
        code, report = run_stage(args.stage, cfg)
    except (ForgeError, OSError) as exc:
        code, message = _failure(exc)
        print(f"error: {message}", file=sys.stderr)
        return code
    if code == EXIT_OK:
        print(f"[ok]   {args.stage} {_summarize(report)}".rstrip())
    else:
        print(f"[fail] {args.stage}: {report.get('error', '')} (exit {code})", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
