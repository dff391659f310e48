"""Pipeline orchestration: `forge <stage> --config <path>`.

Stages run over corpora on disk, write their outputs atomically (temp file
plus rename, so an interrupted stage leaves nothing partial), and are
deterministic: identical inputs produce byte-identical outputs. The
`pipeline` command runs every configured stage in dependency order and
skips stages whose recorded input content hashes are unchanged. Within one
`pipeline` run every corpus (instances and curated records) is read once
per content and passed to later stages in memory, and each file is hashed
once per content; a single-stage run (`forge mask`) reads and hashes from
disk. A stage's modules are imported only when the stage runs, so a re-run
that skips every stage loads only the config, schema, registry and
curriculum code. The stages that share no file with the rest (read no
other stage's output, and no stage reads theirs) run in one forked worker
process alongside the others; stdout, state and the exit code stay in
stage order, up to the first failing stage.

Exit codes: 0 success, 1 internal error, 2 missing input, 3 validation
failure (a rejection report is written next to the stage outputs). Every
JSON Lines input is read by `schema.load_jsonl`, so a malformed line is a
rejection, except in `real_inputs`, where it is skipped with its reason.

The config file is a plain `key = value` text file; paths resolve relative
to the config file's directory. A value of the wrong type or out of range
fails at load with exit 1 and `path:line`. Keys:

  out_dir            output directory (default: out)
  repo, base_commit  repository identity for the inject stage
  real_inputs        JSONL of PR fixtures for build-tasks
  snapshot_dir       clean repository snapshot for inject
  mutations          JSONL of mutation specs (+ buggy/restored reports)
  histories          JSONL of exported commit histories for sanitize
  trajectories       JSONL of rollout trajectories for curate
  final_reports      JSONL of final-state test reports for curate
  instances          optional extra instance corpus (pre-built)
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
  hack_patterns, error_patterns, phase_patterns   registry overrides
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import os
import sys
import threading
from collections import Counter
from dataclasses import dataclass, fields, replace as dc_replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NoReturn, Sequence, TypeVar

from . import curriculum as curriculum_mod
from .errors import ForgeError
from .registries import load_error_patterns, load_hack_patterns, load_phase_patterns
from .schema import (
    DEFAULT_MAX_TURNS,
    RecordRejected,
    Rejection,
    Step,
    TaskInstance,
    TestReport,
    ToolCall,
    Trajectory,
    atomic_write_text,
    load_corpus,
    load_jsonl,
    parse_timestamp,
    require,
    save_corpus,
    save_jsonl,
    validate_trajectory,
)

if TYPE_CHECKING:
    from . import task_builder, tts

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_MISSING_INPUT = 2
EXIT_VALIDATION = 3

T = TypeVar("T")


class MissingInputError(ForgeError):
    pass


class ValidationFailure(ForgeError):
    def __init__(self, message: str, rejection_path: Path | None = None):
        self.rejection_path = rejection_path
        super().__init__(message)


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
    easy_upper: int = curriculum_mod.EASY_UPPER
    medium_upper: int = curriculum_mod.MEDIUM_UPPER
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

    def bins(self) -> tuple[curriculum_mod.DifficultyBin, ...]:
        return curriculum_mod.default_bins(self.max_turns, self.easy_upper, self.medium_upper)

    def latency_model(self) -> tts.LatencyModel:
        from . import tts

        return tts.LatencyModel(c=self.latency_c, alpha=self.latency_alpha, beta=self.latency_beta)

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
    """Raise ValueError for a value a stage would refuse mid-run. The latency
    model checks its own ranges, so only a config that sets one of its keys
    imports tts."""
    if key in ("latency_budget", "bucket_width") and value is not None and not value > 0:
        raise ValueError("must be positive")
    if key in ("latency_c", "latency_alpha", "latency_beta"):
        from . import tts

        tts.LatencyModel(**{key.removeprefix("latency_"): value})


def load_config(path: str | Path) -> PipelineConfig:
    """Parse the key-value config file and validate the invariants that can
    be checked at load time (value types and ranges, bin partition, registry
    files, enums)."""
    config_path = Path(path).resolve()
    try:
        text = config_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise MissingInputError(f"cannot read config {config_path}: {exc}") from exc
    base_dir = config_path.parent
    values: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ForgeError(f"{config_path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEY_TYPES:
            raise ForgeError(f"{config_path}:{line_no}: unknown key {key!r}")
        try:
            values[key] = _parse_value(_KEY_TYPES[key], value.strip(), base_dir)
            _check_range(key, values[key])
        except ValueError as exc:
            raise ForgeError(f"{config_path}:{line_no}: bad value for {key!r}: {exc}") from None
    cfg = PipelineConfig(config_path=config_path, **values)
    cfg.out_dir = (base_dir / cfg.out_dir).resolve()
    if not 0 < cfg.easy_upper < cfg.medium_upper < cfg.max_turns:
        raise ForgeError(
            "bin boundaries must satisfy 0 < easy_upper < medium_upper < max_turns"
        )
    if cfg.verifier not in ("stub", "oracle"):
        raise ForgeError(f"unknown verifier {cfg.verifier!r}")
    for key in ("hack_patterns", "error_patterns", "phase_patterns"):
        registry = getattr(cfg, key)
        if registry is not None and not registry.exists():
            raise MissingInputError(f"registry file {registry} does not exist")
    # Compile the registries now so bad patterns fail at load, not mid-stage.
    load_hack_patterns(cfg.hack_patterns)
    load_error_patterns(cfg.error_patterns)
    load_phase_patterns(cfg.phase_patterns)
    return cfg


# ---------------------------------------------------------------------------
# Helpers


def _dump_report(report: dict) -> str:
    return json.dumps(report, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def _require_input(path: Path | None, what: str) -> Path:
    if path is None:
        raise MissingInputError(f"config does not set {what}")
    if not path.exists():
        raise MissingInputError(f"{what} {path} does not exist")
    return path


def _reject(cfg: PipelineConfig, stage: str, entries: list[dict], what: str) -> NoReturn:
    """Fail `stage` with exit 3: write `entries` as its rejection report."""
    path = cfg.out_dir / f"{stage.replace('-', '_')}_rejections.jsonl"
    save_jsonl(entries, path)
    raise ValidationFailure(f"{what}; see {path}", rejection_path=path)


def _fail_on_rejections(
    cfg: PipelineConfig, stage: str, source: Path, rejections: Sequence[Rejection]
) -> None:
    if not rejections:
        return
    entries = [
        {
            "file": str(source),
            "line_no": r.line_no,
            "codes": list(r.codes),
            "message": r.message,
        }
        for r in rejections
    ]
    _reject(cfg, stage, entries, f"{source}: {len(rejections)} rejected line(s)")


# Per-run state of run_pipeline, emptied when the run ends: the sha256 of
# each path hashed so far, and the records of each corpus read or written,
# keyed by (path, sha256 of the file). Outside a run nothing is kept.
_in_run = False
_digests: dict[Path, str] = {}
_handoff: dict[tuple[Path, str], list] = {}


def _hand_off(path: Path, records: list[Trajectory]) -> None:
    """Within a run, pass the trajectories just written to `path` to the
    later stages that read it, if reloading them would return the same
    records, that is, if every record is valid."""
    if _in_run and not any(validate_trajectory(t) for t in records):
        _handoff[(path, _hash_path(path))] = records


def _corpus(cfg: PipelineConfig, stage: str, path: Path, kind: str) -> list:
    """The records of corpus `path`, loaded once per content within a run;
    a load with rejections fails `stage` and is never kept."""
    key = (path, _hash_path(path)) if _in_run else None
    records = _handoff.get(key)
    if records is None:
        result = load_corpus(path, kind)
        _fail_on_rejections(cfg, stage, path, result.rejections)
        records = result.records
        if key is not None:
            _handoff[key] = records
    return records


def _load_records(cfg: PipelineConfig, stage: str, path: Path, parse: Callable[[dict], T]) -> list[T]:
    """A stage input read by load_jsonl; any rejection fails `stage` with a rejection report."""
    result = load_jsonl(path, parse)
    _fail_on_rejections(cfg, stage, path, result.rejections)
    return result.records


def _instance_sources(cfg: PipelineConfig) -> list[Path]:
    sources = [cfg.out_dir / "instances_real.jsonl", cfg.out_dir / "instances_synth.jsonl"]
    if cfg.instances is not None:
        sources.append(cfg.instances)
    return sources


def _load_instances_union(cfg: PipelineConfig, stage: str) -> dict[str, TaskInstance]:
    existing = [p for p in _instance_sources(cfg) if p.exists()]
    if not existing:
        raise MissingInputError(
            "no instance corpus found (run build-tasks/inject or set `instances`)"
        )
    by_id: dict[str, TaskInstance] = {}
    for source in existing:
        for inst in _corpus(cfg, stage, source, "instances"):
            by_id.setdefault(inst.instance_id, inst)
    return by_id


def _read_snapshot(snapshot_dir: Path) -> dict[str, str]:
    snapshot: dict[str, str] = {}
    for file_path in sorted(snapshot_dir.rglob("*")):
        if not file_path.is_file():
            continue
        rel = file_path.relative_to(snapshot_dir).as_posix()
        try:
            snapshot[rel] = file_path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue  # binary assets play no part in mutation
    return snapshot


# ---------------------------------------------------------------------------
# Stages


def _stage_build_tasks(cfg: PipelineConfig) -> dict:
    source = _require_input(cfg.real_inputs, "real_inputs")
    result = load_jsonl(source, _real_instance)
    save_corpus(result.records, cfg.out_dir / "instances_real.jsonl")
    skipped = [{"record": r.line_no - 1, "reason": r.message} for r in result.rejections]
    return {"stage": "build-tasks", "built": len(result.records), "skipped": skipped}


def _real_instance(record: dict) -> TaskInstance:
    """One real_inputs line: a merged PR with its pre/post test reports,
    built into an instance."""
    from . import patch_analysis, task_builder

    for key in ("repo", "base_commit", "merged_diff", "issue_text", "issue_created_at"):
        require(record, key, str)
    parse_timestamp(record["issue_created_at"])
    pre, post = _reports(record, "pre_report", "post_report")
    try:
        return task_builder.build_real_instance(record, pre, post)
    except (task_builder.InvisibleBugError, patch_analysis.PatchParseError) as exc:
        raise ValueError(str(exc)) from None


def _reports(record: dict, *keys: str) -> tuple[TestReport, ...]:
    return tuple(TestReport.from_record(require(record, key, dict)) for key in keys)


def _stage_inject(cfg: PipelineConfig) -> dict:
    from . import patch_analysis, task_builder

    snapshot_dir = _require_input(cfg.snapshot_dir, "snapshot_dir")
    mutations_path = _require_input(cfg.mutations, "mutations")
    if not cfg.repo or not cfg.base_commit:
        raise MissingInputError("inject needs `repo` and `base_commit` in the config")
    mutations = _load_records(cfg, "inject", mutations_path, lambda r: _mutation(r, cfg.seed))
    snapshot = _read_snapshot(snapshot_dir)
    statements = task_builder.TemplateStatementProvider()
    provider = task_builder.PythonAstProvider()  # parses each snapshot file once
    instances: list[TaskInstance] = []
    invisible: list[dict] = []
    bad_specs: list[dict] = []
    for idx, (spec, reports) in enumerate(mutations):
        try:
            instances.append(
                task_builder.build_synthetic_instance(
                    snapshot,
                    spec,
                    reports,
                    statements,
                    repo=cfg.repo,
                    base_commit=cfg.base_commit,
                    provider=provider,
                )
            )
        except task_builder.InvisibleBugError as exc:
            invisible.append({"record": idx, "reason": str(exc)})
        except (task_builder.LocatorError, task_builder.MutatorKindError, task_builder.MutationError,
                patch_analysis.PatchParseError, ValueError) as exc:
            bad_specs.append({"record": idx, "reason": str(exc)})
    if bad_specs:
        _reject(cfg, "inject", bad_specs, f"{len(bad_specs)} mutation spec(s) could not be applied")
    save_corpus(instances, cfg.out_dir / "instances_synth.jsonl")
    return {"stage": "inject", "built": len(instances), "invisible_bugs": invisible}


_LOCATOR_FIELDS = {"path": str, "start_line": int, "start_col": int, "end_line": int, "end_col": int}


def _mutation(
    record: dict, default_seed: int
) -> tuple[task_builder.MutationSpec, tuple[TestReport, TestReport]]:
    """One mutations line: the spec and its (buggy, restored) test reports."""
    from . import task_builder

    mutator = require(record, "mutator", str)
    if mutator not in task_builder.MUTATORS:
        raise ValueError(f"unknown mutator {mutator!r}")
    target = record.get("target") or None
    if target is not None:
        if not isinstance(target, dict) or not all(
            isinstance(target.get(key), kind) for key, kind in _LOCATOR_FIELDS.items()
        ):
            raise ValueError(f"field 'target' must be an object with {', '.join(_LOCATOR_FIELDS)}")
        target = task_builder.NodeLocator(**{key: target[key] for key in _LOCATOR_FIELDS})
    seed, path = record.get("seed", default_seed), record.get("path")
    if not isinstance(seed, int) or not isinstance(path, (str, type(None))):
        raise ValueError("field 'seed' must be an integer and 'path' a string")
    spec = task_builder.MutationSpec(mutator=mutator, target=target, seed=seed, path=path)
    return spec, _reports(record, "buggy_report", "restored_report")


def _stage_sanitize(cfg: PipelineConfig) -> dict:
    source = _require_input(cfg.histories, "histories")
    lines = _load_records(cfg, "sanitize", source, _sanitized_history)
    sanitized = [line for line in lines if "reason" not in line]
    dropped = [line for line in lines if "reason" in line]
    save_jsonl(sanitized, cfg.out_dir / "sanitized_histories.jsonl")
    return {"stage": "sanitize", "sanitized": len(sanitized), "dropped": dropped}


def _sanitized_history(record: dict) -> dict:
    """One histories line, checked and sanitized as it is read, so only one
    history's commits are alive at a time: the output line, or
    `{instance_id, reason}` when a cutoff keeps no commit."""
    from . import repo_sanitizer

    policy = require(record, "policy", str)
    anchor = {"cutoff": "cutoff", "single_snapshot": "snapshot_id"}.get(policy)
    if anchor is None:
        raise ValueError(f"unknown history policy {policy!r}")
    instance_id = require(record, "instance_id", str)
    require(record, anchor, str)
    commits = []
    for commit in require(record, "commits", list):
        if not (isinstance(commit, dict) and isinstance(commit.get("commit_id"), str)
                and isinstance(commit.get("author_date"), str) and isinstance(commit.get("message"), str)
                and isinstance(commit.get("parent_ids"), list)
                and all(isinstance(parent, str) for parent in commit["parent_ids"])):
            raise ValueError("every commit needs string commit_id, author_date, message and list parent_ids")
        commits.append(repo_sanitizer.CommitRecord.from_record(commit))
    try:
        if policy == "cutoff":
            clean = repo_sanitizer.sanitize_real_history(commits, record["cutoff"])
        else:
            clean = repo_sanitizer.sanitize_synthetic_history(commits, record["snapshot_id"])
    except repo_sanitizer.EmptyHistoryError as exc:
        return {"instance_id": instance_id, "reason": str(exc)}
    return {"instance_id": instance_id, "policy": policy, "commits": [c.to_record() for c in clean]}


def _stage_curate(cfg: PipelineConfig) -> dict:
    from . import repo_sanitizer, sft_masking, trajectory_curation

    traj_path = _require_input(cfg.trajectories, "trajectories")
    reports_path = _require_input(cfg.final_reports, "final_reports")
    instances = _load_instances_union(cfg, "curate")
    trajectories = _corpus(cfg, "curate", traj_path, "trajectories")
    reports_by_tid = dict(_load_records(cfg, "curate", reports_path, _final_report))
    hack_patterns = load_hack_patterns(cfg.hack_patterns)
    error_patterns = load_error_patterns(cfg.error_patterns)
    phase_rules = load_phase_patterns(cfg.phase_patterns)

    curated: list[Trajectory] = []
    unrepairable: list[dict] = []
    notes: list[dict] = []
    repaired_calls = 0
    hack_invalidated = 0
    for traj in trajectories:
        # One pass per trajectory: prune, repair, phase and error-flag each
        # step, building it once (the same as prune_toolset, assign_phases
        # and detect_step_errors over the repaired steps).
        steps: list[Step] = []
        for step in traj.steps:
            action = step.action
            if not trajectory_curation.kept_by_toolset(action):
                continue
            if isinstance(action, ToolCall):
                try:
                    action, repaired = trajectory_curation.repair_tool_call(action)
                    if repaired:
                        repaired_calls += 1
                except trajectory_curation.UnrepairableCallError as exc:
                    unrepairable.append(
                        {"trajectory_id": traj.trajectory_id, "step": step.index, "reason": str(exc)}
                    )
            steps.append(Step(
                index=len(steps),
                action=action,
                observation=step.observation,
                phase=sft_masking.step_phase(action, phase_rules),
                error_flag=sft_masking.has_execution_error(step.observation, error_patterns),
            ))
        work = dc_replace(traj, steps=tuple(steps), turn_count=len(steps))
        findings = repo_sanitizer.detect_git_hacking(work, hack_patterns)

        inst = instances.get(work.instance_id)
        final = reports_by_tid.get(work.trajectory_id)
        if inst is None or final is None:
            outcome = "unclassified"
            notes.append({
                "trajectory_id": work.trajectory_id,
                "reason": "missing instance" if inst is None else "missing final report",
            })
        else:
            outcome = trajectory_curation.classify_outcome(
                work, inst, final, hack_findings=findings
            )
            if outcome == "unresolved" and repo_sanitizer.has_high_finding(findings) and all(
                final.results.get(t) == "pass" for t in (*inst.fail_to_pass, *inst.pass_to_pass)
            ):
                hack_invalidated += 1
        curated.append(dc_replace(work, outcome=outcome))

    curated_path = _curated_path(cfg)
    save_corpus(curated, curated_path)
    _hand_off(curated_path, curated)
    stats = trajectory_curation.rollout_stats(
        curated,
        recycle_semi_resolved=cfg.recycle_semi_resolved,
        repaired_calls=repaired_calls,
        hack_invalidated=hack_invalidated,
    )
    report = stats.to_record()
    report["stage"] = "curate"
    report["unrepairable_calls"] = unrepairable
    report["notes"] = notes
    return report


def _final_report(record: dict) -> tuple[str, TestReport]:
    """One final_reports line: `{trajectory_id, code_state, results}`."""
    return require(record, "trajectory_id", str), TestReport.from_record(record)


def _curated_path(cfg: PipelineConfig) -> Path:
    return cfg.out_dir / "curated.jsonl"


def _curated(cfg: PipelineConfig, stage: str) -> list[Trajectory]:
    path = _require_input(_curated_path(cfg), "curated corpus (run the curate stage first)")
    return _corpus(cfg, stage, path, "trajectories")


def _stage_mask(cfg: PipelineConfig) -> dict:
    from . import sft_masking

    selected = curriculum_mod.select_for_training(
        _curated(cfg, "mask"), recycle_semi_resolved=cfg.recycle_semi_resolved
    )

    samples: list[dict] = []
    drops: list[dict] = []
    for traj in selected:
        try:
            sample = sft_masking.build_loss_mask(traj)
        except sft_masking.EmptySampleError as exc:
            drops.append({"trajectory_id": traj.trajectory_id, "reason": f"empty: {exc}"})
            continue
        emitted = sft_masking.serialize_sample(sample, cfg.context_limit)
        if isinstance(emitted, sft_masking.Overflow):
            drops.append({
                "trajectory_id": emitted.trajectory_id,
                "reason": "overflow",
                "token_estimate": emitted.token_estimate,
                "context_limit": emitted.context_limit,
            })
        elif not any(seg["in_loss"] for seg in emitted["rendered"]):
            drops.append({"trajectory_id": traj.trajectory_id, "reason": "fully_masked"})
        else:
            samples.append(emitted)
    save_jsonl(samples, cfg.out_dir / "samples.jsonl")
    save_jsonl(drops, cfg.out_dir / "mask_drops.jsonl")
    return {
        "stage": "mask",
        "emitted": len(samples),
        "dropped": len(drops),
        "context_limit": cfg.context_limit,
    }


def _stage_curriculum(cfg: PipelineConfig) -> dict:
    curated = _curated(cfg, "curriculum")
    selected = curriculum_mod.select_for_training(
        curated, recycle_semi_resolved=cfg.recycle_semi_resolved
    )
    plan = curriculum_mod.build_stages(selected, cfg.bins())
    by_id = {t.trajectory_id: t for t in selected}
    for stage_no, stage_ids in enumerate(plan.stages, start=1):
        save_corpus([by_id[tid] for tid in stage_ids], cfg.out_dir / f"stage{stage_no}.jsonl")

    records = [(t.turn_count, t.outcome == "resolved") for t in curated]
    try:
        corr = curriculum_mod.turn_resolve_correlation(records, cfg.bucket_width)
        corr_report = {
            "r": round(corr.r, 6),
            "n": corr.n,
            "bucket_width": cfg.bucket_width,
            "bins": [[mid, rate] for mid, rate in corr.bins],
        }
    except curriculum_mod.UndefinedCorrelationError as exc:
        corr_report = {"r": None, "n": len(records), "error": str(exc)}
    atomic_write_text(cfg.out_dir / "correlation_report.json", _dump_report(corr_report))
    return {
        "stage": "curriculum",
        "selected": len(selected),
        "stage_sizes": [len(s) for s in plan.stages],
    }


def _stage_classify_errors(cfg: PipelineConfig) -> dict:
    from . import error_taxonomy

    curated = _curated(cfg, "classify-errors")
    instances = _load_instances_union(cfg, "classify-errors")
    failed = [t for t in curated if t.outcome in ("unresolved", "error", "empty_patch")]

    failures: list[dict] = []
    skipped: list[dict] = []
    labels_by_tag: dict[str, list[str]] = {}
    for traj in failed:
        inst = instances.get(traj.instance_id)
        if inst is None:
            skipped.append({"trajectory_id": traj.trajectory_id, "reason": "missing instance"})
            continue
        evidence = error_taxonomy.explain_failure(traj, inst)
        label = evidence.pop("label")
        failures.append({"trajectory_id": traj.trajectory_id, "label": label, "evidence": evidence})
        labels_by_tag.setdefault(str(traj.extra.get("checkpoint", "all")), []).append(label)
    save_jsonl(failures, cfg.out_dir / "failures.jsonl")
    distribution = {
        tag: error_taxonomy.failure_distribution(labels)
        for tag, labels in sorted(labels_by_tag.items())
    }
    atomic_write_text(cfg.out_dir / "distribution.json", _dump_report(distribution))
    return {
        "stage": "classify-errors",
        "failed": len(failed),
        "labeled": len(failures),
        "skipped": skipped,
    }


def _stage_tts_select(cfg: PipelineConfig) -> dict:
    from . import tts

    rollouts_path = _require_input(cfg.rollouts, "rollouts")
    by_index: dict[str, dict[int, tts.Candidate]] = {}

    def rollout(record: dict) -> None:
        candidate = tts.Candidate.from_record(record)
        seen = by_index.setdefault(candidate.instance_id, {})
        if candidate.rollout_index in seen:
            raise RecordRejected(
                ("DUPLICATE_ROLLOUT_INDEX",),
                f"instance {candidate.instance_id!r} repeats rollout_index {candidate.rollout_index}",
            )
        seen[candidate.rollout_index] = candidate

    _load_records(cfg, "tts-select", rollouts_path, rollout)
    source = str(rollouts_path)
    if not by_index:
        _reject(cfg, "tts-select", [{
            "file": source, "line_no": None, "instance_id": None,
            "codes": ["EMPTY_ROLLOUTS"], "message": "rollouts file holds no candidates",
        }], f"{source}: no candidates")
    sizes = Counter(len(seen) for seen in by_index.values())
    if len(sizes) > 1:
        k = sizes.most_common(1)[0][0]
        _reject(cfg, "tts-select", [
            {"file": source, "line_no": None, "instance_id": iid, "codes": ["RAGGED_ROLLOUTS"],
             "message": f"{len(seen)} candidate(s) where most instances have {k}"}
            for iid, seen in by_index.items() if len(seen) != k
        ], f"{source}: ragged candidate counts per instance: {sorted(sizes)}")
    grouped = {iid: [seen[i] for i in sorted(seen)] for iid, seen in by_index.items()}
    verifier = tts.StubVerifier(cfg.seed) if cfg.verifier == "stub" else tts.OracleVerifier()

    instance_ids = sorted(grouped)
    scored = [[verifier.score(c) for c in grouped[iid]] for iid in instance_ids]
    selection_lines = []
    pairs = []
    for instance_id, scores in zip(instance_ids, scored):
        candidates = grouped[instance_id]
        chosen = tts.select_top1(candidates, scores)
        chosen_score = scores[candidates.index(chosen)]
        selection_lines.append(
            {
                "instance_id": instance_id,
                "selected_rollout_index": chosen.rollout_index,
                "score": chosen_score.score,
                "provenance": chosen_score.provenance,
                "resolved": chosen.resolved,
            }
        )
        pairs.append((candidates, scores))
    metrics = tts.tts_at_k(pairs)
    k = len(pairs[0][0])
    metrics_report = {
        "k": k,
        "instances": len(pairs),
        "tts": metrics["tts"],
        "pass": metrics["pass"],
        "verifier": cfg.verifier,
    }

    report = {"stage": "tts-select", "instances": len(pairs), "k": k}
    # A bad surface fails the stage before it writes any output.
    if cfg.allocates():
        surface_path = _require_input(cfg.surface, "surface")
        surface = dict(_load_records(cfg, "tts-select", surface_path, _surface_point))
        try:
            plan, contour = tts.allocate(cfg.latency_model(), cfg.latency_budget, surface)
        except tts.InfeasibleBudgetError as exc:
            raise ValidationFailure(str(exc)) from exc
        allocation_report = {
            "budget": cfg.latency_budget,
            "plan": {
                "turns": plan.turns,
                "rollouts": plan.rollouts,
                "predicted_latency": plan.predicted_latency,
                "predicted_rate": plan.predicted_rate,
            },
            "contour": [[t, k_cont] for t, k_cont in contour],
        }
        atomic_write_text(cfg.out_dir / "allocation.json", _dump_report(allocation_report))
        report["allocation"] = allocation_report["plan"]
    save_jsonl(selection_lines, cfg.out_dir / "selection.jsonl")
    atomic_write_text(cfg.out_dir / "tts_metrics.json", _dump_report(metrics_report))
    return report


def _surface_point(record: dict) -> tuple[tuple[int, int], float]:
    """One surface line: ((turns, rollouts), rate); `T` and `K` alias the
    first two."""
    try:
        point = int(record.get("turns", record.get("T"))), int(record.get("rollouts", record.get("K")))
        rate = float(record.get("rate"))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"turns, rollouts and rate must be numbers: {exc}") from None
    if min(point) < 1:
        raise ValueError("turns and rollouts must be at least 1")
    return point, rate


def _stage_stats(cfg: PipelineConfig) -> dict:
    from . import patch_analysis

    everyone = list(_load_instances_union(cfg, "stats").values())
    golden_stats = {
        i.instance_id: patch_analysis.patch_stats(patch_analysis.parse_patch(i.golden_patch))
        for i in everyone
    }

    def aggregate(group: list[TaskInstance]) -> dict:
        if not group:
            return {"instances": 0}
        n = len(group)
        means = patch_analysis.mean_patch_stats([golden_stats[i.instance_id] for i in group])
        return {
            "instances": n,
            "issue_words": sum(len(i.problem_statement.split()) for i in group) / n,
            "golden_patch": means,
            "tests": {
                "fail_to_pass": sum(len(i.fail_to_pass) for i in group) / n,
                "pass_to_pass": sum(len(i.pass_to_pass) for i in group) / n,
                "total": sum(len(i.fail_to_pass) + len(i.pass_to_pass) for i in group) / n,
            },
        }

    report = {
        "stage": "stats",
        "conventions": {
            "lines": "added + removed (a modified line counts twice)",
            "renames": "counted in files, not hunks or lines",
        },
        "real": aggregate([i for i in everyone if i.origin == "real"]),
        "synthetic": aggregate([i for i in everyone if i.origin == "synthetic"]),
        "combined": aggregate(everyone),
    }
    return report


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: `inputs` are the paths whose content decides a
    re-run; `outputs` are the file names it writes in out_dir besides its
    `report`."""

    name: str
    run: Callable[[PipelineConfig], dict]
    inputs: Callable[[PipelineConfig], list[Path | None]]
    outputs: Callable[[PipelineConfig], list[str]]
    report: str


# Dependency order: `pipeline` runs these top to bottom.
STAGES = (
    Stage("build-tasks", _stage_build_tasks, lambda cfg: [cfg.real_inputs],
          lambda cfg: ["instances_real.jsonl"], "build_tasks_report.json"),
    Stage("inject", _stage_inject, lambda cfg: [cfg.snapshot_dir, cfg.mutations],
          lambda cfg: ["instances_synth.jsonl"], "inject_report.json"),
    Stage("sanitize", _stage_sanitize, lambda cfg: [cfg.histories],
          lambda cfg: ["sanitized_histories.jsonl"], "sanitize_report.json"),
    Stage("curate", _stage_curate,
          lambda cfg: [cfg.trajectories, cfg.final_reports, *_instance_sources(cfg)],
          lambda cfg: ["curated.jsonl"], "curation_report.json"),
    Stage("mask", _stage_mask, lambda cfg: [_curated_path(cfg)],
          lambda cfg: ["samples.jsonl", "mask_drops.jsonl"], "mask_report.json"),
    Stage("curriculum", _stage_curriculum, lambda cfg: [_curated_path(cfg)],
          lambda cfg: [*(f"stage{n}.jsonl" for n in range(1, len(cfg.bins()) + 1)),
                       "correlation_report.json"],
          "curriculum_report.json"),
    Stage("classify-errors", _stage_classify_errors,
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
    """Run one stage; returns (exit_code, report). The report is also
    written to the stage's report file in out_dir."""
    spec = next((s for s in STAGES if s.name == stage), None)
    if spec is None:
        raise ValueError(f"unknown stage {stage!r}")
    try:
        report = spec.run(cfg)
        code = EXIT_OK
    except MissingInputError as exc:
        report = {"stage": stage, "error": str(exc)}
        code = EXIT_MISSING_INPUT
    except ValidationFailure as exc:
        report = {"stage": stage, "error": str(exc)}
        if exc.rejection_path is not None:
            report["rejection_report"] = str(exc.rejection_path)
        code = EXIT_VALIDATION
    except ForgeError as exc:
        report = {"stage": stage, "error": str(exc)}
        code = EXIT_INTERNAL
    report["exit_code"] = code
    atomic_write_text(cfg.out_dir / spec.report, _dump_report(report))
    return code, report


def _hash_path(path: Path) -> str:
    """sha256 of a file, or of a directory's relative names and contents;
    within a run each path is hashed once until a stage rewrites it."""
    digest = _digests.get(path)
    if digest is None:
        digest = _sha256(path)
        if _in_run:
            _digests[path] = digest
    return digest


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    if path.is_dir():
        for file_path in sorted(path.rglob("*")):
            if file_path.is_file():
                digest.update(file_path.relative_to(path).as_posix().encode())
                digest.update(file_path.read_bytes())
    else:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _input_fingerprint(stage: Stage, cfg: PipelineConfig) -> str:
    digest = hashlib.sha256()
    digest.update(stage.name.encode())
    digest.update(cfg.config_path.read_bytes())
    for path in stage.inputs(cfg):
        if path is not None and path.exists():
            digest.update(path.name.encode())
            digest.update(_hash_path(path).encode())
    return digest.hexdigest()


def _read_state(path: Path) -> dict:
    """The recorded fingerprints; a missing or undecodable (say, truncated)
    state file counts as empty, so every stage re-runs."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        return {}


def _detached_stages(cfg: PipelineConfig) -> list[Stage]:
    """The stages that read no other stage's output and whose outputs no
    other stage reads."""
    written = {s.name: [cfg.out_dir / name for name in (*s.outputs(cfg), s.report)] for s in STAGES}

    def reads(reader: Stage, writer: Stage) -> bool:
        return any(path == out or path in out.parents
                   for path in reader.inputs(cfg) if path is not None for out in written[writer.name])

    return [s for s in STAGES if not any(reads(s, o) or reads(o, s) for o in STAGES if o is not s)]


def _fork_worker(stages: list[Stage], cfg: PipelineConfig) -> tuple[int, int] | None:
    """Fork a child that runs `stages` in order up to the first failure and
    marshals (name, exit code, error) for each down a pipe; the child never
    returns. Returns its pid and the pipe's read end, or None where this
    process cannot fork safely, so that it runs the stages itself: a child
    forked while other threads run may deadlock on a lock one of them held."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return None
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
            for stage in stages:
                try:
                    code, report = run_stage(stage.name, cfg)
                    error = report.get("error", "unknown error")
                except Exception as exc:
                    code, error = EXIT_INTERNAL, str(exc)
                marshal.dump((stage.name, code, error), pipe)
                if code != EXIT_OK:
                    break
    finally:
        os._exit(0)


def _reap(pid: int, read_fd: int) -> dict[str, tuple[int, str]]:
    """The worker's (exit code, error) by stage, once it has exited."""
    results = {}
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            while True:
                name, code, error = marshal.load(pipe)
                results[name] = (code, error)
    except (EOFError, ValueError):
        pass  # the worker closed the pipe, or died mid-write
    finally:
        os.waitpid(pid, 0)
    return results


def run_pipeline(cfg: PipelineConfig, echo: Callable[[str], None] = print) -> int:
    """Run every stage in dependency order, skipping stages whose input
    content hashes match the recorded state and whose outputs are intact.
    The detached stages run in one forked worker alongside the others;
    lines, state and the exit code still follow stage order, up to the
    first failing stage, whose exit code is returned."""
    global _in_run
    state_path = cfg.out_dir / ".forge_state.json"
    state = _read_state(state_path)
    # Per stage decided so far: (input fingerprint, outputs) to run it, or None to skip it.
    plans: dict[str, tuple[str, list[Path]] | None] = {}

    def plan(stage: Stage) -> tuple[str, list[Path]] | None:
        fingerprint = _input_fingerprint(stage, cfg)
        recorded = state.get(stage.name, {})
        outputs = [cfg.out_dir / name for name in (*stage.outputs(cfg), stage.report)]
        intact = all(path.exists() for path in outputs) and all(
            recorded.get("outputs", {}).get(path.name) == _hash_path(path) for path in outputs
        )
        if recorded.get("inputs") == fingerprint and intact:
            return None
        # The stage rewrites its outputs; they are hashed only once written.
        for path in outputs:
            _digests.pop(path, None)
        return fingerprint, outputs

    _in_run = True
    try:
        # No stage writes what a detached stage reads, so it is decided now,
        # and those to run are forked off before this process loads anything.
        for stage in _detached_stages(cfg):
            plans[stage.name] = plan(stage)
        forked = [stage for stage in STAGES if plans.get(stage.name)]
        worker = _fork_worker(forked, cfg) if forked else None
        results: dict[str, tuple[int, str]] = {}
        try:
            for n, stage in enumerate(STAGES):
                if worker is not None and stage in forked:
                    continue
                # Keep a hand-off only while a stage still to come reads its path.
                wanted = {path for later in STAGES[n:] for path in later.inputs(cfg)}
                for key in [key for key in _handoff if key[0] not in wanted]:
                    del _handoff[key]
                if stage.name not in plans:
                    plans[stage.name] = plan(stage)
                if plans[stage.name] is None:
                    continue
                code, report = run_stage(stage.name, cfg)
                results[stage.name] = (code, report.get("error", "unknown error"))
                if code != EXIT_OK:
                    break
        finally:
            if worker is not None:
                results.update(_reap(*worker))

        for stage in STAGES:
            planned = plans[stage.name]
            if planned is None:
                echo(f"[skip] {stage.name}: inputs unchanged")
                continue
            code, error = results.get(stage.name, (EXIT_INTERNAL, "worker process ended before the stage did"))
            if code != EXIT_OK:
                echo(f"[fail] {stage.name}: {error} (exit {code})")
                state.pop(stage.name, None)
                atomic_write_text(state_path, _dump_report(state))
                return code
            fingerprint, outputs = planned
            state[stage.name] = {
                "inputs": fingerprint,
                "outputs": {path.name: _hash_path(path) for path in outputs if path.exists()},
            }
            echo(f"[ok]   {stage.name}")
        atomic_write_text(state_path, _dump_report(state))
        return EXIT_OK
    finally:
        _in_run = False
        _digests.clear()
        _handoff.clear()


# ---------------------------------------------------------------------------
# Entry point


def _summarize(report: dict) -> str:
    keys = [k for k in ("built", "sanitized", "emitted", "selected", "labeled", "instances") if k in report]
    parts = [f"{k}={report[k]}" for k in keys]
    if "valid_rate" in report and report["valid_rate"] is not None:
        parts.append(f"valid_rate={report['valid_rate']:.2f}")
    return " ".join(parts)


def main(argv: Sequence[str] | None = None) -> int:
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
    parser.add_argument("--seed", type=int, help="override RNG seed (wildcard mutations, stub verifier)")
    parser.add_argument("--repo", help="repository path (export-history only)")
    parser.add_argument("--out", help="output file (export-history only)")
    args = parser.parse_args(argv)

    if args.stage == "export-history":
        if not args.repo or not args.out:
            parser.error("export-history requires --repo and --out")
        from . import repo_sanitizer

        try:
            records = repo_sanitizer.export_history(args.repo)
        except ForgeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        save_jsonl([r.to_record() for r in records], args.out)
        print(f"exported {len(records)} commits to {args.out}")
        return EXIT_OK

    if not args.config:
        parser.error("--config is required")
    try:
        cfg = load_config(args.config)
    except MissingInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except ForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.seed is not None:
        cfg = dc_replace(cfg, seed=args.seed)

    if args.stage == "pipeline":
        return run_pipeline(cfg)

    code, report = run_stage(args.stage, cfg)
    if code == EXIT_OK:
        print(f"[ok]   {args.stage} {_summarize(report)}".rstrip())
    else:
        print(f"[fail] {args.stage}: {report.get('error', '')} (exit {code})", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
