"""Span tracing around lego-forge's public functions, for the per-layer run.

`Tracer.install()` wraps every function in `WRAPPED` wherever a caller looks
it up: the defining module's attribute, every other `lego_forge` module that
imported the name, and module-level tables that hold the function object
(such as a kind-to-validator dict). `uninstall()` restores the originals.
Wrapping is per record or per call of a public function, never per `Step`,
so the overhead stays small; the benchmark reports it.

Each call records a span (name, start, end, parent) in memory; counts are
taken at the same boundaries. A function that a later version of the program
deletes or renames is recorded as absent, and its metrics are left out
instead of failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

# ---------------------------------------------------------------------------
# Count hooks: (counts, name, args, kwargs, result) -> None


def _corpus_counts(counts, name, args, kwargs, result):
    counts[f"{name}.records"] += len(result.records)
    counts[f"{name}.rejections"] += len(result.rejections)


def _bytes_read(counts, name, args, kwargs, result):
    counts[f"{name}.bytes"] += os.path.getsize(args[0])


def _bytes_written(counts, name, args, kwargs, result):
    counts[f"{name}.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _repaired(counts, name, args, kwargs, result):
    counts[f"{name}.repaired"] += bool(result[1])


def _commits(counts, name, args, kwargs, result):
    counts[f"{name}.commits_in"] += len(args[0])
    counts[f"{name}.commits_retained"] += len(result)


def _emitted(counts, name, args, kwargs, result):
    counts["sft_masking.emitted"] += isinstance(result, dict)


def _build_failed(counts, name, exc):
    if type(exc).__name__ == "InvisibleBugError":
        counts["task_builder.invisible"] += 1
    else:
        counts["task_builder.skipped"] += 1


# (layer, attribute path in lego_forge.<layer>, metric stem, result hook, error hook)
WRAPPED = (
    ("cli", "run_pipeline", "cli.run_pipeline", None, None),
    ("cli", "run_stage", "cli.stage", None, None),
    ("schema", "load_corpus", "schema.load_corpus", _corpus_counts, None),
    ("schema", "Trajectory.from_record", "schema.Trajectory.from_record", None, None),
    ("schema", "TaskInstance.from_record", "schema.TaskInstance.from_record", None, None),
    ("schema", "validate_trajectory", "schema.validate_trajectory", None, None),
    ("schema", "validate_instance", "schema.validate_instance", None, None),
    ("schema", "load_jsonl", "schema.load_jsonl", _bytes_read, None),
    ("schema", "save_corpus", "schema.save_corpus", None, None),
    ("schema", "save_jsonl", "schema.save_jsonl", None, None),
    ("schema", "atomic_write_text", "schema.atomic_write_text", _bytes_written, None),
    ("trajectory_curation", "repair_tool_call", "trajectory_curation.repair_tool_call", _repaired, None),
    ("trajectory_curation", "prune_toolset", "trajectory_curation.prune_toolset", None, None),
    ("trajectory_curation", "classify_outcome", "trajectory_curation.classify_outcome", None, None),
    ("trajectory_curation", "rollout_stats", "trajectory_curation.rollout_stats", None, None),
    ("sft_masking", "assign_phases", "sft_masking.assign_phases", None, None),
    ("sft_masking", "detect_step_errors", "sft_masking.detect_step_errors", None, None),
    ("sft_masking", "build_loss_mask", "sft_masking.build_loss_mask", None, None),
    ("sft_masking", "serialize_sample", "sft_masking.serialize_sample", _emitted, None),
    ("repo_sanitizer", "detect_git_hacking", "repo_sanitizer.detect_git_hacking", None, None),
    ("repo_sanitizer", "sanitize_real_history", "repo_sanitizer.sanitize_real_history", _commits, None),
    ("repo_sanitizer", "sanitize_synthetic_history", "repo_sanitizer.sanitize_synthetic_history", None, None),
    ("patch_analysis", "parse_patch", "patch_analysis.parse_patch", None, None),
    ("patch_analysis", "apply_patch", "patch_analysis.apply_patch", None, None),
    ("patch_analysis", "invert_patch", "patch_analysis.invert_patch", None, None),
    ("patch_analysis", "patch_stats", "patch_analysis.patch_stats", None, None),
    ("patch_analysis", "line_overlap", "patch_analysis.line_overlap", None, None),
    ("task_builder", "build_real_instance", "task_builder.build_real_instance", None, _build_failed),
    ("task_builder", "build_synthetic_instance", "task_builder.build_synthetic_instance", None, _build_failed),
    ("curriculum", "select_for_training", "curriculum.select_for_training", None, None),
    ("curriculum", "build_stages", "curriculum.build_stages", None, None),
    ("curriculum", "turn_resolve_correlation", "curriculum.turn_resolve_correlation", None, None),
    ("error_taxonomy", "explain_failure", "error_taxonomy.explain_failure", None, None),
    ("error_taxonomy", "failure_distribution", "error_taxonomy.failure_distribution", None, None),
    ("tts", "StubVerifier.score", "tts.score", None, None),
    ("tts", "OracleVerifier.score", "tts.score", None, None),
    ("tts", "select_top1", "tts.select_top1", None, None),
    ("tts", "tts_at_k", "tts.tts_at_k", None, None),
    ("tts", "allocate", "tts.allocate", None, None),
    ("registries", "load_hack_patterns", "registries.load_hack_patterns", None, None),
    ("registries", "load_error_patterns", "registries.load_error_patterns", None, None),
    ("registries", "load_phase_patterns", "registries.load_phase_patterns", None, None),
)

LAYERS = (
    "cli", "schema", "trajectory_curation", "sft_masking", "repo_sanitizer", "patch_analysis",
    "task_builder", "curriculum", "error_taxonomy", "tts", "registries",
)


class Tracer:
    """Records spans and counts for wrapped lego_forge functions."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.distinct_patches: set[int] = set()
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._undo: list = []

    # -- spans

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(idx, name, start)

    def _enter(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, self._stack[-1] if self._stack else -1)

    def _wrap(self, fn, stem, on_result, on_error):
        tracer = self
        per_stage = stem == "cli.stage"
        patches = stem == "patch_analysis.parse_patch"

        def wrapper(*args, **kwargs):
            name = f"cli.stage.{args[0]}" if per_stage else stem
            idx = tracer._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(idx, name, start)
                tracer.counts[f"{stem}.calls"] += 1
                if on_error is not None:
                    on_error(tracer.counts, stem, exc)
                raise
            tracer._exit(idx, name, start)
            tracer.counts[f"{stem}.calls"] += 1
            if patches:
                tracer.distinct_patches.add(hash(args[0]))
            if on_result is not None:
                on_result(tracer.counts, stem, args, kwargs, result)
            return result

        return wrapper

    # -- patching

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "lego_forge" or n.startswith("lego_forge.")]
        for layer, attr, stem, on_result, on_error in WRAPPED:
            try:
                module = importlib.import_module(f"lego_forge.{layer}")
            except ImportError:
                self.absent.add(stem)
                continue
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(leaf) if owner is not None else None
            if raw is None:
                self.absent.add(stem)
                continue
            if owner_name:  # a method or classmethod on a class
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(raw.__func__, stem, on_result, on_error))
                else:
                    replacement = self._wrap(raw, stem, on_result, on_error)
                setattr(owner, leaf, replacement)
                self._undo.append((owner, leaf, raw))
                continue
            wrapper = self._wrap(raw, stem, on_result, on_error)
            for mod in modules:
                self._rebind(mod, raw, wrapper)

    def _rebind(self, mod, original, wrapper) -> None:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                self._undo.append((mod, key, original))
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = wrapper
                        self._undo.append((value, dkey, dvalue))
                    elif isinstance(dvalue, tuple) and any(v is original for v in dvalue):
                        value[dkey] = tuple(wrapper if v is original else v for v in dvalue)
                        self._undo.append((value, dkey, dvalue))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    # -- derived metrics

    def summary(self) -> dict[str, float]:
        """Inclusive busy time per stem, self time per layer and the derived
        cli/schema figures, plus every count."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy = defaultdict(float)
        layer_self = defaultdict(float)
        stage_in_pipeline = 0.0
        pipeline = 0.0
        decode = 0.0
        for idx, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            own = duration - child[idx]
            busy[name] += duration
            layer_self[name.split(".", 1)[0]] += own
            if name == "cli.run_pipeline":
                pipeline += duration
            elif name.startswith("cli.stage.") and parent >= 0 and self.spans[parent][0] == "cli.run_pipeline":
                stage_in_pipeline += duration
            elif name == "schema.load_corpus":
                decode += own
        out: dict[str, float] = {}
        for name, value in busy.items():
            out[f"{name}.s"] = value
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        if "cli.run_pipeline" not in self.absent:
            out["cli.fingerprint.s"] = pipeline - stage_in_pipeline
        if "schema.load_corpus" not in self.absent:
            out["schema.decode.s"] = decode
        out.update(self.counts)
        if "patch_analysis.parse_patch" not in self.absent:
            out["patch_analysis.parse_patch.distinct"] = len(self.distinct_patches)
        return out
