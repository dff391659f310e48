"""lego-forge benchmark: `python3 bench/run.py --workload W --seed N --seconds S --trace 0|1`.

Run from the root of a source checkout. The benchmark generates a seeded
corpus (bench/corpus.py) under `.bench_work/`, drives the program from
outside, checks every output against the generator's reference, prints every
metric by name with its unit, and ends with one JSON line:
`{"correct", "attempted", "failed", "metrics"}`.

Each workload is a closed loop of cycles with one client: it starts the
next invocation only after the previous one exits, and the config leaves
`workers` at its default. A cycle is one cold `forge pipeline` into an empty
`out_dir`, then R re-runs over the completed tree. On `rerun` the re-runs
interleave no-change runs with one-line edits to `rollouts` or `histories`
and their reverts; on the cold workloads they are no-change runs. The number
of cycles is set by `--seconds` (see NOMINAL_CYCLE_S).

`--trace 0` launches `python -m lego_forge.cli pipeline` in a fresh child
process per invocation and reports the end-to-end metrics:

  pipeline_s     median wall time of the cold pipelines
  rerun_p50_s    median wall time of the re-runs
  rerun_tail_s   highest percentile of the re-runs with ten samples beyond it
  peak_rss_mb    median peak RSS of the cold pipeline children (wait4)
  setup_s        median fresh-process time to import lego_forge.cli and
                 run load_config, over repeated launches

`--trace 1` runs the same cycles in-process through `lego_forge.cli.main`,
alternating untraced cycles with cycles traced by bench/tracing.py, and
reports the per-layer metrics (per cycle) plus the tracing overhead.

Every invocation counts towards `attempted`; one that exits non-zero, misses
a stage output, disagrees with the reference outcome counts or failure
labels, or produces an output tree that differs from an earlier run over the
same inputs counts as `failed`. error_rate = failed / attempted.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # keep bench/ free of build output

import corpus  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Re-runs per cycle, and whether they interleave input edits. On the cold
# workloads the re-runs are no-change runs, so their timing is unimodal; on
# `rerun` a third are edits and a third are reverts.
RERUNS_PER_CYCLE = {"curate-heavy": 3, "build-heavy": 3, "rerun": 9}
EDITS = {"curate-heavy": False, "build-heavy": False, "rerun": True}
# Wall time of one untraced cycle at the commit that defined the benchmark
# (2 CPUs, Python 3.11). The cycle count comes from --seconds and this
# figure, not from a clock, so every run of a workload takes the same number
# of samples and its percentiles compare like with like between commits.
NOMINAL_CYCLE_S = {"curate-heavy": 4.5, "build-heavy": 4.5, "rerun": 5.0}
MIN_COLD = 3
TAIL_BEYOND = 10
SETUP_PER_CYCLE = 2  # fresh-process set-up launches, spread over the run
INVOCATION_TIMEOUT_S = 60

STAGES = (
    "build-tasks", "inject", "sanitize", "curate", "mask", "curriculum",
    "classify-errors", "tts-select", "stats",
)

# Every file a complete pipeline run leaves in out_dir.
OUTPUTS = (
    "instances_real.jsonl", "instances_synth.jsonl", "sanitized_histories.jsonl",
    "curated.jsonl", "curation_report.json", "samples.jsonl", "mask_drops.jsonl",
    "stage1.jsonl", "stage2.jsonl", "stage3.jsonl", "correlation_report.json",
    "failures.jsonl", "distribution.json", "selection.jsonl", "tts_metrics.json",
    "allocation.json", "corpus_stats.json", "build_tasks_report.json", "inject_report.json",
    "sanitize_report.json", "mask_report.json", "curriculum_report.json",
    "classify_errors_report.json", "tts_select_report.json",
)

END_TO_END = (
    ("pipeline_s", "s"),
    ("rerun_p50_s", "s"),
    ("rerun_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


# ---------------------------------------------------------------------------
# Output checks


@dataclass
class Checker:
    """Checks each invocation's output tree; counts attempts and failures."""

    ref: corpus.Reference
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    trees: dict[str, dict[str, str]] = field(default_factory=dict)
    referenced: set[str] = field(default_factory=set)

    def record(self, code: int, inputs_state: str, cold: bool) -> None:
        self.attempted += 1
        problem = self._problem(code, inputs_state, cold)
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)

    def record_launch(self, code: int, what: str) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{what} exited {code}")

    def _problem(self, code: int, inputs_state: str, cold: bool) -> str | None:
        out = self.ref.out_dir
        if code != 0:
            return f"invocation {self.attempted}: forge pipeline exited {code} ({inputs_state})"
        missing = [name for name in OUTPUTS if not (out / name).is_file()]
        if missing:
            return f"missing outputs: {', '.join(missing)}"
        tree = tree_digests(out)
        expected = self.trees.setdefault(inputs_state, tree)
        if tree != expected:
            changed = sorted(k for k in tree.keys() | expected.keys() if tree.get(k) != expected.get(k))
            return (f"invocation {self.attempted}: output tree differs from an earlier run over the same inputs "
                    f"({inputs_state}): {', '.join(changed)}")
        if cold or inputs_state not in self.referenced:
            self.referenced.add(inputs_state)
            return self._reference_problem(out)
        return None

    def _reference_problem(self, out: Path) -> str | None:
        counts = json.loads((out / "curation_report.json").read_text(encoding="utf-8"))["counts"]
        if counts != self.ref.outcome_counts:
            return f"curate outcome counts {counts} != reference {self.ref.outcome_counts}"
        labels = {}
        with (out / "failures.jsonl").open(encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                labels[record["trajectory_id"]] = record["label"]
        if labels != self.ref.failure_labels:
            wrong = sum(1 for k, v in self.ref.failure_labels.items() if labels.get(k) != v)
            return f"{wrong} failure labels differ from the reference"
        return None


def tree_digests(root: Path) -> dict[str, str]:
    """Content hash of every file under `root`, keyed by relative path."""
    digests = {}
    for path in root.rglob("*"):
        if path.is_file():
            with path.open("rb") as handle:
                digests[path.relative_to(root).as_posix()] = hashlib.file_digest(handle, "sha256").hexdigest()
    return digests


# ---------------------------------------------------------------------------
# Input edits for re-runs


class Edits:
    """One-line edits to `rollouts` and `histories`, each followed by its
    revert, interleaved with no-change re-runs: none, edit, revert, ..."""

    def __init__(self, corpus_dir: Path, seed: int):
        self.files = [corpus_dir / "rollouts.jsonl", corpus_dir / "histories.jsonl"]
        # Originals are kept on disk, beside the corpus, to keep this process small.
        self.originals = [corpus_dir.parent / f"{f.name}.orig" for f in self.files]
        for path, original in zip(self.files, self.originals):
            shutil.copyfile(path, original)
        self.seed = seed
        self.step = 0
        self.target = 0

    def reset(self) -> None:
        """Restore both files, so the next cold pipeline sees the base inputs."""
        for path, original in zip(self.files, self.originals):
            shutil.copyfile(original, path)
        self.step = 0

    def next_state(self) -> str:
        """Apply the next input change (if any); return a name for the input state."""
        phase = self.step % 3
        self.step += 1
        if phase == 1:
            path = self.files[self.target]
            lines = self.originals[self.target].read_text(encoding="utf-8").splitlines(keepends=True)
            which = self.seed % len(lines)
            record = json.loads(lines[which])
            if "commits" in record:
                record["commits"][0]["message"] += " (amended)"
            else:
                record["trajectory_summary"] += " (amended)"
            lines[which] = json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n"
            path.write_text("".join(lines), encoding="utf-8")
            return f"edited-{path.stem}"
        if phase == 2:
            shutil.copyfile(self.originals[self.target], self.files[self.target])
            self.target = 1 - self.target
        return "base"


def generate_corpus(root: Path, workload: str, seed: int) -> corpus.Reference:
    """Generate in a child process, so this process stays small: a child's
    peak RSS as wait4 reports it includes the parent pages it forked from."""
    argv = [sys.executable, "-B", str(Path(corpus.__file__).resolve()), str(root), workload, str(seed)]
    done = subprocess.run(argv, check=True, capture_output=True, text=True)
    return corpus.Reference.from_json(done.stdout)


def cycle_count(workload: str, seconds: float) -> int:
    """Cycles per run: about `seconds` of work, with at least MIN_COLD cold
    pipelines and more than TAIL_BEYOND re-runs."""
    reruns = RERUNS_PER_CYCLE[workload]
    return max(MIN_COLD, TAIL_BEYOND // reruns + 1, round(seconds / NOMINAL_CYCLE_S[workload]))


# ---------------------------------------------------------------------------
# Child processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def launch(argv: list[str], cwd: Path, log: Path) -> tuple[float, float, int]:
    """Run one child to completion; return (wall s, peak RSS MB, exit code)."""
    with log.open("wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


def forge_argv(config: Path) -> list[str]:
    return [sys.executable, "-m", "lego_forge.cli", "pipeline", "--config", str(config)]


SETUP_CODE = "import sys\nfrom lego_forge.cli import load_config\nload_config(sys.argv[1])\n"


def untraced_run(workload: str, seconds: float, ref: corpus.Reference, seed: int, work: Path):
    checker = Checker(ref)
    edits = Edits(ref.config.parent, seed) if EDITS[workload] else None
    reruns = RERUNS_PER_CYCLE[workload]
    cold, rss, rerun, setup = [], [], [], []
    log = work / "forge.log"
    setup_argv = [sys.executable, "-c", SETUP_CODE, str(ref.config)]
    launch(setup_argv, work, log)  # warm the bytecode cache; not timed
    started = perf_counter()
    for _ in range(cycle_count(workload, seconds)):
        for _ in range(SETUP_PER_CYCLE):
            elapsed, _, code = launch(setup_argv, work, log)
            checker.record_launch(code, "setup launch")
            setup.append(elapsed)
        if edits:
            edits.reset()
        shutil.rmtree(ref.out_dir, ignore_errors=True)
        elapsed, peak, code = launch(forge_argv(ref.config), ref.config.parent, log)
        checker.record(code, "base", cold=True)
        cold.append(elapsed)
        rss.append(peak)
        for _ in range(reruns):
            state = edits.next_state() if edits else "base"
            elapsed, _, code = launch(forge_argv(ref.config), ref.config.parent, log)
            checker.record(code, state, cold=False)
            rerun.append(elapsed)
    ordered = sorted(rerun)
    metrics = {
        "pipeline_s": statistics.median(cold),
        "rerun_p50_s": statistics.median(rerun),
        "rerun_tail_s": ordered[len(ordered) - 1 - TAIL_BEYOND],
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }
    tail_pct = 100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered)
    notes = [
        f"samples: {len(cold)} cold pipelines, {len(rerun)} re-runs, {len(setup)} setup launches; "
        f"cycles took {perf_counter() - started:.1f} s",
        f"rerun_tail_s is p{tail_pct:.0f} of {len(ordered)} re-runs ({TAIL_BEYOND} samples beyond it)",
    ]
    units = dict(END_TO_END)
    return checker, {k: (v, units[k]) for k, v in metrics.items()}, notes


# ---------------------------------------------------------------------------
# Traced in-process run


def per_layer_catalogue() -> list[tuple[str, str, str]]:
    """Every per-layer metric: (name, unit, better)."""
    s, count, lower, higher = "s", "count", "lower", "higher"
    out = [(f"cli.stage.{stage}.s", s, lower) for stage in STAGES]
    out += [("cli.fingerprint.s", s, lower), ("cli.stages_run", count, lower),
            ("cli.stages_skipped", count, higher)]
    timed = {
        "schema": ("load_corpus", "Trajectory.from_record", "TaskInstance.from_record",
                   "validate_trajectory", "validate_instance", "load_jsonl", "save_corpus",
                   "save_jsonl", "atomic_write_text", "decode"),
        "trajectory_curation": ("repair_tool_call", "prune_toolset", "classify_outcome", "rollout_stats"),
        "sft_masking": ("assign_phases", "detect_step_errors", "build_loss_mask", "serialize_sample"),
        "repo_sanitizer": ("detect_git_hacking", "sanitize_real_history", "sanitize_synthetic_history"),
        "patch_analysis": ("parse_patch", "invert_patch", "patch_stats", "line_overlap"),
        "task_builder": ("build_real_instance", "build_synthetic_instance"),
        "curriculum": ("select_for_training", "build_stages", "turn_resolve_correlation"),
        "error_taxonomy": ("explain_failure", "failure_distribution"),
        "tts": ("score", "select_top1", "tts_at_k", "allocate"),
        "registries": ("load_hack_patterns", "load_error_patterns", "load_phase_patterns"),
    }
    for layer, names in timed.items():
        out += [(f"{layer}.{name}.s", s, lower) for name in names]
    counted = (
        ("schema.load_corpus.calls", lower), ("schema.load_corpus.records", lower),
        ("schema.load_corpus.rejections", lower), ("schema.Trajectory.from_record.calls", lower),
        ("schema.TaskInstance.from_record.calls", lower), ("schema.load_jsonl.bytes", lower),
        ("schema.atomic_write_text.calls", lower), ("schema.atomic_write_text.bytes", lower),
        ("trajectory_curation.repair_tool_call.calls", lower),
        ("trajectory_curation.repair_tool_call.repaired", higher),
        ("trajectory_curation.classify_outcome.calls", lower),
        ("sft_masking.build_loss_mask.calls", lower),
        ("repo_sanitizer.detect_git_hacking.calls", lower),
        ("repo_sanitizer.sanitize_real_history.commits_in", lower),
        ("repo_sanitizer.sanitize_real_history.commits_retained", higher),
        ("patch_analysis.parse_patch.calls", lower), ("patch_analysis.parse_patch.distinct", lower),
        ("patch_analysis.apply_patch.calls", lower),
        ("task_builder.build_real_instance.calls", lower),
        ("task_builder.build_synthetic_instance.calls", lower),
        ("task_builder.skipped", lower), ("task_builder.invisible", lower),
        ("error_taxonomy.explain_failure.calls", lower), ("tts.score.calls", lower),
        ("registries.load_hack_patterns.calls", lower), ("registries.load_error_patterns.calls", lower),
        ("registries.load_phase_patterns.calls", lower),
    )
    out += [(name, "bytes" if name.endswith(".bytes") else count, better) for name, better in counted]
    out.append(("sft_masking.emitted_per_selected", "ratio", higher))
    out += [(f"{layer}.self_s", s, lower) for layer in tracing.LAYERS]
    out += [("trace.pipeline_s", s, lower), ("trace.untraced_pipeline_s", s, lower),
            ("trace.overhead_s", s, lower), ("trace.coverage", "ratio", higher)]
    return out


def _stem(metric: str) -> str:
    """The WRAPPED stem a metric is derived from (for absent-function checks)."""
    for _, _, stem, _, _ in tracing.WRAPPED:
        if metric.startswith(stem + "."):
            return stem
    if metric.startswith("cli.stage") or metric == "cli.stages_run":
        return "cli.stage"
    if metric == "cli.fingerprint.s":
        return "cli.run_pipeline"
    if metric == "schema.decode.s":
        return "schema.load_corpus"
    if metric.startswith("sft_masking.emitted"):
        return "sft_masking.serialize_sample"
    if metric.startswith("task_builder."):
        return "task_builder.build_real_instance"
    return ""


def traced_run(workload: str, seconds: float, ref: corpus.Reference, seed: int):
    sys.path.insert(0, str(SRC))
    from lego_forge import cli

    checker = Checker(ref)
    edits = Edits(ref.config.parent, seed) if EDITS[workload] else None
    reruns = RERUNS_PER_CYCLE[workload]
    argv = ["pipeline", "--config", str(ref.config)]
    tracer = tracing.Tracer()
    cold_times = {False: [], True: []}
    main_wall = 0.0
    skipped = 0
    traced_cycles = 0

    def invoke(traced: bool) -> tuple[int, float, str]:
        buffer = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(buffer):
            if traced:
                with tracer.span("cli.main"):
                    code = cli.main(argv)
            else:
                code = cli.main(argv)
        return code, perf_counter() - start, buffer.getvalue()

    traced = False
    for _ in range(max(2, cycle_count(workload, seconds))):
        if traced:
            tracer.install()
        try:
            if edits:
                edits.reset()
            shutil.rmtree(ref.out_dir, ignore_errors=True)
            code, elapsed, out = invoke(traced)
            checker.record(code, "base", cold=True)
            cold_times[traced].append(elapsed)
            walls = [elapsed]
            outputs = [out]
            for _ in range(reruns):
                state = edits.next_state() if edits else "base"
                code, elapsed, out = invoke(traced)
                checker.record(code, state, cold=False)
                walls.append(elapsed)
                outputs.append(out)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_cycles += 1
            main_wall += sum(walls)
            skipped += sum(line.startswith("[skip]") for text in outputs for line in text.splitlines())
        traced = not traced

    raw = tracer.summary()
    metrics: dict[str, tuple[float, str]] = {}
    absent = []
    for name, unit, _ in per_layer_catalogue():
        if name.startswith("trace."):
            continue
        stem = _stem(name)
        if stem in tracer.absent:
            absent.append(name)
            continue
        if name == "cli.stages_run":
            value = raw.get("cli.stage.calls", 0)
        elif name == "cli.stages_skipped":
            value = skipped
        elif name == "sft_masking.emitted_per_selected":
            attempts = raw.get("sft_masking.build_loss_mask.calls", 0)
            value = raw.get("sft_masking.emitted", 0) / attempts if attempts else 0.0
            metrics[name] = (value, unit)
            continue
        elif name == "patch_analysis.parse_patch.distinct":  # a set over all cycles
            metrics[name] = (raw.get(name, 0), unit)
            continue
        else:
            value = raw.get(name, 0)
        metrics[name] = (value / traced_cycles, unit)
    traced_s = statistics.median(cold_times[True])
    untraced_s = statistics.median(cold_times[False])
    # Each traced cycle follows an untraced one; pairing them keeps slow drift
    # in machine speed out of the overhead estimate.
    overhead = statistics.median(t - u for u, t in zip(cold_times[False], cold_times[True]))
    covered = raw.get("cli.fingerprint.s", 0.0) + sum(
        v for k, v in raw.items() if k.startswith("cli.stage.") and k.endswith(".s")
    )
    metrics["trace.pipeline_s"] = (traced_s, "s")
    metrics["trace.untraced_pipeline_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.coverage"] = (covered / main_wall, "ratio")
    notes = [
        f"cycles: {traced_cycles} traced, {len(cold_times[False])} untraced; "
        f"{reruns} re-runs per cycle; per-layer values are per cycle",
        f"tracing overhead (median of paired traced - untraced cold pipelines): {overhead:+.4f} s "
        f"on a {untraced_s:.4f} s cold pipeline ({100.0 * overhead / untraced_s:+.1f}%)",
        f"stage spans + cli.fingerprint.s cover {100.0 * covered / main_wall:.1f}% of traced cli.main wall time",
    ]
    if absent:
        notes.append(f"absent (function no longer in the program): {', '.join(absent)}")
    return checker, metrics, notes


# ---------------------------------------------------------------------------
# Entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lego_forge" / "cli.py").is_file():
        print(f"error: no lego_forge sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit, so children are stopped and the work
    # directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ref = generate_corpus(work / "corpus", args.workload, args.seed)
        if args.trace:
            checker, metrics, notes = traced_run(args.workload, args.seconds, ref, args.seed)
        else:
            checker, metrics, notes = untraced_run(args.workload, args.seconds, ref, args.seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(f"# lego-forge benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={os.cpu_count()} python={platform.python_version()}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    error_rate = checker.failed / checker.attempted
    print(f"{'error_rate':<{width}}  {error_rate:.6g} share ({checker.failed} of {checker.attempted} invocations)")
    for note in notes:
        print(f"# {note}")
    for problem in checker.problems:
        print(f"# FAILED CHECK: {problem}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
