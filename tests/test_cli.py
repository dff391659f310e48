import ast
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lego_forge import cli
from lego_forge.cli import (
    EXIT_MISSING_INPUT,
    EXIT_OK,
    EXIT_VALIDATION,
    load_config,
    run_pipeline,
    run_stage,
)
from lego_forge.errors import ForgeError
from lego_forge.registries import load_error_patterns, load_phase_patterns
from lego_forge import patch_analysis, task_builder
from lego_forge import schema as schema_mod
from lego_forge.schema import TaskInstance, ToolCall, Trajectory, load_corpus
from lego_forge.sft_masking import assign_phases, detect_step_errors
from lego_forge.trajectory_curation import UnrepairableCallError, prune_toolset, repair_tool_call

from conftest import build_integration_corpus, read_jsonl


def read(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# Config


def test_config_defaults_and_paths(corpus):
    cfg = load_config(corpus)
    assert cfg.out_dir == corpus.parent / "out"
    assert cfg.max_turns == 100
    assert cfg.context_limit == 128000
    assert cfg.trajectories == corpus.parent / "trajectories.jsonl"
    assert cfg.verifier == "oracle"


def test_config_rejects_bad_bins(tmp_path):
    bad = tmp_path / "forge.cfg"
    bad.write_text("easy_upper = 80\nmedium_upper = 70\n", encoding="utf-8")
    with pytest.raises(ForgeError):
        load_config(bad)


def test_config_rejects_unknown_key(tmp_path):
    # Unknown keys, values that do not parse as the key's type and values
    # a stage would refuse are all rejected with the file and line, never
    # as a bare ValueError.
    bad = tmp_path / "forge.cfg"
    for line in ("not_a_key = 1", "max_turns = abc", "latency_c = fast",
                 "recycle_semi_resolved = maybe", "latency_budget = 0", "latency_budget = -1",
                 "latency_budget = nan", "bucket_width = 0", "latency_c = -1", "latency_c = nan",
                 "latency_alpha = 5", "latency_beta = 2"):
        bad.write_text(f"# comment\n{line}\n", encoding="utf-8")
        with pytest.raises(ForgeError, match=re.escape(f"{bad.resolve()}:2: ")):
            load_config(bad)


def test_config_missing_registry_is_missing_input(tmp_path):
    bad = tmp_path / "forge.cfg"
    bad.write_text("hack_patterns = nowhere.txt\n", encoding="utf-8")
    with pytest.raises(cli.MissingInputError):
        load_config(bad)


# ---------------------------------------------------------------------------
# Individual stages


def run_stages(cfg, *stages):
    for stage in stages:
        code, report = run_stage(stage, cfg)
        assert code == EXIT_OK, report
    return cfg


def test_curate_stage_writes_corpus_and_report(corpus):
    cfg = load_config(corpus)
    run_stages(cfg, "build-tasks", "inject")
    code, report = run_stage("curate", cfg)
    assert code == EXIT_OK
    curated = load_corpus(cfg.out_dir / "curated.jsonl", "trajectories")
    assert curated.rejections == []
    outcomes = {t.trajectory_id: t.outcome for t in curated.records}
    assert outcomes == {
        "traj-resolved": "resolved",
        "traj-test-cheat": "unresolved",
        "traj-hack": "unresolved",
        "traj-semi": "semi_resolved",
        "traj-empty": "empty_patch",
        "traj-lost": "unresolved",
        "traj-longrun": "unresolved",
    }
    saved = read(cfg.out_dir / "curation_report.json")
    assert saved["repaired_calls"] == 1
    assert saved["hack_invalidated"] == 1
    assert saved["counts"]["resolved"] == 1
    assert sum(saved["counts"].values()) == 7


def test_pruning_applied_during_curation(corpus):
    cfg = load_config(corpus)
    run_stages(cfg, "build-tasks", "inject", "curate")
    curated = load_corpus(cfg.out_dir / "curated.jsonl", "trajectories").records
    lost = next(t for t in curated if t.trajectory_id == "traj-lost")
    assert lost.turn_count == 4  # two task_tracker steps pruned from six
    assert [s.index for s in lost.steps] == [0, 1, 2, 3]


def test_mask_stage_with_tiny_context_drops_everything(corpus):
    cfg = load_config(corpus)
    run_stages(cfg, "build-tasks", "inject", "curate")
    tiny = corpus.parent / "tiny.cfg"
    tiny.write_text(corpus.read_text() + "context_limit = 10\n", encoding="utf-8")
    code, report = run_stage("mask", load_config(tiny))
    assert code == EXIT_OK
    assert report["emitted"] == 0
    assert (load_config(tiny).out_dir / "samples.jsonl").read_bytes() == b""
    drops = read_jsonl(load_config(tiny).out_dir / "mask_drops.jsonl")
    assert drops
    assert all(d["reason"] == "overflow" for d in drops)


def test_mask_stage_emits_loss_masked_samples(corpus):
    cfg = load_config(corpus)
    run_stages(cfg, "build-tasks", "inject", "curate", "mask")
    samples = read_jsonl(cfg.out_dir / "samples.jsonl")
    assert {s["trajectory_id"] for s in samples} == {"traj-resolved", "traj-semi"}
    for sample in samples:
        assert any(seg["in_loss"] for seg in sample["rendered"])
        for segment in sample["rendered"]:
            if segment["in_loss"]:
                assert segment["source"] == "assistant"


def test_truncated_trajectories_are_never_trained_on(tmp_path):
    # One selection rule for mask and curriculum: a resolved trajectory that
    # used its whole turn budget is excluded from both.
    from conftest import bash_step, finish_step, make_traj
    from lego_forge.schema import save_corpus

    steps = [bash_step(0, "python -m pytest", "3 passed"), finish_step(1)]
    kept = make_traj(steps, trajectory_id="kept", outcome="resolved")
    truncated = make_traj(steps, trajectory_id="truncated", outcome="resolved", max_turns=2)
    assert truncated.turn_count == truncated.max_turns
    (tmp_path / "out").mkdir()
    save_corpus([kept, truncated], tmp_path / "out" / "curated.jsonl")
    (tmp_path / "forge.cfg").write_text("out_dir = out\n", encoding="utf-8")
    cfg = load_config(tmp_path / "forge.cfg")
    run_stages(cfg, "mask", "curriculum")
    assert [s["trajectory_id"] for s in read_jsonl(cfg.out_dir / "samples.jsonl")] == ["kept"]
    for n in (1, 2, 3):
        staged = load_corpus(cfg.out_dir / f"stage{n}.jsonl", "trajectories").records
        assert [t.trajectory_id for t in staged] == ["kept"]


def test_mask_stage_drops_fully_masked_samples(tmp_path):
    # A resolved trajectory whose only assistant step carries a non-exempt
    # error has nothing left to train on.
    from conftest import editor_step, make_traj
    from lego_forge.schema import save_corpus

    traj = make_traj(
        [editor_step(0, "view", "src/m.py",
                     "ERROR: Invalid `view_range` parameter",
                     phase="editing", error_flag=True)],
        trajectory_id="all-masked",
        outcome="resolved",
    )
    (tmp_path / "out").mkdir()
    save_corpus([traj], tmp_path / "out" / "curated.jsonl")
    (tmp_path / "forge.cfg").write_text("out_dir = out\n", encoding="utf-8")
    cfg = load_config(tmp_path / "forge.cfg")
    code, report = run_stage("mask", cfg)
    assert code == EXIT_OK
    assert report["emitted"] == 0
    drops = read_jsonl(cfg.out_dir / "mask_drops.jsonl")
    assert [d["reason"] for d in drops] == ["fully_masked"]


def test_injected_instances_have_self_consistent_golden_patches(corpus):
    # Stage-level soundness: for every emitted synthetic instance, applying
    # the recorded injection then the golden patch restores the snapshot.
    from lego_forge.patch_analysis import apply_patch, parse_patch

    cfg = load_config(corpus)
    run_stages(cfg, "inject")
    result = load_corpus(cfg.out_dir / "instances_synth.jsonl", "instances")
    assert result.rejections == []
    assert len(result.records) == 2  # the dead-code mutation was invisible
    snapshot = {
        p.relative_to(cfg.snapshot_dir).as_posix(): p.read_text(encoding="utf-8")
        for p in sorted(cfg.snapshot_dir.rglob("*")) if p.is_file()
    }
    for inst in result.records:
        buggy = apply_patch(parse_patch(inst.extra["injection_patch"]), snapshot)
        assert buggy != snapshot
        assert apply_patch(parse_patch(inst.golden_patch), buggy) == snapshot
    report = read(cfg.out_dir / "inject_report.json")
    assert len(report["invisible_bugs"]) == 1


@pytest.mark.parametrize("cut_at_form_feed", [False, True])
def test_form_feed_near_an_injected_edit(corpus, monkeypatch, cut_at_form_feed):
    # Diff lines break only where source lines do, so the mutation applies;
    # a diff that still fails to parse rejects its spec with exit 3.
    if cut_at_form_feed:
        monkeypatch.setattr(patch_analysis, "split_lines", lambda text, keepends=True: text.splitlines(keepends))
    cfg = load_config(corpus)
    calc = cfg.snapshot_dir / "calc.py"
    calc.write_text(calc.read_text(encoding="utf-8").replace("def add(a, b):", "def add(a, b):  # \x0c", 1),
                    encoding="utf-8")
    code, report = run_stage("inject", cfg)
    if not cut_at_form_feed:
        assert code == EXIT_OK and report["built"] == 2
        return
    assert code == EXIT_VALIDATION
    entries = read_jsonl(Path(report["rejection_report"]))
    assert [e["record"] for e in entries] == [0]
    assert "diff content outside any hunk" in entries[0]["reason"]


def test_inject_parses_and_tokenizes_each_snapshot_file_once(corpus, monkeypatch):
    # Counts, not timings: with M Python files and N mutations, inject parses
    # at most M snapshot trees plus one mutated source per mutation, and
    # tokenizes each snapshot file at most once.
    import tokenize

    cfg = load_config(corpus)
    mutations = read_jsonl(cfg.mutations)
    visible = mutations[0]
    calc = (cfg.snapshot_dir / "calc.py").read_text(encoding="utf-8")
    tree = task_builder.PythonAstProvider().parse("calc.py", calc)
    for kind, mutator in (("operator", "operator_swap"), ("conditional", "conditional_removal")):
        for loc in task_builder.PythonAstProvider().enumerate(tree, kind):
            target = {key: getattr(loc, key) for key in cli._LOCATOR_FIELDS}
            mutations.append({**visible, "mutator": mutator, "target": target})
    with open(cfg.mutations, "w", encoding="utf-8") as f:
        f.writelines(json.dumps(m) + "\n" for m in mutations)
    parsed, tokenized = [], []
    real_parse, real_tokenize = ast.parse, tokenize.generate_tokens

    def counting_parse(source, *args, **kwargs):
        parsed.append(source)
        return real_parse(source, *args, **kwargs)

    def counting_tokenize(readline):
        tokenized.append(readline)
        return real_tokenize(readline)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(tokenize, "generate_tokens", counting_tokenize)
    code, report = run_stage("inject", cfg)
    monkeypatch.undo()
    assert code == EXIT_OK, report
    assert report["built"] == len(mutations) - 1  # one mutation hits dead code
    python_files = len(list(cfg.snapshot_dir.rglob("*.py")))
    assert len(mutations) > 2 * python_files
    assert len(parsed) <= python_files + len(mutations)
    assert len(tokenized) <= python_files


def test_build_tasks_parses_each_merged_diff_once(corpus, monkeypatch):
    cfg = load_config(corpus)
    prs = read_jsonl(cfg.real_inputs)
    bad_diff = "--- a/x.py\n+++ b/x.py\n@@ -1,2 +1,2 @@\n-a\n"
    extra = [
        {**prs[0], "number": 901, "merged_diff": bad_diff},
        {**prs[0], "number": 902, "issue_text": " "},
        {**prs[0], "number": 903, "issue_created_at": "not a date"},
    ]
    with open(cfg.real_inputs, "a", encoding="utf-8") as f:
        f.writelines(json.dumps(pr) + "\n" for pr in extra)
    reached, parsed = [], []
    real_build, real_parse = task_builder.build_real_instance, patch_analysis.parse_patch

    def recording_build(pr, pre, post):
        reached.append(pr)
        return real_build(pr, pre, post)

    def counting_parse(text):
        parsed.append(text)
        return real_parse(text)

    monkeypatch.setattr(task_builder, "build_real_instance", recording_build)
    monkeypatch.setattr(task_builder, "parse_patch", counting_parse)
    monkeypatch.setattr(patch_analysis, "parse_patch", counting_parse)
    code, report = run_stage("build-tasks", cfg)
    assert code == EXIT_OK
    assert report["built"] == len(prs)
    assert sorted(parsed) == sorted(pr["merged_diff"] for pr in reached if pr["issue_text"].strip())
    assert len(parsed) == len(prs) + 1
    with pytest.raises(patch_analysis.PatchParseError) as bad:
        real_parse(bad_diff)
    assert {"record": len(prs), "reason": str(bad.value)} in report["skipped"]


def test_curate_without_final_report_marks_unclassified(corpus):
    cfg = load_config(corpus)
    run_stages(cfg, "build-tasks", "inject")
    reports = [
        line for line in cfg.final_reports.read_text(encoding="utf-8").splitlines()
        if '"traj-semi"' not in line
    ]
    cfg.final_reports.write_text("".join(l + "\n" for l in reports), encoding="utf-8")
    code, report = run_stage("curate", cfg)
    assert code == EXIT_OK
    curated = load_corpus(cfg.out_dir / "curated.jsonl", "trajectories").records
    semi = next(t for t in curated if t.trajectory_id == "traj-semi")
    assert semi.outcome == "unclassified"
    assert sum(report["counts"].values()) == 7
    assert any(n["reason"] == "missing final report" for n in report["notes"])


def test_curate_single_pass_equals_the_library_chain(corpus):
    """curate's one loop over each trajectory builds the same steps as
    prune_toolset -> assign_phases -> detect_step_errors over the repaired
    steps."""
    cfg = load_config(corpus)
    text = cfg.trajectories.read_text(encoding="utf-8")
    cfg.trajectories.write_text(text.replace('"FAILED ', '"Command failed with: FAILED '), encoding="utf-8")
    run_stages(cfg, "build-tasks", "inject", "curate")
    curated = load_corpus(cfg.out_dir / "curated.jsonl", "trajectories").records
    rules = load_phase_patterns(cfg.phase_patterns)
    patterns = load_error_patterns(cfg.error_patterns)
    pruned = flagged = 0
    for traj, got in zip(load_corpus(cfg.trajectories, "trajectories").records, curated, strict=True):
        steps = []
        for step in traj.steps:
            action = step.action
            if isinstance(action, ToolCall):
                try:
                    action, _ = repair_tool_call(action)
                except UnrepairableCallError:
                    pass
            steps.append(dataclasses.replace(step, action=action))
        chain = prune_toolset(dataclasses.replace(traj, steps=tuple(steps)))
        chain = detect_step_errors(assign_phases(chain, rules), patterns)
        assert got == dataclasses.replace(chain, outcome=got.outcome)
        pruned += len(traj.steps) - len(got.steps)
        flagged += sum(s.error_flag for s in got.steps)
    assert pruned and flagged  # the corpus exercises pruning and flagging


@pytest.mark.parametrize("line, codes", [
    ('{"results": {}}', ["BAD_RECORD"]),
    ("[1,2]", ["BAD_JSON"]),
    ('{"trajectory_id": "traj-resolved", "code_st', ["BAD_JSON"]),
], ids=["no-trajectory-id", "array", "truncated"])
def test_malformed_final_report_line_exits_3_with_rejection_report(corpus, capsys, line, codes):
    cfg = load_config(corpus)
    run_stages(cfg, "build-tasks", "inject")
    with open(cfg.final_reports, "a", encoding="utf-8") as f:
        f.write(line + "\n")
    assert cli.main(["curate", "--config", str(corpus)]) == EXIT_VALIDATION
    entries = read_jsonl(cfg.out_dir / "curate_rejections.jsonl")
    assert [(e["line_no"], e["codes"]) for e in entries] == [(8, codes)]
    assert not (cfg.out_dir / "curated.jsonl").exists()


def edited(**changes):
    """A probe line: the input's first record with `changes` applied."""
    return lambda first: json.dumps({**first, **changes})


PROBE_STAGES = {
    "trajectories": "curate", "final_reports": "curate", "histories": "sanitize", "mutations": "inject",
    "rollouts": "tts-select", "surface": "tts-select", "real_inputs": "build-tasks",
}
PROBE_LINES = {"object": '{"x": 1}', "truncated": '{"x": 1, "y": "tr', "array": "[1,2]", "blank": ""}


def probes():
    """(input, stage, line, expected) for the four kinds of bad line in each
    input, then edits of a valid record. `expected` is the rejection codes
    (exit 3), a skip reason (real_inputs, exit 0), or None: the line is
    skipped without a trace (exit 0)."""
    for key, stage in PROBE_STAGES.items():
        for kind, line in PROBE_LINES.items():
            if key == "final_reports" and kind != "blank":
                continue  # test_malformed_final_report_line_exits_3_with_rejection_report
            if key == "real_inputs":
                expected = {"object": "missing field 'repo'", "truncated": "Unterminated string",
                            "array": "record is not an object", "blank": None}[kind]
            else:
                expected = {"object": ["BAD_RECORD"], "truncated": ["BAD_JSON"], "array": ["BAD_JSON"],
                            "blank": ["EMPTY_LINE"] if key == "trajectories" else None}[kind]
            yield pytest.param(key, stage, line, expected, id=f"{key.replace('_', '-')}-{kind}")
    edits = [
        ("trajectories", edited(max_turns="100"), ["BAD_RECORD"], "max-turns-string"),
        ("trajectories", edited(steps=[1]), ["BAD_RECORD"], "step-not-object"),
        ("histories", edited(cutoff="yesterday"), ["BAD_RECORD"], "bad-cutoff"),
        ("histories", edited(commits=[{"commit_id": "c1", "author_date": "soon", "message": "m",
                                       "parent_ids": []}]), ["BAD_RECORD"], "bad-author-date"),
        ("histories", edited(commits=[{"x": 1}]), ["BAD_RECORD"], "commit-object"),
        ("histories", edited(policy="rewrite"), ["BAD_RECORD"], "unknown-policy"),
        ("mutations", edited(seed=[]), ["BAD_RECORD"], "seed-array"),
        ("mutations", edited(mutator="swap"), ["BAD_RECORD"], "unknown-mutator"),
        ("surface", edited(rollouts=0), ["BAD_RECORD"], "rollouts-zero"),
        ("rollouts", edited(resolved="yes"), ["BAD_RECORD"], "resolved-string"),
        ("rollouts", edited(), ["DUPLICATE_ROLLOUT_INDEX"], "duplicate-line"),
        ("real_inputs", edited(issue_text=5), "field 'issue_text' has wrong type int", "issue-text-number"),
        ("real_inputs", edited(base_commit=5), "field 'base_commit' has wrong type int", "base-commit-number"),
        ("real_inputs", edited(issue_created_at="soon"), "invalid ISO-8601 timestamp: 'soon'",
         "bad-issue-created-at"),
    ]
    for key, line, expected, name in edits:
        yield pytest.param(key, PROBE_STAGES[key], line, expected, id=f"{key.replace('_', '-')}-{name}")


@pytest.mark.parametrize("key, stage, line, expected", probes())
def test_malformed_auxiliary_line_is_rejected_or_skipped(corpus, capsys, key, stage, line, expected):
    # Every stage input goes through one reader: a malformed line fails its
    # stage with a rejection report, a real_inputs line is skipped with its
    # reason, and none ends in a traceback or leaves a temp file.
    cfg = load_config(corpus)
    if stage == "curate":
        run_stages(cfg, "build-tasks")
    path = getattr(cfg, key)
    text = path.read_text(encoding="utf-8")
    if callable(line):
        line = line(json.loads(text.split("\n", 1)[0]))
    line_no = text.count("\n") + 1
    path.write_text(text + line + "\n", encoding="utf-8")
    code = cli.main([stage, "--config", str(corpus)])
    report = read(cfg.out_dir / next(s.report for s in cli.STAGES if s.name == stage))
    assert not [p.name for p in cfg.out_dir.iterdir() if p.name.endswith(".tmp")]
    if not isinstance(expected, list):
        assert code == EXIT_OK
        reasons = [s["reason"] for s in report.get("skipped", []) if s["record"] == line_no - 1]
        assert len(reasons) == (expected is not None) and all(expected in r for r in reasons), reasons
        return
    assert code == EXIT_VALIDATION
    entries = read_jsonl(Path(report["rejection_report"]))
    assert Path(report["rejection_report"]).name == f"{stage.replace('-', '_')}_rejections.jsonl"
    assert [(e["line_no"], e["codes"]) for e in entries] == [(line_no, expected)]


@pytest.mark.parametrize("kept, codes", [("none", ["EMPTY_ROLLOUTS"]), ("all but the first", ["RAGGED_ROLLOUTS"])])
def test_unrankable_rollouts_exit_3_with_rejection_report(corpus, kept, codes):
    # Rollouts that parse but cannot be ranked, none at all or one instance
    # short of K, fail tts-select with a report naming the file and instance.
    cfg = load_config(corpus)
    lines = cfg.rollouts.read_text(encoding="utf-8").splitlines(keepends=True)
    short = None if kept == "none" else json.loads(lines[0])["instance_id"]
    cfg.rollouts.write_text("" if short is None else "".join(lines[1:]), encoding="utf-8")
    code, report = run_stage("tts-select", cfg)
    assert code == EXIT_VALIDATION
    assert Path(report["rejection_report"]).name == "tts_select_rejections.jsonl"
    entries = read_jsonl(Path(report["rejection_report"]))
    assert [(e["file"], e["line_no"], e["instance_id"], e["codes"]) for e in entries] == [
        (str(cfg.rollouts), None, short, codes)
    ]


def test_tts_select_with_oracle_attains_pass(corpus):
    cfg = load_config(corpus)
    code, report = run_stage("tts-select", cfg)
    assert code == EXIT_OK
    metrics = read(cfg.out_dir / "tts_metrics.json")
    assert metrics["verifier"] == "oracle"
    assert metrics["tts"] == metrics["pass"]
    allocation = read(cfg.out_dir / "allocation.json")
    assert allocation["plan"]["predicted_latency"] <= allocation["budget"]
    selection = read_jsonl(cfg.out_dir / "selection.jsonl")
    assert len(selection) == metrics["instances"] == 3


def test_stats_stage_reports_paper_shaped_corpus_means(tmp_path):
    # A corpus shaped like the target profile: real instances average 135
    # issue words and 3.7 golden-patch files; synthetic ones average 1.0
    # files / 1.3 hunks / 18.8 lines.
    from conftest import make_instance
    from lego_forge.patch_analysis import make_patch
    from lego_forge.schema import save_corpus

    def diff_with(files, hunks_in_first, lines_per_hunk=2):
        parts = []
        for f in range(files):
            hunks = hunks_in_first if f == 0 else 1
            old_lines = [f"l{i}\n" for i in range(40)]
            new_lines = list(old_lines)
            for h in range(hunks):
                new_lines[h * 10] = f"edit{h}\n"
            parts.append(make_patch("".join(old_lines), "".join(new_lines), f"src/f{f}.py"))
        return "".join(parts)

    real = []
    file_plan = [4, 4, 4, 4, 4, 4, 4, 3, 3, 3]  # mean 3.7
    for i, files in enumerate(file_plan):
        words = " ".join(f"w{j}" for j in range(135))
        real.append(make_instance(
            instance_id=f"real-{i}", origin="real", image_name=f"sandbox.real-{i}",
            problem_statement=words, golden_patch=diff_with(files, 1),
        ))
    synth = []
    hunk_plan = [1] * 7 + [2] * 3         # mean 1.3
    line_plan = [19] * 8 + [18] * 2       # mean 18.8
    for i, (hunks, lines) in enumerate(zip(hunk_plan, line_plan)):
        old_lines = [f"l{j}\n" for j in range(80)]
        new_lines = list(old_lines)
        budget = lines
        for h in range(hunks):
            share = budget // hunks + (budget % hunks if h == 0 else 0)
            removed = share // 2
            added = share - removed
            start = h * 30 + 2
            new_lines[start:start + removed] = [f"e{h}-{j}\n" for j in range(added)]
        synth.append(make_instance(
            instance_id=f"synth-{i}",
            problem_statement="short synthetic statement",
            golden_patch=make_patch("".join(old_lines), "".join(new_lines), "src/mod.py"),
        ))

    corpus_dir = tmp_path / "shape"
    corpus_dir.mkdir()
    save_corpus(real + synth, corpus_dir / "instances.jsonl")
    (corpus_dir / "forge.cfg").write_text("instances = instances.jsonl\n", encoding="utf-8")
    cfg = load_config(corpus_dir / "forge.cfg")
    code, report = run_stage("stats", cfg)
    assert code == EXIT_OK
    assert report["real"]["issue_words"] == pytest.approx(135.0)
    assert report["real"]["golden_patch"]["files"] == pytest.approx(3.7)
    assert report["synthetic"]["golden_patch"]["files"] == pytest.approx(1.0)
    assert report["synthetic"]["golden_patch"]["hunks"] == pytest.approx(1.3)
    assert report["synthetic"]["golden_patch"]["lines"] == pytest.approx(18.8)


def test_curate_fuzz_accounting_and_determinism(tmp_path):
    # A randomized, messy corpus: the stage must account for every
    # trajectory, emit only valid records, and be byte-deterministic.
    import random

    from conftest import make_instance, make_traj, random_trajectory, tracker_step
    from lego_forge.patch_analysis import make_patch
    from lego_forge.schema import save_corpus, save_jsonl, validate_trajectory

    rng = random.Random(86420)
    inst = make_instance(instance_id="fuzz-inst")
    patches = ["", inst.golden_patch,
               make_patch("a\n", "b\n", "src/other.py"),
               make_patch("a\n", "b\n", "tests/test_x.py")]
    trajs = []
    reports = []
    for i in range(40):
        traj = random_trajectory(rng, f"fz-{i}", n_steps=rng.randrange(2, 10))
        steps = list(traj.steps)
        if rng.random() < 0.3:
            steps.insert(rng.randrange(len(steps)), tracker_step(0))
        traj = make_traj(steps, trajectory_id=f"fz-{i}", instance_id="fuzz-inst",
                         final_patch=rng.choice(patches))
        trajs.append(traj)
        if rng.random() < 0.9:  # some trajectories lack a final report
            reports.append({
                "trajectory_id": f"fz-{i}",
                "code_state": "final",
                "results": {
                    "tests/test_calc.py::test_add": rng.choice(["pass", "fail"]),
                    "tests/test_calc.py::test_mul": rng.choice(["pass", "fail"]),
                },
            })
    root = tmp_path / "fuzz"
    root.mkdir()
    save_corpus([inst], root / "instances.jsonl")
    save_corpus(trajs, root / "trajectories.jsonl")
    save_jsonl(reports, root / "final_reports.jsonl")
    (root / "forge.cfg").write_text(
        "instances = instances.jsonl\n"
        "trajectories = trajectories.jsonl\n"
        "final_reports = final_reports.jsonl\n",
        encoding="utf-8",
    )
    cfg = load_config(root / "forge.cfg")
    code, report = run_stage("curate", cfg)
    assert code == EXIT_OK
    assert sum(report["counts"].values()) == 40
    first_bytes = (cfg.out_dir / "curated.jsonl").read_bytes()
    curated = load_corpus(cfg.out_dir / "curated.jsonl", "trajectories").records
    for traj in curated:
        assert validate_trajectory(traj) == []
        for step in traj.steps:
            action = step.action
            if hasattr(action, "tool"):
                assert action.tool in ("execute_bash", "str_replace_editor", "think", "finish")
    code, _ = run_stage("curate", cfg)
    assert code == EXIT_OK
    assert (cfg.out_dir / "curated.jsonl").read_bytes() == first_bytes


# ---------------------------------------------------------------------------
# Exit codes


def test_missing_input_exits_2(corpus):
    cfg = load_config(corpus)
    os.remove(cfg.trajectories)
    code, report = run_stage("curate", cfg)
    assert code == EXIT_MISSING_INPUT
    assert "error" in report


def test_corrupt_input_line_exits_3_with_rejection_report(corpus):
    cfg = load_config(corpus)
    run_stages(cfg, "build-tasks", "inject")
    with open(cfg.trajectories, "a", encoding="utf-8") as f:
        f.write("{this is not json\n")
    code, report = run_stage("curate", cfg)
    assert code == EXIT_VALIDATION
    rejection_path = Path(report["rejection_report"])
    assert rejection_path.exists()
    entries = read_jsonl(rejection_path)
    assert entries[0]["codes"] == ["BAD_JSON"]
    # The failed stage leaves no curated corpus behind.
    assert not (cfg.out_dir / "curated.jsonl").exists()


FUZZ_VALUES = (None, True, 7, 1.5, "x", [], {})


@settings(max_examples=60, derandomize=True, deadline=None)
@given(key=st.sampled_from(sorted(PROBE_STAGES)), data=st.data())
def test_fuzzed_input_line_ends_in_a_report_never_a_traceback(key, data):
    # One line of one stage input loses a key, changes a type, is truncated,
    # or gets an array or blank line inserted before it; every stage then
    # exits 0, 2 or 3 with its report written and no partial output.
    with tempfile.TemporaryDirectory() as tmp:
        cfg = load_config(build_integration_corpus(Path(tmp)))
        path = getattr(cfg, key)
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        n = data.draw(st.integers(0, len(lines) - 1), label="line")
        record = json.loads(lines[n])
        kind = data.draw(st.sampled_from(("drop-key", "change-type", "truncate", "array", "blank")), label="kind")
        field = data.draw(st.sampled_from(sorted(record)), label="field")
        if kind == "drop-key":
            del record[field]
        elif kind == "change-type":
            record[field] = data.draw(st.sampled_from([v for v in FUZZ_VALUES if type(v) is not type(record[field])]))
        lines[n] = json.dumps(record)
        if kind == "truncate":
            lines[n] = lines[n][: data.draw(st.integers(1, len(lines[n]) - 1), label="cut")]
        elif kind in ("array", "blank"):
            lines.insert(n, "[1, 2]" if kind == "array" else "")
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        for stage in cli.STAGES:
            code, _ = run_stage(stage.name, cfg)
            assert code in (EXIT_OK, EXIT_MISSING_INPUT, EXIT_VALIDATION), stage.name
            assert (cfg.out_dir / stage.report).exists(), stage.name
            if code != EXIT_OK:
                assert not [name for name in stage.outputs(cfg) if (cfg.out_dir / name).exists()], stage.name
        assert not [p.name for p in cfg.out_dir.iterdir() if p.name.endswith(".tmp")]


def test_unknown_stage_rejected(corpus):
    with pytest.raises(ValueError):
        run_stage("fabricate", load_config(corpus))


# ---------------------------------------------------------------------------
# Pipeline behavior


def test_full_pipeline_emits_all_artifacts(corpus):
    cfg = load_config(corpus)
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    expected = [
        "instances_real.jsonl", "instances_synth.jsonl", "sanitized_histories.jsonl",
        "curated.jsonl", "curation_report.json", "samples.jsonl", "mask_drops.jsonl",
        "stage1.jsonl", "stage2.jsonl", "stage3.jsonl", "correlation_report.json",
        "failures.jsonl", "distribution.json", "selection.jsonl", "tts_metrics.json",
        "allocation.json", "corpus_stats.json",
    ]
    for name in expected:
        assert (cfg.out_dir / name).exists(), name
    distribution = read(cfg.out_dir / "distribution.json")["all"]
    assert abs(sum(distribution.values()) - 1.0) <= 1e-12
    stages = [load_corpus(cfg.out_dir / f"stage{i}.jsonl", "trajectories").records
              for i in (1, 2, 3)]
    ids = [{t.trajectory_id for t in s} for s in stages]
    assert ids[0] <= ids[1] <= ids[2]
    assert ids[2] == {"traj-resolved", "traj-semi"}


def test_second_run_skips_every_stage(corpus, capsys):
    cfg = load_config(corpus)
    run_pipeline(cfg, echo=lambda s: None)
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == EXIT_OK
    assert len(lines) == 9
    assert all(line.startswith("[skip]") for line in lines)


def test_skipping_rerun_imports_no_stage_module(corpus):
    # A fresh process that loads the config and re-runs a finished pipeline
    # skips every stage, so it never imports a stage's modules.
    assert run_pipeline(load_config(corpus), echo=lambda s: None) == EXIT_OK
    script = (
        "import json, sys\n"
        "from lego_forge import cli\n"
        "cli.load_config(sys.argv[1])\n"
        "code = cli.main(['pipeline', '--config', sys.argv[1]])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, str(corpus)], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    *lines, last = proc.stdout.splitlines()
    code, modules = json.loads(last)
    assert code == EXIT_OK and len(lines) == len(cli.STAGES)
    assert all(line.startswith("[skip]") for line in lines)
    stage_modules = {"patch_analysis", "task_builder", "repo_sanitizer", "trajectory_curation",
                     "sft_masking", "error_taxonomy", "tts"}
    assert not [m for m in modules if m.removeprefix("lego_forge.") in stage_modules]


def test_deleted_allocation_reruns_tts_select(corpus):
    cfg = load_config(corpus)
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    allocation = cfg.out_dir / "allocation.json"
    original = allocation.read_bytes()
    allocation.unlink()
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == EXIT_OK
    assert "[ok]   tts-select" in lines
    assert allocation.read_bytes() == original


def test_without_allocation_second_run_skips_tts_select(corpus):
    text = corpus.read_text(encoding="utf-8")
    corpus.write_text(
        "".join(l for l in text.splitlines(keepends=True)
                if not l.startswith(("surface", "latency_budget"))),
        encoding="utf-8",
    )
    cfg = load_config(corpus)
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    assert not (cfg.out_dir / "allocation.json").exists()
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == EXIT_OK
    assert "[skip] tts-select: inputs unchanged" in lines


def test_each_stage_writes_exactly_its_declared_outputs(tmp_path):
    # Guards the stage table against drift: run each stage alone into a
    # fresh out_dir holding only the upstream outputs it declares as inputs.
    full = load_config(build_integration_corpus(tmp_path / "corpus"))
    assert run_pipeline(full, echo=lambda s: None) == EXIT_OK
    for n, stage in enumerate(cli.STAGES):
        cfg = dataclasses.replace(full, out_dir=tmp_path / f"fresh{n}")
        cfg.out_dir.mkdir()
        for path in stage.inputs(full):
            if path is not None and path.parent == full.out_dir and path.exists():
                shutil.copy(path, cfg.out_dir / path.name)
        before = set(os.listdir(cfg.out_dir))
        code, report = run_stage(stage.name, cfg)
        assert code == EXIT_OK, report
        written = set(os.listdir(cfg.out_dir)) - before
        assert written == {*stage.outputs(cfg), stage.report}, stage.name


def test_corrupt_state_file_reruns_every_stage(corpus):
    cfg = load_config(corpus)
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    state = cfg.out_dir / ".forge_state.json"
    state.write_bytes(state.read_bytes()[: state.stat().st_size // 2])
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == EXIT_OK
    assert len(lines) == 9
    assert all(line.startswith("[ok]") for line in lines)
    assert set(read(state)) == {stage.name for stage in cli.STAGES}


def test_corrupting_one_input_reruns_only_downstream(corpus):
    cfg = load_config(corpus)
    run_pipeline(cfg, echo=lambda s: None)
    # Touch the rollouts file: only tts-select consumes it.
    rollouts = cfg.rollouts
    rollouts.write_text(rollouts.read_text(encoding="utf-8"), encoding="utf-8")
    lines = []
    run_pipeline(cfg, echo=lines.append)
    assert all(line.startswith("[skip]") for line in lines)  # same bytes: no reruns

    content = rollouts.read_text(encoding="utf-8").replace("summary", "SUMMARY")
    rollouts.write_text(content, encoding="utf-8")
    lines = []
    run_pipeline(cfg, echo=lines.append)
    by_stage = {line.split()[-1] if line.startswith("[ok]") else line.split(":")[0].split()[-1]: line
                for line in lines}
    assert by_stage["build-tasks"].startswith("[skip]")
    assert by_stage["curate"].startswith("[skip]")
    assert by_stage["tts-select"].startswith("[ok]")


def test_two_fresh_runs_are_byte_identical(tmp_path):
    first = build_integration_corpus(tmp_path / "one")
    second = build_integration_corpus(tmp_path / "two")
    assert run_pipeline(load_config(first), echo=lambda s: None) == EXIT_OK
    assert run_pipeline(load_config(second), echo=lambda s: None) == EXIT_OK
    tree_a = tree_bytes(tmp_path / "one" / "out")
    tree_b = tree_bytes(tmp_path / "two" / "out")
    assert tree_a == tree_b


# ---------------------------------------------------------------------------
# In-memory hand-off within one pipeline run


def assert_run_state_empty():
    assert not cli._in_run and cli._digests == {} and cli._handoff == {}


def test_curated_records_equal_their_reload(corpus, monkeypatch):
    # The hand-off gives later stages curate's records in place of a reload,
    # so a reload must return exactly those records.
    written = {}
    real_save = cli.save_corpus

    def capturing_save(records, path):
        written[Path(path).name] = records
        real_save(records, path)

    monkeypatch.setattr(cli, "save_corpus", capturing_save)
    cfg = run_stages(load_config(corpus), "build-tasks", "inject", "curate")
    curated = written["curated.jsonl"]
    assert len(curated) == 7
    for traj in curated:
        assert Trajectory.from_record(traj.to_record()) == traj
    assert load_corpus(cfg.out_dir / "curated.jsonl", "trajectories").records == curated


def test_pipeline_tree_equals_single_stage_runs(tmp_path, capsys):
    piped = build_integration_corpus(tmp_path / "piped")
    alone = build_integration_corpus(tmp_path / "alone")
    assert run_pipeline(load_config(piped), echo=lambda s: None) == EXIT_OK
    for stage in cli.STAGES:
        assert cli.main([stage.name, "--config", str(alone)]) == EXIT_OK, stage.name
    tree = tree_bytes(tmp_path / "piped" / "out")
    assert tree.pop(".forge_state.json")
    assert tree == tree_bytes(tmp_path / "alone" / "out")


def test_invalid_curated_record_still_fails_mask_in_pipeline(corpus, monkeypatch):
    # A record the reload would reject is not handed off: mask reloads and
    # rejects it, exactly as without the hand-off.
    real_validate = schema_mod.validate_trajectory

    def validate(traj):
        codes = real_validate(traj)
        return codes + ["BAD_OUTCOME"] if traj.outcome == "semi_resolved" else codes

    monkeypatch.setattr(cli, "validate_trajectory", validate)
    monkeypatch.setitem(schema_mod._KINDS, "trajectories", (Trajectory, validate))
    cfg = load_config(corpus)
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == EXIT_VALIDATION
    assert lines[-1].startswith("[fail] mask:")
    entries = read_jsonl(cfg.out_dir / "mask_rejections.jsonl")
    assert [e["codes"] for e in entries] == [["BAD_OUTCOME"]]
    assert_run_state_empty()


def test_curated_line_separators_read_back_as_written(tmp_path, capsys):
    # curate writes U+0085, U+2028 and U+2029 raw; the reader splits lines at
    # "\n" only, so a pipeline run and single-stage runs both keep the record.
    trees = []
    for name in ("piped", "alone"):
        config = build_integration_corpus(tmp_path / name)
        cfg = load_config(config)
        text = cfg.trajectories.read_text(encoding="utf-8")
        cfg.trajectories.write_text(text.replace("edited", "e\\u0085di\\u2028te\\u2029d", 1), encoding="utf-8")
        if name == "piped":
            assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
        else:
            for stage in cli.STAGES:
                assert cli.main([stage.name, "--config", str(config)]) == EXIT_OK, stage.name
        curated = load_corpus(cfg.out_dir / "curated.jsonl", "trajectories")
        assert curated.rejections == [] and len(curated.records) == 7
        assert any("e\x85di\u2028te\u2029d" in s.observation for t in curated.records for s in t.steps)
        trees.append(tree_bytes(cfg.out_dir))
    assert trees[0].pop(".forge_state.json")
    assert trees[0] == trees[1]


def test_hand_off_lives_from_curate_to_its_last_reader(corpus, monkeypatch, tmp_path):
    # The forked worker records what it held through a file; this process
    # records in memory, so a stage lands in `held` only if it ran here.
    held = {}
    log = tmp_path / "held.log"
    real_run_stage = cli.run_stage

    def recording_run_stage(stage, cfg):
        held[stage] = names = [path.name for path, _ in cli._handoff]
        with open(log, "a", encoding="utf-8") as f:
            f.write(json.dumps([stage, names]) + "\n")
        return real_run_stage(stage, cfg)

    monkeypatch.setattr(cli, "run_stage", recording_run_stage)
    assert run_pipeline(load_config(corpus), echo=lambda s: None) == EXIT_OK
    # curate keeps the instance corpora it read and the records it wrote;
    # each is dropped once no stage still to come reads its path.
    instances = ["instances_real.jsonl", "instances_synth.jsonl"]
    assert {stage: sorted(names) for stage, names in held.items()} == {
        **{stage: [] for stage in ("build-tasks", "inject", "curate")},
        **{stage: ["curated.jsonl", *instances] for stage in ("mask", "curriculum", "classify-errors")},
        "stats": instances,
    }
    in_worker = {stage: names for stage, names in read_jsonl(log) if stage not in held}
    assert in_worker == {"sanitize": [], "tts-select": []}
    assert_run_state_empty()


def test_failed_run_leaves_no_run_state(corpus, monkeypatch):
    def boom(traj, inst):
        raise ForgeError("boom")

    monkeypatch.setattr("lego_forge.error_taxonomy.explain_failure", boom)
    lines = []
    assert run_pipeline(load_config(corpus), echo=lines.append) == cli.EXIT_INTERNAL
    assert lines[-1].startswith("[fail] classify-errors: boom")
    assert_run_state_empty()


# ---------------------------------------------------------------------------
# Detached stages in one forked worker


WORKER_STAGES = ("sanitize", "tts-select")


def record_pids(monkeypatch, log: Path) -> None:
    """Append (stage, pid) to `log` as each stage starts, in whichever process runs it."""
    real_run_stage = cli.run_stage

    def recording_run_stage(stage, cfg):
        with open(log, "a", encoding="utf-8") as f:
            f.write(json.dumps([stage, os.getpid()]) + "\n")
        return real_run_stage(stage, cfg)

    monkeypatch.setattr(cli, "run_stage", recording_run_stage)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_detached_stages_run_in_one_worker_process(corpus, monkeypatch, tmp_path):
    cfg = load_config(corpus)
    assert [stage.name for stage in cli._detached_stages(cfg)] == list(WORKER_STAGES)
    log = tmp_path / "pids.log"
    record_pids(monkeypatch, log)
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == EXIT_OK
    assert_no_child_left()
    assert lines == [f"[ok]   {stage.name}" for stage in cli.STAGES]
    pids = dict(read_jsonl(log))
    assert sorted(pids) == sorted(stage.name for stage in cli.STAGES)
    worker = {pids[stage] for stage in WORKER_STAGES}
    assert len(worker) == 1 and os.getpid() not in worker
    assert {pid for stage, pid in pids.items() if stage not in WORKER_STAGES} == {os.getpid()}
    assert_run_state_empty()


def test_skipping_rerun_never_forks(corpus, monkeypatch):
    cfg = load_config(corpus)
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK

    def no_fork():
        raise AssertionError("a re-run that skips every stage forked")

    monkeypatch.setattr(os, "fork", no_fork)
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == EXIT_OK
    assert lines == [f"[skip] {stage.name}: inputs unchanged" for stage in cli.STAGES]


@pytest.mark.parametrize("why", ["fork fails", "another thread runs"])
def test_without_a_safe_fork_every_stage_runs_here_with_the_same_tree(tmp_path, monkeypatch, why):
    forked = build_integration_corpus(tmp_path / "forked")
    assert run_pipeline(load_config(forked), echo=lambda s: None) == EXIT_OK
    config = build_integration_corpus(tmp_path / "here")
    log = tmp_path / "pids.log"
    record_pids(monkeypatch, log)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    if why == "fork fails":
        def failing_fork():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing_fork)
    else:
        other.start()
    try:
        assert run_pipeline(load_config(config), echo=lambda s: None) == EXIT_OK
    finally:
        release.set()
        if other.is_alive():
            other.join(timeout=60)
    assert not other.is_alive()
    assert read_jsonl(log) == [[stage.name, os.getpid()] for stage in cli.STAGES]
    assert tree_bytes(tmp_path / "here" / "out") == tree_bytes(tmp_path / "forked" / "out")


@pytest.mark.parametrize("key, stage", [("histories", "sanitize"), ("rollouts", "tts-select")])
def test_bad_line_fails_a_worker_stage_in_stage_order(tmp_path, key, stage):
    # The worker's failure is echoed and recorded where a serial run would
    # have stopped; the stages after it that ran alongside are neither
    # echoed nor recorded, and a re-run after the fix decides them by content.
    config = build_integration_corpus(tmp_path / "corpus")
    cfg = load_config(config)
    path = getattr(cfg, key)
    good = path.read_text(encoding="utf-8")
    path.write_text(good + "{not json\n", encoding="utf-8")
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == EXIT_VALIDATION
    assert_no_child_left()
    names = [s.name for s in cli.STAGES]
    before = names[: names.index(stage)]
    assert lines[:-1] == [f"[ok]   {name}" for name in before]
    assert lines[-1].startswith(f"[fail] {stage}:")
    entries = read_jsonl(cfg.out_dir / f"{stage.replace('-', '_')}_rejections.jsonl")
    assert [(e["line_no"], e["codes"]) for e in entries] == [(good.count("\n") + 1, ["BAD_JSON"])]
    assert sorted(read(cfg.out_dir / ".forge_state.json")) == sorted(before)
    assert_run_state_empty()

    path.write_text(good, encoding="utf-8")
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    fresh = build_integration_corpus(tmp_path / "fresh")
    assert run_pipeline(load_config(fresh), echo=lambda s: None) == EXIT_OK
    tree = tree_bytes(cfg.out_dir)
    assert tree.pop(f"{stage.replace('-', '_')}_rejections.jsonl")
    assert tree == tree_bytes(tmp_path / "fresh" / "out")


def test_parent_failure_leaves_the_worker_stage_unrecorded(corpus):
    cfg = load_config(corpus)
    with open(cfg.mutations, "a", encoding="utf-8") as f:
        f.write(json.dumps({"mutator": "swap"}) + "\n")
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == EXIT_VALIDATION
    assert_no_child_left()
    assert lines[0] == "[ok]   build-tasks" and lines[-1].startswith("[fail] inject:")
    assert len(lines) == 2
    assert sorted(read(cfg.out_dir / ".forge_state.json")) == ["build-tasks"]
    # sanitize ran alongside and keeps its outputs, unrecorded.
    assert (cfg.out_dir / "sanitized_histories.jsonl").exists()
    assert_run_state_empty()


def test_unexpected_error_in_a_worker_stage_exits_1(corpus, monkeypatch):
    def boom(self, candidate):
        raise RuntimeError("verifier crashed")

    monkeypatch.setattr("lego_forge.tts.StubVerifier.score", boom)
    cfg = dataclasses.replace(load_config(corpus), verifier="stub")
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == cli.EXIT_INTERNAL
    assert_no_child_left()
    assert lines[-1] == "[fail] tts-select: verifier crashed (exit 1)"
    assert "tts-select" not in read(cfg.out_dir / ".forge_state.json")
    assert "stats" not in read(cfg.out_dir / ".forge_state.json")
    assert_run_state_empty()


def test_worker_that_dies_mid_stage_fails_that_stage(corpus, monkeypatch):
    real_run_stage = cli.run_stage

    def dying_run_stage(stage, cfg):
        if stage == "sanitize" and os.getpid() != parent:
            os._exit(0)
        return real_run_stage(stage, cfg)

    parent = os.getpid()
    monkeypatch.setattr(cli, "run_stage", dying_run_stage)
    cfg = load_config(corpus)
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == cli.EXIT_INTERNAL
    assert_no_child_left()
    assert lines == ["[ok]   build-tasks", "[ok]   inject",
                     "[fail] sanitize: worker process ended before the stage did (exit 1)"]
    assert_run_state_empty()


def test_rerun_records_the_digests_of_rewritten_outputs(corpus):
    # tts-select's outputs are hashed before it re-runs; the state must
    # record the digests of what it then writes.
    cfg = load_config(corpus)
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    text = cfg.rollouts.read_text(encoding="utf-8")
    cfg.rollouts.write_text(text.replace('"resolved":false', '"resolved":true'), encoding="utf-8")
    before = (cfg.out_dir / "selection.jsonl").read_bytes()
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    assert (cfg.out_dir / "selection.jsonl").read_bytes() != before
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == EXIT_OK
    assert all(line.startswith("[skip]") for line in lines)


def test_run_pipeline_reads_curated_once_and_hashes_each_content_once(corpus, monkeypatch):
    # Counts, not timings: within one run, nothing reloads curated.jsonl,
    # each instance corpus is decoded once, stats parses each golden patch
    # once, and no file is hashed twice while its content is unchanged.
    loaded, hashed, built, parsed_in = [], [], [], []
    running = [None]
    real_load, real_sha256, real_run_stage = cli.load_corpus, cli._sha256, cli.run_stage
    real_from_record = TaskInstance.from_record.__func__
    real_parse_patch = patch_analysis.parse_patch

    def counting_load(path, kind):
        loaded.append(Path(path))
        return real_load(path, kind)

    def counting_sha256(path):
        digest = real_sha256(path)
        hashed.append((path, digest))
        return digest

    def counting_from_record(cls, record):
        built.append(record.get("instance_id"))
        return real_from_record(cls, record)

    def counting_parse_patch(text):
        parsed_in.append(running[0])
        return real_parse_patch(text)

    def recording_run_stage(stage, cfg):
        running[0] = stage
        try:
            return real_run_stage(stage, cfg)
        finally:
            running[0] = None

    monkeypatch.setattr(cli, "load_corpus", counting_load)
    monkeypatch.setattr(cli, "_sha256", counting_sha256)
    monkeypatch.setattr(cli, "run_stage", recording_run_stage)
    monkeypatch.setattr(TaskInstance, "from_record", classmethod(counting_from_record))
    monkeypatch.setattr(patch_analysis, "parse_patch", counting_parse_patch)
    cfg = load_config(corpus)
    instance_files = [cfg.out_dir / "instances_real.jsonl", cfg.out_dir / "instances_synth.jsonl"]
    for run in ("cold", "no-change"):
        for seen in (loaded, hashed, built, parsed_in):
            seen.clear()
        assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK, run
        assert cfg.out_dir / "curated.jsonl" not in loaded, run
        assert all(loaded.count(path) <= 1 for path in instance_files), run
        instance_lines = sum(len(read_jsonl(path)) for path in instance_files)
        assert len(built) <= instance_lines, run
        expected = read(cfg.out_dir / "corpus_stats.json")["combined"]["instances"] if run == "cold" else 0
        assert parsed_in.count("stats") == expected, run
        assert len(hashed) == len(set(hashed)), run
        assert_run_state_empty()
    assert cfg.out_dir / "curated.jsonl" in {path for path, _ in hashed}


def test_rejected_corpus_is_never_kept(corpus, monkeypatch):
    # A corpus with a bad line fails its first reader and is not kept for
    # later ones; outside a run every stage reads its corpora from disk.
    cfg = run_stages(load_config(corpus), "build-tasks")
    external = corpus.parent / "external_instances.jsonl"
    good = (cfg.out_dir / "instances_real.jsonl").read_text(encoding="utf-8")
    external.write_text(good + "{not json\n", encoding="utf-8")
    with open(corpus, "a", encoding="utf-8") as f:
        f.write("instances = external_instances.jsonl\n")
    cfg = load_config(corpus)
    held_at_reject = []
    real_reject = cli._reject

    def recording_reject(cfg, stage, entries, what):
        held_at_reject.append([path.name for path, _ in cli._handoff])
        real_reject(cfg, stage, entries, what)

    monkeypatch.setattr(cli, "_reject", recording_reject)
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == EXIT_VALIDATION
    assert lines[-1].startswith("[fail] curate:")
    entries = read_jsonl(cfg.out_dir / "curate_rejections.jsonl")
    assert [(e["file"], e["line_no"], e["codes"]) for e in entries] == [
        (str(external), good.count("\n") + 1, ["BAD_JSON"])
    ]
    assert held_at_reject == [["instances_real.jsonl", "instances_synth.jsonl"]]
    assert_run_state_empty()

    external.write_text(good, encoding="utf-8")
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    loaded = []
    real_load = cli.load_corpus

    def counting_load(path, kind):
        loaded.append(Path(path).name)
        return real_load(path, kind)

    monkeypatch.setattr(cli, "load_corpus", counting_load)
    assert cli.main(["classify-errors", "--config", str(corpus)]) == EXIT_OK
    assert loaded == ["curated.jsonl", "instances_real.jsonl", "instances_synth.jsonl", external.name]
    assert_run_state_empty()


def test_every_corpus_load_in_cli_goes_through_one_reader():
    # cli reads each corpus through _corpus, which keeps it for the run.
    calls = []

    class Finder(ast.NodeVisitor):
        scope = ["cli"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) == "load_corpus":
                calls.append(".".join(self.scope))
            self.generic_visit(node)

    Finder().visit(ast.parse(Path(cli.__file__).read_text(encoding="utf-8")))
    assert calls == ["cli._corpus"]


def test_sanitize_parses_each_date_once(corpus, monkeypatch):
    parsed = []
    real_parse = schema_mod.parse_timestamp

    def counting_parse(text):
        parsed.append(text)
        return real_parse(text)

    monkeypatch.setattr("lego_forge.repo_sanitizer.parse_timestamp", counting_parse)
    monkeypatch.setattr(cli, "parse_timestamp", counting_parse)
    cfg = run_stages(load_config(corpus), "sanitize")
    cutoff = [h for h in read_jsonl(cfg.histories) if h["policy"] == "cutoff"]
    assert cutoff
    assert sorted(parsed) == sorted(
        date for h in cutoff for date in (h["cutoff"], *(c["author_date"] for c in h["commits"]))
    )


def test_sanitize_drops_a_history_the_cutoff_empties(corpus):
    cfg = load_config(corpus)
    late = {"instance_id": "late", "policy": "cutoff", "cutoff": "2020-01-01T00:00:00Z",
            "commits": [{"commit_id": "c1", "author_date": "2021-01-01T00:00:00Z", "message": "m",
                         "parent_ids": []}]}
    with open(cfg.histories, "a", encoding="utf-8") as f:
        f.write(json.dumps(late) + "\n")
    code, report = run_stage("sanitize", cfg)
    assert code == EXIT_OK
    assert report["dropped"] == [
        {"instance_id": "late", "reason": "no commits remain at or before 2020-01-01T00:00:00Z"}
    ]
    kept = read_jsonl(cfg.out_dir / "sanitized_histories.jsonl")
    assert len(kept) == report["sanitized"] == len(read_jsonl(cfg.histories)) - 1
    assert "late" not in [line["instance_id"] for line in kept]


def test_interrupted_stage_leaves_no_partial_output(corpus, monkeypatch):
    cfg = load_config(corpus)
    run_stages(cfg, "build-tasks", "inject")

    import lego_forge.schema as schema_mod

    real_write = schema_mod.atomic_write_text
    calls = {"n": 0}

    def exploding_write(path, text):
        calls["n"] += 1
        if "curated" in str(path):
            raise KeyboardInterrupt("simulated kill mid-write")
        real_write(path, text)

    monkeypatch.setattr("lego_forge.schema.atomic_write_text", exploding_write)
    with pytest.raises(KeyboardInterrupt):
        cli._stage_curate(cfg)
    monkeypatch.setattr("lego_forge.schema.atomic_write_text", real_write)
    assert not (cfg.out_dir / "curated.jsonl").exists()
    leftovers = [p for p in cfg.out_dir.glob(".curated.jsonl.*") if p.exists()]
    assert leftovers == []


def test_atomic_writer_cleans_up_temp_file(tmp_path, monkeypatch):
    from lego_forge.schema import atomic_write_text

    target = tmp_path / "artifact.json"

    class Boom(RuntimeError):
        pass

    real_replace = os.replace

    def failing_replace(src, dst):
        raise Boom("no rename for you")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(Boom):
        atomic_write_text(target, "data")
    monkeypatch.setattr(os, "replace", real_replace)
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Entry point


def test_main_runs_single_stage(corpus, capsys):
    assert cli.main(["build-tasks", "--config", str(corpus)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[ok]" in out and "build-tasks" in out


def test_main_pipeline_and_seed_override(corpus):
    assert cli.main(["pipeline", "--config", str(corpus), "--seed", "7"]) == EXIT_OK


def test_main_reports_missing_config(tmp_path, capsys):
    code = cli.main(["stats", "--config", str(tmp_path / "absent.cfg")])
    assert code == EXIT_MISSING_INPUT


def test_export_history_command(tmp_path, capsys):
    import shutil
    import subprocess

    if shutil.which("git") is None:
        pytest.skip("git unavailable")
    repo = tmp_path / "repo"
    repo.mkdir()
    env = {
        "GIT_AUTHOR_NAME": "dev", "GIT_AUTHOR_EMAIL": "d@e.c",
        "GIT_COMMITTER_NAME": "dev", "GIT_COMMITTER_EMAIL": "d@e.c",
        "GIT_AUTHOR_DATE": "2023-01-01T00:00:00+00:00",
        "GIT_COMMITTER_DATE": "2023-01-01T00:00:00+00:00",
        "HOME": str(tmp_path), "PATH": "/usr/bin:/bin:/usr/local/bin",
    }
    subprocess.run(["git", "init", "-q"], cwd=repo, env=env, check=True)
    (repo / "f.txt").write_text("x\n")
    subprocess.run(["git", "add", "f.txt"], cwd=repo, env=env, check=True)
    subprocess.run(["git", "commit", "-q", "-m", "first"], cwd=repo, env=env, check=True)

    out_file = tmp_path / "history.jsonl"
    code = cli.main(["export-history", "--repo", str(repo), "--out", str(out_file)])
    assert code == EXIT_OK
    records = read_jsonl(out_file)
    assert records[0]["message"] == "first"
