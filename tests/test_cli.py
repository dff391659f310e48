import ast
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lego_forge import cli
from lego_forge.cli import (
    EXIT_INTERNAL,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    EXIT_VALIDATION,
    load_config,
    run_pipeline,
    run_stage,
)
from lego_forge.errors import ForgeError, ValidationFailure
from lego_forge.registries import (
    DEFAULT_ERROR_PATTERNS,
    DEFAULT_HACK_PATTERNS,
    DEFAULT_PHASE_PATTERNS,
    content_lines,
    load_error_patterns,
    load_hack_patterns,
    load_phase_patterns,
)
from lego_forge import error_taxonomy, patch_analysis, sft_masking, task_builder, trajectory_curation
from lego_forge import schema as schema_mod
from lego_forge.schema import IndexEntry, TaskInstance, ToolCall, Trajectory, load_corpus, save_jsonl
from lego_forge.sft_masking import assign_phases, detect_step_errors
from lego_forge.trajectory_curation import UnrepairableCallError, prune_toolset, repair_tool_call

from conftest import PARSER_REFUSALS, TOY_CALC, TOY_TESTS, build_integration_corpus, read_jsonl


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
    # no stage can use are all rejected with the file and line, never as a
    # bare ValueError. Comment and blank lines, indented or not, in LF or
    # CRLF files, are skipped but counted.
    bad = tmp_path / "forge.cfg"
    for line in ("not_a_key = 1", "max_turns = abc", "latency_c = fast",
                 "recycle_semi_resolved = maybe", "latency_budget = 0", "latency_budget = -1",
                 "latency_budget = nan", "bucket_width = 0", "latency_c = -1", "latency_c = nan",
                 "latency_alpha = 5", "latency_beta = 2", "context_limit = -5", "latency_budget = inf",
                 "latency_c = inf"):
        for newline in ("\n", "\r\n"):
            bad.write_bytes(newline.join(["# comment", "  # indented", "", line, ""]).encode())
            with pytest.raises(ForgeError, match=re.escape(f"{bad.resolve()}:4: ")):
                load_config(bad)


def test_config_and_registry_lines_end_only_at_newlines(tmp_path):
    # Config and registry lines end at \n, \r\n or \r; a form feed or U+2028
    # is text within its line, as str.splitlines would not have it.
    assert list(content_lines("a\rb\r\n# c\x0cd\ne\u2028f\n\n")) == [(1, "a"), (2, "b"), (4, "e\u2028f")]
    (tmp_path / "errors.txt").write_text("X1 foo\u2028bar\r\n# x\x0c y\rX2 baz\n", encoding="utf-8")
    config = tmp_path / "forge.cfg"
    config.write_text("# section\x0c notes\nseed = 1\nout_dir = out\u2028x\nerror_patterns = errors.txt\n",
                      encoding="utf-8")
    cfg = load_config(config)
    assert (cfg.seed, cfg.out_dir) == (1, tmp_path / "out\u2028x")
    patterns = load_error_patterns(cfg.error_patterns)
    assert [(p.pattern_id, p.regex.pattern) for p in patterns] == [("X1", "foo\u2028bar"), ("X2", "baz")]


@pytest.mark.parametrize("key", [None, "hack_patterns", "error_patterns", "phase_patterns"])
def test_undecodable_config_or_registry_exits_1_with_its_path(tmp_path, capsys, key):
    config = tmp_path / "forge.cfg"
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"TRACEBACK \xff\n")
    config.write_bytes(b"seed = 1\n\xff\n" if key is None else f"{key} = bad.txt\n".encode())
    assert cli.main(["pipeline", "--config", str(config)]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(config if key is None else bad) in err
    assert not (tmp_path / "out").exists()


def test_config_and_registries_may_start_with_a_byte_order_mark(tmp_path):
    # A UTF-8 byte-order mark before a config or registry file's first line
    # is no part of its first key or entry. A JSON Lines input still refuses
    # one: its first line is BAD_JSON.
    bom = "\ufeff".encode()
    (tmp_path / "hacks.txt").write_bytes(bom + b"H1 high \\bgit log\\b\n")
    (tmp_path / "errors.txt").write_bytes(bom + b"E1 boom\n")
    (tmp_path / "phases.txt").write_bytes(bom + b"testing pytest\n")
    config = tmp_path / "forge.cfg"
    config.write_bytes(bom + b"seed = 5\nhack_patterns = hacks.txt\nerror_patterns = errors.txt\n"
                             b"phase_patterns = phases.txt\n")
    cfg = load_config(config)
    assert cfg.seed == 5
    assert [p.pattern_id for p in load_hack_patterns(cfg.hack_patterns)] == ["H1"]
    assert [p.pattern_id for p in load_error_patterns(cfg.error_patterns)] == ["E1"]
    assert [r.phase for r in load_phase_patterns(cfg.phase_patterns)] == ["testing"]
    lines = tmp_path / "input.jsonl"
    lines.write_bytes(bom + b'{"n": 1}\n{"n": 2}\n')
    rejections = []
    assert list(schema_mod.read_jsonl(lines, lambda record: record["n"], rejections)) == [2]
    assert [(r.line_no, r.codes) for r in rejections] == [(1, ("BAD_JSON",))]


@pytest.mark.parametrize("line", ["", "out_dir = forge.cfg\n", "out_dir = forge.cfg/sub\n"])
def test_out_dir_that_is_not_a_directory_fails_at_load(tmp_path, line):
    # The default `out` as much as a set out_dir: a file where the tree
    # would go exits 1 at load, not with a traceback from the first write.
    config = tmp_path / "forge.cfg"
    config.write_text(line, encoding="utf-8")
    (tmp_path / "out").write_text("a file", encoding="utf-8")
    with pytest.raises(ForgeError, match="is not a directory"):
        load_config(config)


# One path component longer than any file system allows (ENAMETOOLONG).
TOO_LONG = "x" * 300


@pytest.mark.parametrize("text, line_no", [
    ("easy_upper = 80\nmedium_upper = 70\n", 2),
    ("medium_upper = 90\nseed = 1\nmax_turns = 80\n", 3),
    ("max_turns = 60\nseed = 1\n", 1),
    ("seed = 1\nverifier = best\nseed = 2\n", 2),
])
def test_bin_and_verifier_errors_name_the_last_line_involved(tmp_path, text, line_no):
    config = tmp_path / "forge.cfg"
    config.write_text(text, encoding="utf-8")
    with pytest.raises(ForgeError, match=re.escape(f"{config.resolve()}:{line_no}: ")):
        load_config(config)


def test_out_dir_that_cannot_be_looked_up_fails_at_load(tmp_path, capsys):
    # A name the file system refuses exits 1 at load with the config's path,
    # not with a traceback.
    config = tmp_path / "forge.cfg"
    config.write_text(f"out_dir = {TOO_LONG}\n", encoding="utf-8")
    assert cli.main(["pipeline", "--config", str(config)]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config.resolve()}: out_dir {tmp_path.resolve() / TOO_LONG} cannot be looked up: ")


@pytest.mark.parametrize("key", ["trajectories", "instances"])
def test_input_that_cannot_be_looked_up_is_missing_input(corpus, capsys, key):
    # Such an input is no part of curate's record, and the stage exits 2
    # from _require_input, as for a missing one.
    with corpus.open("a", encoding="utf-8") as f:
        f.write(f"{key} = {TOO_LONG}.jsonl\n")
    assert cli.main(["pipeline", "--config", str(corpus)]) == EXIT_MISSING_INPUT
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith(f"[fail] curate: {key} {corpus.parent / TOO_LONG}.jsonl cannot be looked up: ")
    assert last.endswith(" (exit 2)")


def test_missing_instances_file_is_missing_input(corpus):
    # A set `instances` file that does not exist exits 2 at the first stage
    # that reads instances, as every other missing input does.
    with corpus.open("a", encoding="utf-8") as f:
        f.write("instances = nope.jsonl\n")
    lines = []
    assert run_pipeline(load_config(corpus), echo=lines.append) == EXIT_MISSING_INPUT
    assert lines[-1] == f"[fail] curate: instances {corpus.parent / 'nope.jsonl'} does not exist (exit 2)"


def edit_resolved_trajectory(config: Path, **changes) -> None:
    """Apply `changes` to traj-resolved in the integration corpus."""
    path = config.parent / "trajectories.jsonl"
    records = read_jsonl(path)
    for record in records:
        if record["trajectory_id"] == "traj-resolved":
            record.update(changes)
    save_jsonl(records, path)


def test_over_budget_trajectory_is_curated_unresolved(corpus):
    # Five turns over a budget of three is valid only as unresolved (or
    # error), so curate must not reclassify it resolved.
    edit_resolved_trajectory(corpus, max_turns=3, outcome="unresolved")
    cfg = load_config(corpus)
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    curated = {t.trajectory_id: t for t in load_corpus(cfg.out_dir / "curated.jsonl", "trajectories").records}
    assert curated["traj-resolved"].outcome == "unresolved"


def test_turn_count_outside_every_bin_fails_curriculum_with_exit_3(corpus):
    # A trajectory's own budget may exceed the config's; one that resolves
    # beyond the last bin cannot be staged, which is a validation failure.
    trajectories = read_jsonl(corpus.parent / "trajectories.jsonl")
    steps = next(t for t in trajectories if t["trajectory_id"] == "traj-resolved")["steps"]
    think = {"action": {"tool": "think", "arguments": {"thought": "plan"}}, "observation": "",
             "phase": "other", "error_flag": False}
    steps = [*steps[:-1], *[think] * (150 - len(steps)), steps[-1]]
    edit_resolved_trajectory(corpus, max_turns=200, turn_count=150,
                             steps=[{**step, "index": i} for i, step in enumerate(steps)])
    lines = []
    assert run_pipeline(load_config(corpus), echo=lines.append) == EXIT_VALIDATION
    assert lines[-1] == "[fail] curriculum: turn count 150 outside all bins (exit 3)"


def test_editing_a_configured_registry_reruns_curate(tmp_path):
    # The skip logic hashes the registries curate reads: replacing one
    # re-runs curate and the stages that read its output, and the tree then
    # equals a fresh run's.
    edited = build_integration_corpus(tmp_path / "edited")
    fresh = build_integration_corpus(tmp_path / "fresh")
    for config in (edited, fresh):
        with config.open("a", encoding="utf-8") as f:
            f.write("error_patterns = errors.txt\n")
    (edited.parent / "errors.txt").write_text(DEFAULT_ERROR_PATTERNS.read_text(encoding="utf-8"),
                                              encoding="utf-8")
    assert run_pipeline(load_config(edited), echo=lambda s: None) == EXIT_OK
    for config in (edited, fresh):
        (config.parent / "errors.txt").write_text("ANY .\n", encoding="utf-8")
    lines = []
    assert run_pipeline(load_config(edited), echo=lines.append) == EXIT_OK
    assert [line for line in lines if line.startswith("[ok]")] == [
        f"[ok]   {stage}" for stage in ("curate", "mask", "curriculum", "classify-errors")
    ]
    assert run_pipeline(load_config(fresh), echo=lambda s: None) == EXIT_OK
    assert tree_bytes(edited.parent / "out") == tree_bytes(fresh.parent / "out")


@pytest.mark.parametrize("edited", ["a", "b"])
def test_registries_of_one_file_name_are_recorded_apart(tmp_path, edited):
    # Two registries named patterns.txt in different directories each keep
    # their own digest in curate's entry, so a comment appended to either
    # re-runs curate; the readers then find curated.jsonl unchanged.
    config = build_integration_corpus(tmp_path / "corpus")
    for sub, registry in (("a", DEFAULT_HACK_PATTERNS), ("b", DEFAULT_ERROR_PATTERNS)):
        (config.parent / sub).mkdir()
        (config.parent / sub / "patterns.txt").write_bytes(registry.read_bytes())
    with config.open("a", encoding="utf-8") as f:
        f.write("hack_patterns = a/patterns.txt\nerror_patterns = b/patterns.txt\n")
    assert run_pipeline(load_config(config), echo=lambda s: None) == EXIT_OK
    with (config.parent / edited / "patterns.txt").open("a", encoding="utf-8") as f:
        f.write("\n# an edit\n")
    lines = []
    assert run_pipeline(load_config(config), echo=lines.append) == EXIT_OK
    assert [line for line in lines if not line.startswith("[skip]")] == ["[ok]   curate"]


def test_config_missing_registry_is_missing_input(tmp_path):
    bad = tmp_path / "forge.cfg"
    bad.write_text("hack_patterns = nowhere.txt\n", encoding="utf-8")
    with pytest.raises(cli.MissingInputError):
        load_config(bad)


@pytest.mark.parametrize("key", ["hack_patterns", "error_patterns", "phase_patterns"])
@pytest.mark.parametrize("value, problem", [
    ("nowhere.txt", "does not exist"), ("sub", "is not a regular file"),
])
def test_registry_path_that_is_missing_or_a_directory_exits_2(tmp_path, capsys, key, value, problem):
    (tmp_path / "sub").mkdir()
    config = tmp_path / "forge.cfg"
    config.write_text(f"{key} = {value}\n", encoding="utf-8")
    assert cli.main(["pipeline", "--config", str(config)]) == EXIT_MISSING_INPUT
    assert capsys.readouterr().err == f"error: registry file {tmp_path / value} {problem}\n"


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
        assert read_jsonl(cfg.out_dir / f"stage{n}.jsonl") == [{"trajectory_id": "kept"}]


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


def test_inject_over_a_crlf_snapshot_restores_it_byte_for_byte(corpus):
    # Snapshot files keep their \r\n endings, and a diff line ends at \n
    # alone, so each golden patch restores the files on disk exactly.
    from lego_forge.patch_analysis import apply_patch, parse_patch

    cfg = load_config(corpus)
    on_disk = {}
    for path in sorted(cfg.snapshot_dir.rglob("*")):
        if path.is_file():
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
            on_disk[path.relative_to(cfg.snapshot_dir).as_posix()] = path.read_bytes()
    code, report = run_stage("inject", cfg)
    assert code == EXIT_OK and report["built"] == 2
    snapshot = {rel: data.decode("utf-8") for rel, data in on_disk.items()}
    for inst in load_corpus(cfg.out_dir / "instances_synth.jsonl", "instances").records:
        assert "\r\n" in inst.golden_patch
        buggy = apply_patch(parse_patch(inst.extra["injection_patch"]), snapshot)
        assert buggy != snapshot
        restored = apply_patch(parse_patch(inst.golden_patch), buggy)
        assert {rel: text.encode("utf-8") for rel, text in restored.items()} == on_disk


@pytest.mark.parametrize("cut_at_form_feed", [False, True])
def test_form_feed_near_an_injected_edit(corpus, monkeypatch, cut_at_form_feed):
    # Diff lines break only at \n, so the mutation applies; a diff that still
    # fails to parse (here, read by a rule that breaks at the form feed)
    # rejects its spec with exit 3.
    if cut_at_form_feed:
        parse = task_builder.parse_patch
        monkeypatch.setattr(task_builder, "parse_patch", lambda text: parse(text.replace("\x0c", "\n")))
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


@pytest.mark.parametrize("source", PARSER_REFUSALS.values(), ids=PARSER_REFUSALS)
def test_snapshot_file_the_parser_refuses_is_no_wildcard_target(corpus, source):
    # Whatever ast.parse raises for a snapshot file, a wildcard spec skips
    # the file as it skips one with a syntax error, so inject builds the
    # same instances, on every supported Python, as without the file.
    cfg = load_config(corpus)
    mutations = read_jsonl(cfg.mutations)
    wildcard = {key: value for key, value in mutations[1].items() if key != "path"}  # loop_removal
    save_jsonl([*mutations, wildcard], cfg.mutations)
    run_stages(cfg, "inject")
    built = (cfg.out_dir / "instances_synth.jsonl").read_bytes()
    (cfg.snapshot_dir / "refused.py").write_text(source, encoding="utf-8")
    code, report = run_stage("inject", cfg)
    assert (code, report["built"]) == (EXIT_OK, 3), report
    assert (cfg.out_dir / "instances_synth.jsonl").read_bytes() == built


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
            target = {key: getattr(loc, key) for key in task_builder._LOCATOR_FIELDS}
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

    def recording_build(record):
        reached.append(record)
        return real_build(record)

    def counting_parse(text):
        parsed.append(text)
        return real_parse(text)

    monkeypatch.setattr(task_builder, "build_real_instance", recording_build)
    monkeypatch.setattr(task_builder, "parse_patch", counting_parse)
    monkeypatch.setattr(patch_analysis, "parse_patch", counting_parse)
    code, report = run_stage("build-tasks", cfg)
    assert code == EXIT_OK
    assert report["built"] == len(prs)
    # Record 903's date fails before its diff is parsed, 902's empty issue too.
    assert sorted(parsed) == sorted(
        pr["merged_diff"] for pr in reached if pr["issue_text"].strip() and pr["number"] != 903
    )
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


def raw_argument(number):
    """A probe line: the first trajectory with `number` written raw as an
    argument of its first action, where curate keeps whatever it finds."""
    def line(first):
        step = first["steps"][0]
        action = {**step["action"], "arguments": {**step["action"]["arguments"], "limit": "@number@"}}
        return json.dumps({**first, "steps": [{**step, "action": action}, *first["steps"][1:]]}).replace(
            '"@number@"', number)

    return line


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
        ("mutations", edited(seed=True), ["BAD_RECORD"], "seed-true"),
        ("mutations", edited(mutator="swap"), ["BAD_RECORD"], "unknown-mutator"),
        ("surface", edited(rollouts=0), ["BAD_RECORD"], "rollouts-zero"),
        ("surface", edited(rate=float("nan")), ["BAD_JSON"], "rate-nan"),  # NaN is no JSON number
        ("surface", edited(rate="0.9"), ["BAD_RECORD"], "rate-string"),
        ("surface", edited(rate=5), ["BAD_RECORD"], "rate-above-one"),
        ("surface", edited(turns=True), ["BAD_RECORD"], "turns-true"),
        ("surface", edited(turns=2.7), ["BAD_RECORD"], "turns-fraction"),
        ("surface", edited(turns=10**400), None, "turns-too-large-for-a-float"),
        ("rollouts", edited(resolved="yes"), ["BAD_RECORD"], "resolved-string"),
        ("rollouts", edited(rollout_index=True), ["BAD_RECORD"], "rollout-index-true"),
        ("rollouts", edited(), ["DUPLICATE_ROLLOUT_INDEX"], "duplicate-line"),
        ("real_inputs", edited(issue_text=5), "field 'issue_text' has wrong type int", "issue-text-number"),
        ("real_inputs", edited(base_commit=5), "field 'base_commit' has wrong type int", "base-commit-number"),
        ("real_inputs", edited(issue_created_at="soon"), "invalid ISO-8601 timestamp: 'soon'",
         "bad-issue-created-at"),
        ("real_inputs", edited(issue_text="crash \ud800"), "lone surrogate", "issue-text-lone-surrogate"),
        ("trajectories", edited(final_patch="\udfff"), ["BAD_JSON"], "lone-surrogate"),
        *(("trajectories", raw_argument(number), ["BAD_JSON"], f"argument-{number}")
          for number in ("NaN", "-Infinity", "1e400")),
        ("histories", edited(instance_id="h-\ud800"), ["BAD_JSON"], "lone-surrogate"),
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


@pytest.mark.parametrize(
    "key, stage", sorted({**PROBE_STAGES, "instances": "curate", "snapshot_dir": "inject"}.items())
)
def test_input_of_the_wrong_kind_is_missing_input(corpus, key, stage):
    # An input file that names a directory, or a snapshot_dir that names a
    # file, is no input: exit 2 naming the key and the path, as a missing one is.
    value, kind = ("forge.cfg", "directory") if key == "snapshot_dir" else ("snapshot", "regular file")
    with corpus.open("a", encoding="utf-8") as f:
        f.write(f"{key} = {value}\n")
    lines = []
    assert run_pipeline(load_config(corpus), echo=lines.append) == EXIT_MISSING_INPUT
    assert lines[-1] == f"[fail] {stage}: {key} {corpus.parent / value} is not a {kind} (exit 2)"


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


def test_contour_k_past_the_float_range_is_written_null(corpus):
    # Near the float limit every contour K overflows; tts-select still
    # succeeds and allocation.json stays standard JSON.
    with corpus.open("a", encoding="utf-8") as f:
        f.write("latency_budget = 1e308\n")
    assert cli.main(["tts-select", "--config", str(corpus)]) == EXIT_OK
    text = (load_config(corpus).out_dir / "allocation.json").read_text(encoding="utf-8")
    allocation = json.loads(text, parse_constant=lambda name: pytest.fail(f"non-standard JSON {name}"))
    assert allocation["contour"] and all(k is None for _, k in allocation["contour"])


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


def build_fuzz_curate_corpus(root: Path) -> Path:
    """A randomized, messy curate corpus of 40 trajectories in `root`; returns its config."""
    import random

    from conftest import make_instance, make_traj, random_trajectory, tracker_step
    from lego_forge.patch_analysis import make_patch
    from lego_forge.schema import save_corpus, save_jsonl

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
    return root / "forge.cfg"


def test_curate_fuzz_accounting_and_determinism(tmp_path):
    # A randomized, messy corpus: the stage must account for every
    # trajectory, emit only valid records, and be byte-deterministic.
    from lego_forge.schema import validate_trajectory

    cfg = load_config(build_fuzz_curate_corpus(tmp_path / "fuzz"))
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
# JSON values that json.loads refuses with RecursionError or a plain
# ValueError, not JSONDecodeError, and a word of each one's message.
UNDECODABLE_VALUES = {"deep-nesting": ("[" * 100_000, "recursion"), "huge-integer": ("7" * 5_000, "digits")}
# Numbers json.loads takes but strict JSON readers refuse.
NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e400")
FUZZ_KINDS = ("drop-key", "change-type", "nested-change-type", "truncate", "array", "blank", "not-utf8",
              "non-finite", *UNDECODABLE_VALUES)


def nested_slots(value):
    """(container, key) of every value nested in `value`, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield value, key
        yield from nested_slots(child)


def strict_json(text: str):
    """json.loads, refusing the NaN and Infinity tokens that strict JSON readers refuse."""
    def refuse(token):
        raise AssertionError(f"{token} is not standard JSON")

    return json.loads(text, parse_constant=refuse)


def fuzz_line(path: Path, lines: list[str], kind: str, data) -> None:
    """Write `lines`, JSON texts, to `path` as JSON lines, with one of them
    edited as fuzz `kind` says (see the fuzz tests below); a kind not in
    FUZZ_KINDS re-encodes it with json.dumps only."""
    n = data.draw(st.integers(0, len(lines) - 1), label="line")
    record = json.loads(lines[n])
    top = [(record, field) for field in sorted(record)]
    nested = [slot for _, field in top for slot in nested_slots(record[field])]
    # A non-finite number goes over a value, or into a field no record type declares.
    slots = {"nested-change-type": nested or top, "non-finite": [(record, "fuzzed"), *top, *nested]}.get(kind, top)
    container, field = slots[data.draw(st.integers(0, len(slots) - 1), label="slot")]
    if kind == "drop-key":
        del container[field]
    elif kind in ("change-type", "nested-change-type"):
        container[field] = data.draw(
            st.sampled_from([v for v in FUZZ_VALUES if type(v) is not type(container[field])]))
    elif kind in (*UNDECODABLE_VALUES, "not-utf8", "non-finite"):
        container[field] = "@undecodable@"
    lines[n] = json.dumps(record)
    if kind in UNDECODABLE_VALUES:
        lines[n] = lines[n].replace('"@undecodable@"', UNDECODABLE_VALUES[kind][0])
    elif kind == "non-finite":
        lines[n] = lines[n].replace('"@undecodable@"', data.draw(st.sampled_from(NON_FINITE), label="number"))
    elif kind == "not-utf8":
        lines[n] = lines[n].replace("@undecodable@", "\udcff")  # written as the byte 0xff
    elif kind == "truncate":
        lines[n] = lines[n][: data.draw(st.integers(1, len(lines[n]) - 1), label="cut")]
    elif kind in ("array", "blank"):
        lines.insert(n, "[1, 2]" if kind == "array" else "")
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8", errors="surrogateescape")


STATE = ".forge_state.json"


@settings(max_examples=150, derandomize=True, deadline=None)
@given(key=st.sampled_from([*sorted(PROBE_STAGES), "curated", STATE]), kind=st.sampled_from(FUZZ_KINDS),
       data=st.data())
def test_fuzzed_input_line_ends_in_a_report_never_a_traceback(key, kind, data):
    # One line of one stage input, or of curated.jsonl under the single-stage
    # reader runs, loses a key, changes a type (of a field, or of a value
    # nested in a step, an action's arguments, a test result or a commit), is
    # truncated, has a value nested past the recursion limit, an integer past
    # int's digit limit, NaN, Infinity, a number past the float range or a
    # byte that is not UTF-8, or gets an array or blank line inserted before
    # it; every stage then exits 0, 2 or 3 with its report written and no
    # partial output, and every JSON output of a stage that exits 0 is
    # standard JSON. The state file of a finished run, taken as one line,
    # gets the same edits; `forge pipeline` then exits 0 and writes every
    # other output byte for byte as the clean run did.
    with tempfile.TemporaryDirectory() as tmp:
        cfg = load_config(build_integration_corpus(Path(tmp)))
        if key == STATE:
            assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
            clean = tree_bytes(cfg.out_dir)
            path, stages = cfg.out_dir / STATE, []
        elif key == "curated":
            run_stages(cfg, "build-tasks", "inject", "curate")
            path, stages = cfg.out_dir / "curated.jsonl", [stage for stage in cli.STAGES if stage.reader]
        else:
            path, stages = getattr(cfg, key), cli.STAGES
        text = path.read_text(encoding="utf-8")
        fuzz_line(path, [text.removesuffix("\n")] if key == STATE else text.split("\n")[:-1], kind, data)
        if key == STATE:
            assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
            after = tree_bytes(cfg.out_dir)
            assert after.pop(STATE) and clean.pop(STATE)
            assert after == clean
        for stage in stages:
            code, _ = run_stage(stage.name, cfg)
            assert code in (EXIT_OK, EXIT_MISSING_INPUT, EXIT_VALIDATION), stage.name
            assert (cfg.out_dir / stage.report).exists(), stage.name
            if code != EXIT_OK:
                assert not [name for name in stage.outputs(cfg) if (cfg.out_dir / name).exists()], stage.name
                continue
            for name in (*stage.outputs(cfg), stage.report):
                text = (cfg.out_dir / name).read_text(encoding="utf-8")
                for part in text.split("\n")[:-1] if name.endswith(".jsonl") else [text]:
                    strict_json(part)
        assert not [p.name for p in cfg.out_dir.iterdir() if p.name.endswith(".tmp")]


@pytest.fixture(scope="module")
def finished_template(tmp_path_factory):
    """The integration corpus with the out_dir of a finished `forge pipeline` run."""
    config = build_integration_corpus(tmp_path_factory.mktemp("finished") / "corpus")
    assert run_pipeline(load_config(config), echo=lambda s: None) == EXIT_OK
    return config.parent


@settings(max_examples=100, derandomize=True, deadline=None)
@given(key=st.sampled_from(["histories", "rollouts"]), kind=st.sampled_from(FUZZ_KINDS), data=st.data())
def test_fuzzed_worker_input_line_fails_its_stage_in_stage_order(finished_template, key, kind, data):
    # One line of a finished run's `histories` or `rollouts` gets one of the
    # edits above, and `forge pipeline` re-runs that input's stage in the
    # forked worker. The run exits 0, 2 or 3. A failing stage prints its
    # `[fail]` line last, writes its report (and its rejections at exit 3)
    # and leaves no state entry; no temp file is left either way.
    with tempfile.TemporaryDirectory() as tmp:
        cfg = load_config(shutil.copytree(finished_template, Path(tmp) / "corpus") / "forge.cfg")
        path = getattr(cfg, key)
        stage = next(s for s in cli.STAGES if s.inputs(cfg)[0] == path)
        fuzz_line(path, path.read_text(encoding="utf-8").split("\n")[:-1], kind, data)
        lines, workers = [], []
        with pytest.MonkeyPatch.context() as patch:
            fork_worker = cli._fork_worker
            patch.setattr(cli, "_fork_worker", lambda *args: workers.append(fork_worker(*args)) or workers[-1])
            code = run_pipeline(cfg, echo=lines.append)
        assert_no_child_left()
        assert len(workers) == 1 and workers[0] is not None
        assert code in (EXIT_OK, EXIT_MISSING_INPUT, EXIT_VALIDATION), lines
        assert read(cfg.out_dir / stage.report)["exit_code"] == code
        state = read(cfg.out_dir / STATE)
        if code == EXIT_OK:
            assert f"[ok]   {stage.name}" in lines and stage.name in state
        else:
            assert re.fullmatch(rf"\[fail\] {stage.name}: .+ \(exit {code}\)", lines[-1]), lines[-1]
            rejections = cfg.out_dir / f"{stage.name.replace('-', '_')}_rejections.jsonl"
            assert rejections.exists() == (code == EXIT_VALIDATION)
            assert stage.name not in state
        assert not [p.name for p in cfg.out_dir.iterdir() if p.name.endswith(".tmp")]


# Config values: empty, signed numbers (nan, inf, 1e-300, 10**400), booleans,
# garbage, a missing path, a directory, existing files of the wrong kind and
# a path longer than a file name may be.
CONFIG_VALUES = (
    "", "0", "-0", "1", "-1", "3", "-7", "2.5", "-2.5", "nan", "-nan", "inf", "-inf", "1e-300",
    "-1e-300", str(10**400), f"-{10**400}", "true", "false", "yes", "no", "garbage", "[1, 2]",
    "#", "= x", "no_such_file.jsonl", "snapshot", "forge.cfg", "snapshot/calc.py",
    "trajectories.jsonl", "x" * 300,
)


@pytest.fixture(scope="module")
def integration_template(tmp_path_factory):
    return build_integration_corpus(tmp_path_factory.mktemp("template") / "corpus").parent


@settings(max_examples=200, derandomize=True, deadline=None)
@given(key=st.sampled_from(sorted(cli._KEY_TYPES)), value=st.sampled_from(CONFIG_VALUES))
def test_any_config_value_exits_0_to_3_with_its_reports(integration_template, key, value):
    # One key of the integration corpus's config is set to a drawn value, and
    # `forge pipeline` runs cold: it exits 0-3 and never raises, an exit 1 at
    # load names the config (or the registry file whose line is bad), and
    # each stage it ran left its report.
    with tempfile.TemporaryDirectory() as tmp:
        root = shutil.copytree(integration_template, Path(tmp) / "corpus")
        config = root / "forge.cfg"
        lines = [line for line in config.read_text(encoding="utf-8").splitlines()
                 if line.partition("=")[0].strip() != key]
        config.write_text("\n".join([*lines, f"{key} = {value}", ""]), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["pipeline", "--config", str(config)])
        assert code in (EXIT_OK, EXIT_INTERNAL, EXIT_MISSING_INPUT, EXIT_VALIDATION)
        if err.getvalue():  # load_config failed, so no stage ran
            assert not out.getvalue()
            if code == EXIT_INTERNAL:
                named = [config, root / value] if key.endswith("_patterns") else [config]
                assert any(str(path.resolve()) in err.getvalue() for path in named), err.getvalue()
            return
        ran = re.findall(r"^\[(?:ok|fail)\]\s+([\w-]+)", out.getvalue(), re.MULTILINE)
        assert ran, out.getvalue()
        out_dir = load_config(config).out_dir
        reports = {stage.name: stage.report for stage in cli.STAGES}
        assert not [stage for stage in ran if not (out_dir / reports[stage]).exists()]


# Regexes that re.compile refuses with RecursionError (groups nested past the
# recursion limit) or OverflowError (a repeat count past the C range), not re.error.
HUGE_REPEAT = "{99999999999999999999}"
PAST_THE_PARSER = ("(" * 600 + "a" + ")" * 600, "a" + HUGE_REPEAT)


@pytest.mark.parametrize("key, fields", [("hack_patterns", "H1 high"), ("error_patterns", "E1"),
                                         ("phase_patterns", "testing")])
@pytest.mark.parametrize("regex", PAST_THE_PARSER, ids=["deep-nesting", "huge-repeat"])
def test_registry_regex_past_the_parser_limits_exits_1_with_one_line(tmp_path, capsys, key, fields, regex):
    registry = tmp_path / "registry.txt"
    registry.write_text(f"# a comment\n{fields} {regex}\n", encoding="utf-8")
    config = tmp_path / "forge.cfg"
    config.write_text(f"{key} = registry.txt\n", encoding="utf-8")
    assert cli.main(["pipeline", "--config", str(config)]) == EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert not out and err.startswith(f"error: {registry}:2: bad regex ") and err.count("\n") == 1


def run_fresh(args: list, **kwargs) -> subprocess.CompletedProcess:
    """Run `python *args` in a fresh process that imports this checkout's lego_forge."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True, text=True,
                          timeout=120, **kwargs)


def test_registry_regex_warning_names_its_registry_line(tmp_path):
    # A regex that `re` warns about (a possible nested set) is reported at
    # its registry file and line, not inside registries.py, and the run
    # exits as it does with a regex that draws no warning.
    registry, config = tmp_path / "registry.txt", tmp_path / "forge.cfg"
    config.write_text("error_patterns = registry.txt\n", encoding="utf-8")
    runs = {}
    for regex in ("[[a]", "[a]"):
        registry.write_text(f"E1 {regex}\n", encoding="utf-8")
        runs[regex] = run_fresh(["-m", "lego_forge.cli", "pipeline", "--config", config])
    warned, clean = runs["[[a]"], runs["[a]"]
    assert warned.returncode == clean.returncode
    assert f"{registry}:1: FutureWarning: Possible nested set" in warned.stderr
    assert "registries.py" not in warned.stderr and "Warning" not in clean.stderr


REGISTRIES = {"hack_patterns": DEFAULT_HACK_PATTERNS, "error_patterns": DEFAULT_ERROR_PATTERNS,
              "phase_patterns": DEFAULT_PHASE_PATTERNS}
REGISTRY_EDITS = ("drop-field", "unknown-name", "truncate-regex", "deep-nesting", "huge-repeat", "not-utf8")


@settings(max_examples=100, derandomize=True, deadline=None)
@given(key=st.sampled_from(sorted(REGISTRIES)), edit=st.sampled_from(REGISTRY_EDITS), data=st.data())
def test_fuzzed_registry_line_exits_0_to_2_never_a_traceback(integration_template, key, edit, data):
    # One entry of one registry file loses a field, gets an unknown severity
    # or phase (an error pattern's id, which any word may be, is changed to
    # one), has its regex truncated, nested past the recursion limit or given
    # a repeat count past the C range, or gets a byte that is not UTF-8;
    # `forge pipeline` then exits 0, 1 or 2 with at most one `error:` line,
    # which names the registry file, and never raises.
    with tempfile.TemporaryDirectory() as tmp:
        root = shutil.copytree(integration_template, Path(tmp) / "corpus")
        registry = root / f"{key}.txt"
        lines = REGISTRIES[key].read_bytes().split(b"\n")
        entries = [n for n, line in enumerate(lines) if line.strip() and not line.startswith(b"#")]
        n = entries[data.draw(st.integers(0, len(entries) - 1), label="entry")]
        fields = lines[n].decode().split(None, 2 if key == "hack_patterns" else 1)
        if edit == "drop-field":
            del fields[data.draw(st.integers(0, len(fields) - 1), label="field")]
        elif edit == "unknown-name":
            fields[1 if key == "hack_patterns" else 0] = "critical"
        elif edit == "truncate-regex":
            fields[-1] = fields[-1][: data.draw(st.integers(0, len(fields[-1]) - 1), label="cut")]
        elif edit == "deep-nesting":  # Hypothesis raises the recursion limit while a test runs
            depth = sys.getrecursionlimit()
            fields[-1] = "(" * depth + fields[-1] + ")" * depth
        elif edit == "huge-repeat":
            fields[-1] = f"({fields[-1]}){HUGE_REPEAT}"
        lines[n] = " ".join(fields).encode()
        if edit == "not-utf8":
            at = data.draw(st.integers(0, len(lines[n])), label="at")
            lines[n] = lines[n][:at] + b"\xff" + lines[n][at:]
        registry.write_bytes(b"\n".join(lines))
        config = root / "forge.cfg"
        with config.open("a", encoding="utf-8") as f:
            f.write(f"{key} = {registry.name}\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["pipeline", "--config", str(config)])
        assert code in (EXIT_OK, EXIT_INTERNAL, EXIT_MISSING_INPUT), (code, out.getvalue(), err.getvalue())
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert len(errors) <= 1 and all(str(registry) in line for line in errors), errors
        assert "Traceback (most recent call last)" not in out.getvalue() + err.getvalue()


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
    # Each stage file lists its members' ids; their content is in curated.jsonl.
    stages = [read_jsonl(cfg.out_dir / f"stage{i}.jsonl") for i in (1, 2, 3)]
    assert all(list(line) == ["trajectory_id"] for stage in stages for line in stage)
    ids = [{line["trajectory_id"] for line in stage} for stage in stages]
    assert ids[0] <= ids[1] <= ids[2]
    assert ids[2] == {"traj-resolved", "traj-semi"}
    assert ids[2] <= {t["trajectory_id"] for t in read_jsonl(cfg.out_dir / "curated.jsonl")}


def test_second_run_skips_every_stage(corpus, capsys):
    cfg = load_config(corpus)
    run_pipeline(cfg, echo=lambda s: None)
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == EXIT_OK
    assert len(lines) == 9
    assert all(line.startswith("[skip]") for line in lines)


def test_state_entry_is_the_stage_record(corpus):
    # A stage's entry is the [name, sha256] of the config file, of each input
    # that exists (no registry is configured here) and of each output.
    cfg = load_config(corpus)
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    out = cfg.out_dir
    paths = [cfg.config_path, cfg.trajectories, cfg.final_reports, out / "instances_real.jsonl",
             out / "instances_synth.jsonl", out / "curated.jsonl", out / "curation_report.json"]
    assert read(out / ".forge_state.json")["curate"] == [
        [path.name, hashlib.sha256(path.read_bytes()).hexdigest()] for path in paths]


def test_state_file_is_left_alone_when_its_bytes_would_not_change(corpus):
    # A re-run that skips every stage keeps the state file as it is; one
    # after an edit rewrites it.
    cfg = load_config(corpus)
    state = cfg.out_dir / ".forge_state.json"
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    before = state.stat()
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    after = state.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    cfg.rollouts.write_text(cfg.rollouts.read_text(encoding="utf-8").replace("summary", "SUMMARY"),
                            encoding="utf-8")
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    assert state.stat().st_ino != before.st_ino


def test_skipping_rerun_imports_no_stage_module(corpus):
    # A fresh process that loads the config and re-runs a finished pipeline
    # skips every stage, so it never imports a stage's modules, nor the
    # record layer or the curriculum.
    assert run_pipeline(load_config(corpus), echo=lambda s: None) == EXIT_OK
    script = (
        "import json, sys\n"
        "from lego_forge import cli\n"
        "cli.load_config(sys.argv[1])\n"
        "code = cli.main(['pipeline', '--config', sys.argv[1]])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    *lines, last = run_fresh(["-c", script, corpus], check=True).stdout.splitlines()
    code, modules = json.loads(last)
    assert code == EXIT_OK and len(lines) == len(cli.STAGES)
    assert all(line.startswith("[skip]") for line in lines)
    unwanted = {"patch_analysis", "task_builder", "repo_sanitizer", "trajectory_curation",
                "sft_masking", "error_taxonomy", "tts", "schema", "curriculum"}
    assert not [m for m in modules if m.removeprefix("lego_forge.") in unwanted]


def test_loading_the_config_imports_only_errors_registries_and_cli(corpus):
    # What `bench/run.py` times as set-up: a fresh process that loads the
    # config imports no record, curriculum or stage code, nor hashlib,
    # argparse or json, beyond what the bare interpreter had loaded.
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from lego_forge.cli import load_config\n"
        "load_config(sys.argv[1])\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    loaded = json.loads(run_fresh(["-c", script, corpus], check=True).stdout)
    assert [m for m in loaded if m.startswith("lego_forge")] == [
        "lego_forge", "lego_forge.cli", "lego_forge.errors", "lego_forge.registries"]
    assert not {"hashlib", "argparse", "json"} & set(loaded)


def test_worker_is_forked_after_the_record_layer_is_imported(corpus):
    # A re-run with only rollouts edited runs tts-select alone, in the
    # worker, and the parent then writes the state file: both use schema,
    # which is imported once, before the fork.
    cfg = load_config(corpus)
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    cfg.rollouts.write_text(cfg.rollouts.read_text(encoding="utf-8").replace("summary", "SUMMARY"),
                            encoding="utf-8")
    script = (
        "import json, os, sys\n"
        "from lego_forge import cli\n"
        "real_fork, loaded = os.fork, []\n"
        "def fork():\n"
        "    loaded.append('lego_forge.schema' in sys.modules)\n"
        "    return real_fork()\n"
        "os.fork = fork\n"
        "code = cli.main(['pipeline', '--config', sys.argv[1]])\n"
        "print(json.dumps([code, loaded]))\n"
    )
    *lines, last = run_fresh(["-c", script, corpus], check=True).stdout.splitlines()
    assert [line for line in lines if not line.startswith("[skip]")] == ["[ok]   tts-select"]
    assert json.loads(last) == [EXIT_OK, [True]]


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


def parent_format(cfg, state: dict) -> str:
    """`state` as the version before per-stage records wrote it: one
    fingerprint of the inputs and, by name, the digests of the outputs."""
    old = {}
    for stage in cli.STAGES:
        outputs = {*stage.outputs(cfg), stage.report}
        old[stage.name] = {"inputs": hashlib.sha256(json.dumps(state[stage.name]).encode()).hexdigest(),
                           "outputs": {name: digest for name, digest in state[stage.name] if name in outputs}}
    return json.dumps(old)


def curate_entry(value):
    return lambda cfg, state: json.dumps({**state, "curate": value})


EVERY_STAGE = [stage.name for stage in cli.STAGES]
STATE_EDITS = {
    "array": (lambda cfg, state: "[]", EVERY_STAGE),
    "stage-not-object": (lambda cfg, state: '{"curate": 5}', EVERY_STAGE),
    "outputs-not-object": (lambda cfg, state: '{"curate": {"outputs": []}}', EVERY_STAGE),
    "deep-nesting": (lambda cfg, state: "[" * 200_000, EVERY_STAGE),
    "parent-format": (parent_format, EVERY_STAGE),
    # Python's json reads these, but the rewritten file could not hold them as standard JSON.
    **{f"non-finite-{name}": (lambda cfg, state, token=token: json.dumps(state)[:-1] + f', "fuzzed": {token}}}',
                              EVERY_STAGE)
       for name, token in [("nan", "NaN"), ("infinity", "-Infinity"), ("past-the-float-range", "1e999")]},
    **{f"curate-entry-{name}": (curate_entry(value), ["curate"])
       for name, value in [("5", 5), ("array", []), ("null", None), ("outputs-array", {"outputs": []})]},
}


@pytest.mark.parametrize("edit", sorted(STATE_EDITS))
def test_state_file_of_another_shape_reruns_every_stage(corpus, edit):
    # A state file that is not a JSON object, or that nests past the
    # recursion limit, counts as empty, and one that a version before the
    # per-stage records wrote has no entry equal to a record: every stage
    # re-runs. A single entry of another value re-runs its stage alone (the
    # readers then find curated.jsonl unchanged). Either way the tree is the
    # one the cold run left, and a further run skips every stage.
    cfg = load_config(corpus)
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    cold = tree_bytes(cfg.out_dir)
    rewrite, rerun = STATE_EDITS[edit]
    (cfg.out_dir / STATE).write_text(rewrite(cfg, read(cfg.out_dir / STATE)), encoding="utf-8")
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == EXIT_OK
    assert lines == [f"[ok]   {name}" if name in rerun else f"[skip] {name}: inputs unchanged"
                     for name in EVERY_STAGE]
    strict_json((cfg.out_dir / STATE).read_text(encoding="utf-8"))
    assert tree_bytes(cfg.out_dir) == cold
    assert_run_state_empty()
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == EXIT_OK
    assert lines == [f"[skip] {name}: inputs unchanged" for name in EVERY_STAGE]


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
    assert not cli._in_run and cli._digests == {} and cli._handoff == {} and cli._readers == {}


@pytest.fixture()
def collector():
    """Puts the cyclic collector back as the test found it."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pipeline_runs_without_the_collector_and_restores_it(corpus, collector, monkeypatch, enabled):
    # The records are acyclic, so every stage runs with the cyclic collector
    # off, and the run leaves it as it found it, on success and on failure.
    during = []
    real_run_stage = cli.run_stage

    def recording_run_stage(name, cfg):
        during.append(gc.isenabled())
        return real_run_stage(name, cfg)

    monkeypatch.setattr(cli, "run_stage", recording_run_stage)
    (gc.enable if enabled else gc.disable)()
    assert run_pipeline(load_config(corpus), echo=lambda s: None) == EXIT_OK
    assert gc.isenabled() is enabled
    with open(load_config(corpus).trajectories, "a", encoding="utf-8") as f:
        f.write("{not json\n")
    assert run_pipeline(load_config(corpus), echo=lambda s: None) == EXIT_VALIDATION
    assert gc.isenabled() is enabled
    assert during and not any(during)
    assert_run_state_empty()


def test_cyclic_garbage_of_a_cold_run_does_not_grow_with_the_corpus(tmp_path, collector):
    # With the collector off for the run, what it leaves for gc.collect()
    # must be a fixed few objects, not a share of the records.
    warm, small, large = (build_integration_corpus(tmp_path / name) for name in ("warm", "small", "large"))
    for name in ("trajectories.jsonl", "final_reports.jsonl"):
        records = read_jsonl(large.parent / name)
        save_jsonl([{**r, "trajectory_id": f"{r['trajectory_id']}-{n}"} for n in range(20) for r in records],
                   large.parent / name)
    gc.disable()
    gc.collect()
    found = []
    for config in (warm, small, large):
        assert run_pipeline(load_config(config), echo=lambda s: None) == EXIT_OK
        found.append(gc.collect())
    assert found[1] == found[2]
    curated = [read_jsonl(config.parent / "out" / "curated.jsonl") for config in (small, large)]
    assert len(curated[1]) == 20 * len(curated[0])


def test_curated_records_equal_their_reload(corpus, monkeypatch):
    # Within a run the reader stages take curate's records as it writes
    # them, in place of a reload, so a reload must return exactly those records.
    readers = [stage for stage in cli.STAGES if stage.reader]
    taken = {stage.name: [] for stage in readers}
    name_of = {stage.run.__name__: stage.name for stage in readers}
    real_take = cli._Reader.take

    def capturing_take(self, traj):
        if traj is not None:  # None starts the body
            taken[name_of[self.body.__name__]].append(traj)
        real_take(self, traj)

    monkeypatch.setattr(cli._Reader, "take", capturing_take)
    cfg = load_config(corpus)
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    assert [stage.name for stage in readers] == ["mask", "curriculum", "classify-errors"]
    curated = taken["mask"]
    assert len(curated) == 7
    assert all(len(fed) == 7 and all(a is b for a, b in zip(fed, curated)) for fed in taken.values())
    for traj in curated:
        assert Trajectory.from_record(traj.to_record()) == traj
    assert load_corpus(cfg.out_dir / "curated.jsonl", "trajectories").records == curated


def test_curate_releases_each_trajectory_before_the_next_but_one_is_decoded(corpus, monkeypatch):
    # curate folds over the trajectories as they are decoded: input
    # trajectory k is gone before k + 2 is built, so the input is never held whole.
    cfg = run_stages(load_config(corpus), "build-tasks", "inject")
    decoded = []
    real_from_record = Trajectory.from_record.__func__

    def tracking_from_record(cls, record):
        assert [ref() for ref in decoded[:-1]] == [None] * len(decoded[:-1])
        traj = real_from_record(cls, record)
        decoded.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(Trajectory, "from_record", classmethod(tracking_from_record))
    run_stages(cfg, "curate")
    assert len(decoded) == 7


def test_mask_streams_its_samples_into_the_writer(corpus, monkeypatch):
    # mask writes each sample into its temp file as it renders it: one write
    # per sample, the first before the last trajectory is decoded, so the
    # samples are never held as a list.
    cfg = run_stages(load_config(corpus), "build-tasks", "inject", "curate")
    events = []
    real_from_record = Trajectory.from_record.__func__

    def recording_from_record(cls, record):
        events.append("decode")
        return real_from_record(cls, record)

    class RecordingWriter(schema_mod.AtomicWriter):
        def __init__(self, path):
            super().__init__(path)
            write = self.write

            def recording_write(text):
                events.append(self.path.name)
                write(text)

            self.write = recording_write

    monkeypatch.setattr(Trajectory, "from_record", classmethod(recording_from_record))
    monkeypatch.setattr(schema_mod, "AtomicWriter", RecordingWriter)
    code, report = run_stage("mask", cfg)
    assert code == EXIT_OK
    assert events.count("samples.jsonl") == report["emitted"] == len(read_jsonl(cfg.out_dir / "samples.jsonl")) > 0
    last_decode = len(events) - 1 - events[::-1].index("decode")
    assert events.index("samples.jsonl") < last_decode


def test_curate_fails_on_trajectory_rejections_before_final_report_ones(corpus):
    # With a bad line in both, the trajectories' rejections are reported, as
    # when the whole corpus was loaded first; with the trajectories mended,
    # the final reports' are. Neither run writes curated.jsonl.
    cfg = run_stages(load_config(corpus), "build-tasks", "inject")
    for path in (cfg.trajectories, cfg.final_reports):
        with open(path, "a", encoding="utf-8") as f:
            f.write("{not json\n")

    def rejected():
        code, report = run_stage("curate", cfg)
        assert code == EXIT_VALIDATION
        assert not (cfg.out_dir / "curated.jsonl").exists()
        return [(e["file"], e["codes"]) for e in read_jsonl(Path(report["rejection_report"]))]

    assert rejected() == [(str(cfg.trajectories), ["BAD_JSON"])]
    text = cfg.trajectories.read_text(encoding="utf-8")
    cfg.trajectories.write_text(text.removesuffix("{not json\n"), encoding="utf-8")
    assert rejected() == [(str(cfg.final_reports), ["BAD_JSON"])]


def test_curate_holds_no_more_than_two_final_reports_at_a_time(corpus, monkeypatch):
    # final_reports is indexed by byte offset, and each report is decoded
    # when its trajectory arrives, so the reports alive as each curated
    # trajectory is written do not grow with the corpus; a dict of every
    # report would hold all 70. One CPU: curate's whole pass runs where the
    # patches count.
    set_cpus(monkeypatch, 1)
    cfg = run_stages(load_config(corpus), "build-tasks", "inject")
    trajectories, reports = read_jsonl(cfg.trajectories), read_jsonl(cfg.final_reports)
    save_jsonl(({**t, "trajectory_id": f"{t['trajectory_id']}-{n}"} for n in range(10) for t in trajectories),
               cfg.trajectories)
    save_jsonl(({**r, "trajectory_id": f"{r['trajectory_id']}-{n}"} for n in range(10) for r in reports),
               cfg.final_reports)
    decoded = []
    alive_at_write = []
    real_from_record = schema_mod.TestReport.from_record.__func__
    real_to_record = Trajectory.to_record

    def tracking_from_record(cls, record):
        report = real_from_record(cls, record)
        decoded.append(weakref.ref(report))
        return report

    def counting_to_record(self):
        alive_at_write.append(sum(ref() is not None for ref in decoded))
        return real_to_record(self)

    monkeypatch.setattr(schema_mod.TestReport, "from_record", classmethod(tracking_from_record))
    monkeypatch.setattr(Trajectory, "to_record", counting_to_record)
    code, report = run_stage("curate", cfg)
    assert code == EXIT_OK, report
    assert len(alive_at_write) == len(trajectories) * 10 == 70
    assert len(decoded) >= 2 * len(reports) * 10  # read to index, then again to look up
    assert 0 < max(alive_at_write) <= 2, alive_at_write


def test_repeated_final_report_means_its_last_line(corpus):
    # As in a dict of every line: the later of two lines for one trajectory id wins.
    cfg = run_stages(load_config(corpus), "build-tasks", "inject")
    run_stages(cfg, "curate")
    before = {t["trajectory_id"]: t["outcome"] for t in read_jsonl(cfg.out_dir / "curated.jsonl")}
    reports = read_jsonl(cfg.final_reports)
    resolved = next(r for r in reports if r["trajectory_id"] == "traj-resolved")
    failing = {**resolved, "results": {test: "fail" for test in resolved["results"]}}
    save_jsonl([resolved, failing, *reports], cfg.final_reports)
    run_stages(cfg, "curate")
    after = {t["trajectory_id"]: t["outcome"] for t in read_jsonl(cfg.out_dir / "curated.jsonl")}
    assert before["traj-resolved"] == "resolved" and after == before
    save_jsonl([*reports, failing], cfg.final_reports)
    run_stages(cfg, "curate")
    after = {t["trajectory_id"]: t["outcome"] for t in read_jsonl(cfg.out_dir / "curated.jsonl")}
    assert after == {**before, "traj-resolved": "semi_resolved"}


def test_pipeline_tree_equals_single_stage_runs(tmp_path, capsys):
    piped = build_integration_corpus(tmp_path / "piped")
    alone = build_integration_corpus(tmp_path / "alone")
    assert run_pipeline(load_config(piped), echo=lambda s: None) == EXIT_OK
    for stage in cli.STAGES:
        assert cli.main([stage.name, "--config", str(alone)]) == EXIT_OK, stage.name
    tree = tree_bytes(tmp_path / "piped" / "out")
    assert tree.pop(".forge_state.json")
    assert tree == tree_bytes(tmp_path / "alone" / "out")


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


def test_hand_off_lives_from_its_writer_to_the_end_of_the_run(corpus, monkeypatch, tmp_path):
    # The forked worker records what it held through a file; this process
    # records in memory, so a stage lands in `held` only if it ran here.
    held, readers = {}, {}
    log = tmp_path / "held.log"
    real_run_stage = cli.run_stage

    def assert_no_instance_held():
        # The hand-off holds an index entry per instance, never the instance.
        assert all(type(index) is dict and all(type(entry) is IndexEntry for entry in index.values())
                   for index in cli._handoff.values())

    def recording_run_stage(stage, cfg):
        assert_no_instance_held()
        held[stage] = names = [path.name for path, _ in cli._handoff]
        readers[stage] = list(cli._readers)
        with open(log, "a", encoding="utf-8") as f:
            f.write(json.dumps([stage, names]) + "\n")
        try:
            return real_run_stage(stage, cfg)
        finally:
            assert_no_instance_held()

    monkeypatch.setattr(cli, "run_stage", recording_run_stage)
    assert run_pipeline(load_config(corpus), echo=lambda s: None) == EXIT_OK
    # build-tasks and inject keep the index of what they wrote until the
    # run ends; no stage holds the curated records. curate feeds every
    # reader stage, and each holds its fold only until its turn.
    instances = ["instances_real.jsonl", "instances_synth.jsonl"]
    assert {stage: sorted(names) for stage, names in held.items()} == {
        "build-tasks": [],
        "inject": instances[:1],
        **{stage: instances for stage in ("curate", "mask", "curriculum", "classify-errors", "stats")},
    }
    assert readers == {
        "build-tasks": [], "inject": [], "curate": [],
        "mask": ["mask", "curriculum", "classify-errors"],
        "curriculum": ["curriculum", "classify-errors"],
        "classify-errors": ["classify-errors"],
        "stats": [],
    }
    in_worker = {stage: names for stage, names in read_jsonl(log) if stage not in held}
    assert in_worker == {"sanitize": [], "tts-select": []}
    assert_run_state_empty()


def test_built_instances_equal_their_reload(corpus, monkeypatch):
    # The hand-off indexes the builders' instances as they are written, in
    # place of a reload, so each must equal its own round trip, the
    # golden_stats a builder seeds must equal a fresh parse, and the index
    # must equal the one a validating read makes.
    written = {}
    real_save = schema_mod.save_corpus

    def capturing_save(records, path, on_write=None):
        kept = written[Path(path).name] = []

        def keeping():
            for record in records:
                kept.append(record)
                yield record

        return real_save(keeping(), path, on_write)

    real_index = cli._index
    indexes = {}

    def capturing_index(path):
        indexes[path.name] = index = real_index(path)
        return index

    monkeypatch.setattr(schema_mod, "save_corpus", capturing_save)
    monkeypatch.setattr(cli, "_index", capturing_index)
    cfg = load_config(corpus)
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    for name in ("instances_real.jsonl", "instances_synth.jsonl"):
        instances = written[name]
        assert instances, name
        for inst in instances:
            assert TaskInstance.from_record(json.loads(schema_mod.dumps_record(inst.to_record()))) == inst
            assert "golden_stats" in vars(inst)
            assert inst.golden_stats == patch_analysis.patch_stats(patch_analysis.parse_patch(inst.golden_patch))
        assert load_corpus(cfg.out_dir / name, "instances").records == instances
        assert cli._index(cfg.out_dir / name) == indexes[name]  # outside a run, a validating read


def test_duplicate_built_ids_fail_curate_as_single_stage_runs_do(corpus, capsys, monkeypatch):
    # Instances a reload would reject are not indexed for the later stages:
    # curate reloads and rejects them exactly as `forge build-tasks` then
    # `forge curate`.
    cfg = load_config(corpus)
    first = cfg.real_inputs.read_text(encoding="utf-8").split("\n", 1)[0]
    cfg.real_inputs.write_text(f"{first}\n{first}\n", encoding="utf-8")
    held = {}
    real_run_stage = cli.run_stage

    def recording_run_stage(stage, cfg):
        held[stage] = [path.name for path, _ in cli._handoff]
        return real_run_stage(stage, cfg)

    monkeypatch.setattr(cli, "run_stage", recording_run_stage)
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == EXIT_VALIDATION
    assert held["curate"] == ["instances_synth.jsonl"]
    monkeypatch.setattr(cli, "run_stage", real_run_stage)
    assert lines[-1].startswith("[fail] curate:")
    assert_run_state_empty()
    rejections = cfg.out_dir / "curate_rejections.jsonl"
    piped = rejections.read_bytes()
    assert [(e["line_no"], e["codes"]) for e in read_jsonl(rejections)] == [(2, ["DUPLICATE_ID"])]
    shutil.rmtree(cfg.out_dir)
    capsys.readouterr()
    assert cli.main(["build-tasks", "--config", str(corpus)]) == EXIT_OK
    assert cli.main(["curate", "--config", str(corpus)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [lines[-1]]
    assert rejections.read_bytes() == piped


def test_failed_run_leaves_no_run_state(corpus, monkeypatch):
    def boom(traj, inst):
        raise ForgeError("boom")

    monkeypatch.setattr("lego_forge.error_taxonomy.explain_failure", boom)
    lines = []
    assert run_pipeline(load_config(corpus), echo=lines.append) == cli.EXIT_INTERNAL
    assert lines[-1].startswith("[fail] classify-errors: boom")
    assert_run_state_empty()


# ---------------------------------------------------------------------------
# One pass over the curated trajectories


def drop_what_curate_fed(monkeypatch):
    """Make run_pipeline drop what curate fed the reader stages once it
    ends, so that the readers read curated.jsonl from disk after curate has
    committed it, as a pipeline that runs its stages one after another does."""
    real_run_stage = cli.run_stage

    def run_stage_then_drop(stage, cfg):
        result = real_run_stage(stage, cfg)
        if stage == "curate":
            for reader in cli._readers.values():
                reader.discard()
            cli._readers.clear()
        return result

    monkeypatch.setattr(cli, "run_stage", run_stage_then_drop)


def run_one_pass_and_serial(tmp_path, prepare):
    """Build two integration corpora, call `prepare(cfg)` on each, then run
    the pipeline over one as it is and over the other with
    drop_what_curate_fed. Asserts that the exit codes, the echoed lines and
    the output trees (.forge_state.json included) agree, with each root read
    as ROOT, and that no temp file is left; returns the one-pass run's
    (exit code, lines, cfg, what `prepare` returned)."""
    runs = {}
    for way in ("one-pass", "serial"):
        root = tmp_path / way
        cfg = load_config(build_integration_corpus(root))
        prepared = prepare(cfg)
        lines = []
        with pytest.MonkeyPatch.context() as patch:
            if way == "serial":
                drop_what_curate_fed(patch)
            code = run_pipeline(cfg, echo=lines.append)
        tree = {name: data.replace(str(root).encode(), b"ROOT") for name, data in tree_bytes(cfg.out_dir).items()}
        assert not [name for name in tree if name.endswith(".tmp")], way
        runs[way] = code, [line.replace(str(root), "ROOT") for line in lines], tree, cfg, prepared
    assert runs["one-pass"][:3] == runs["serial"][:3]
    assert_run_state_empty()
    code, lines, _, cfg, prepared = runs["one-pass"]
    return code, lines, cfg, prepared


READER_OUTPUTS = ("samples.jsonl", "mask_drops.jsonl", "stage1.jsonl", "stage2.jsonl", "stage3.jsonl",
                  "correlation_report.json", "failures.jsonl", "distribution.json")


def test_rejected_last_trajectory_fails_curate_and_keeps_every_earlier_output(tmp_path):
    # The readers have taken every good trajectory when the last line is
    # rejected; curate still fails before its rename, and no reader output
    # of the earlier run changes.
    kept = ("curated.jsonl", *READER_OUTPUTS)

    def good_run_then_bad_last_line(cfg):
        assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
        before = {name: (cfg.out_dir / name).read_bytes() for name in kept}
        first = read_jsonl(cfg.trajectories)[0]
        with open(cfg.trajectories, "a", encoding="utf-8") as f:
            f.write(json.dumps({**first, "trajectory_id": "late", "outcome": "bogus"}) + "\n")
        return before

    code, lines, cfg, before = run_one_pass_and_serial(tmp_path, good_run_then_bad_last_line)
    assert code == EXIT_VALIDATION
    assert lines[-1].startswith("[fail] curate:") and len(lines) == 4
    entries = read_jsonl(cfg.out_dir / "curate_rejections.jsonl")
    assert [(e["line_no"], e["codes"]) for e in entries] == [(8, ["BAD_OUTCOME"])]
    assert {name: (cfg.out_dir / name).read_bytes() for name in kept} == before
    assert "curate" not in read(cfg.out_dir / ".forge_state.json")


def test_mask_raising_mid_pass_commits_curate_and_no_later_reader(tmp_path, monkeypatch):
    # mask fails on the second sample it renders: curate, which ran the
    # pass, is committed; curriculum and classify-errors, fed alongside,
    # write nothing.
    real_build = sft_masking.build_loss_mask

    def build_or_boom(traj, *args):
        if traj.trajectory_id == "traj-semi":
            raise ForgeError("boom")
        return real_build(traj, *args)

    monkeypatch.setattr("lego_forge.sft_masking.build_loss_mask", build_or_boom)
    code, lines, cfg, _ = run_one_pass_and_serial(tmp_path, lambda cfg: None)
    assert code == EXIT_INTERNAL
    assert lines == [*(f"[ok]   {name}" for name in ("build-tasks", "inject", "sanitize", "curate")),
                     "[fail] mask: boom (exit 1)"]
    assert len(read_jsonl(cfg.out_dir / "curated.jsonl")) == 7
    assert not [name for name in READER_OUTPUTS if (cfg.out_dir / name).exists()]
    assert sorted(read(cfg.out_dir / ".forge_state.json")) == ["build-tasks", "curate", "inject", "sanitize"]


def test_failing_curated_writer_discards_every_fed_reader(corpus, monkeypatch):
    # curated.jsonl's writer fails on its third line, after the readers took
    # the first trajectories: the fold ends in GeneratorExit and discards
    # them all, so no reader leaves an output or a temp file.
    class FailingWriter(schema_mod.AtomicWriter):
        def __init__(self, path):
            super().__init__(path)
            if self.path.name == "curated.jsonl":
                written, write = [], self.write

                def failing_write(text):
                    written.append(text)
                    if len(written) == 3:
                        raise OSError(28, "No space left on device")
                    write(text)

                self.write = failing_write

    monkeypatch.setattr(schema_mod, "AtomicWriter", FailingWriter)
    cfg = load_config(corpus)
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == EXIT_INTERNAL
    assert lines[-1].startswith("[fail] curate: cannot write corpus")
    assert not [p.name for p in cfg.out_dir.iterdir() if p.name.endswith(".tmp")]
    assert not [name for name in ("curated.jsonl", *READER_OUTPUTS) if (cfg.out_dir / name).exists()]
    assert_run_state_empty()


def test_curate_rerun_with_the_same_output_skips_the_readers(tmp_path):
    # A final report for no trajectory re-runs curate, whose output keeps
    # its bytes: the readers' speculative outputs are dropped and they skip.
    def good_run_then_unused_report(cfg):
        assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
        with open(cfg.final_reports, "a", encoding="utf-8") as f:
            f.write(json.dumps({"trajectory_id": "nobody", "code_state": "final", "results": {}}) + "\n")
        return tree_bytes(cfg.out_dir)

    code, lines, cfg, before = run_one_pass_and_serial(tmp_path, good_run_then_unused_report)
    assert code == EXIT_OK
    assert lines == [f"[ok]   {s.name}" if s.name == "curate" else f"[skip] {s.name}: inputs unchanged"
                     for s in cli.STAGES]
    after = tree_bytes(cfg.out_dir)
    assert after.pop(".forge_state.json") != before.pop(".forge_state.json")
    assert after == before


def test_readers_dropped_after_a_speculative_feed_are_freed_without_the_collector(corpus, monkeypatch):
    # curate re-runs to the same output, so the readers it fed are dropped
    # unfinished; with the collector off, each must be gone once the run
    # returns, so no reader is kept alive by a reference cycle.
    cfg = load_config(corpus)
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    with open(cfg.final_reports, "a", encoding="utf-8") as f:
        f.write(json.dumps({"trajectory_id": "nobody", "code_state": "final", "results": {}}) + "\n")
    made = []
    real_init = cli._Reader.__init__

    def tracking_init(self, *args):
        made.append(weakref.ref(self))
        real_init(self, *args)

    monkeypatch.setattr(cli._Reader, "__init__", tracking_init)
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        lines = []
        assert run_pipeline(cfg, echo=lines.append) == EXIT_OK
        assert [line for line in lines if not line.startswith("[skip]")] == ["[ok]   curate"]
        assert len(made) == 3
        assert [ref() for ref in made] == [None] * 3
    finally:
        if collecting:
            gc.enable()


def test_first_reader_to_run_feeds_every_later_reader_from_one_pass(corpus, monkeypatch):
    # curate is skipped and only mask's outputs are gone: mask decodes
    # curated.jsonl once and feeds curriculum and classify-errors too, as
    # curate would; both then find their inputs unchanged, drop what they
    # took and skip, so their outputs stay the same files and no temp file
    # is left.
    cfg = load_config(corpus)
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    later = ("stage1.jsonl", "stage2.jsonl", "stage3.jsonl", "correlation_report.json",
             "failures.jsonl", "distribution.json")
    inodes = {name: (cfg.out_dir / name).stat().st_ino for name in later}
    for name in ("samples.jsonl", "mask_drops.jsonl"):
        (cfg.out_dir / name).unlink()
    fed, decoded_in, running = [], [], [None]
    real_fold, real_run_stage = cli._fold, cli.run_stage
    real_traj_from_record = Trajectory.from_record.__func__

    def recording_fold(cfg, stages, trajectories):
        fed.append([stage.name for stage in stages])
        return real_fold(cfg, stages, trajectories)

    def recording_run_stage(stage, cfg):
        running[0] = stage
        return real_run_stage(stage, cfg)

    def counting_traj_from_record(cls, record):
        decoded_in.append(running[0])
        return real_traj_from_record(cls, record)

    monkeypatch.setattr(cli, "_fold", recording_fold)
    monkeypatch.setattr(cli, "run_stage", recording_run_stage)
    monkeypatch.setattr(Trajectory, "from_record", classmethod(counting_traj_from_record))
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == EXIT_OK
    assert lines == [f"[ok]   {s.name}" if s.name == "mask" else f"[skip] {s.name}: inputs unchanged"
                     for s in cli.STAGES]
    assert fed == [["mask", "curriculum", "classify-errors"]]
    assert decoded_in == ["mask"] * 7
    assert {name: (cfg.out_dir / name).stat().st_ino for name in later} == inodes
    assert (cfg.out_dir / "samples.jsonl").exists()
    assert not [p.name for p in cfg.out_dir.iterdir() if p.name.endswith(".tmp")]
    assert_run_state_empty()


def test_single_stage_mask_over_a_bad_last_curated_line_keeps_its_samples(corpus, capsys):
    cfg = load_config(corpus)
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    before = {name: (cfg.out_dir / name).read_bytes() for name in ("samples.jsonl", "mask_drops.jsonl")}
    with open(cfg.out_dir / "curated.jsonl", "a", encoding="utf-8") as f:
        f.write("{not json\n")
    capsys.readouterr()
    assert cli.main(["mask", "--config", str(corpus)]) == EXIT_VALIDATION
    rejections = cfg.out_dir / "mask_rejections.jsonl"
    assert capsys.readouterr().err.startswith(f"[fail] mask: {cfg.out_dir / 'curated.jsonl'}: 1 rejected line(s)")
    assert [(e["line_no"], e["codes"]) for e in read_jsonl(rejections)] == [(8, ["BAD_JSON"])]
    assert {name: (cfg.out_dir / name).read_bytes() for name in before} == before
    assert not [p.name for p in cfg.out_dir.iterdir() if p.name.endswith(".tmp")]


def test_cold_pipeline_holds_one_curated_trajectory_at_a_time(tmp_path, monkeypatch):
    # curate hands each curated trajectory to the reader stages as it writes
    # it, so the traced peak from curate through classify-errors stays far
    # below curated.jsonl's size; a hand-off of the curated records does not.
    import tracemalloc

    config = build_integration_corpus(tmp_path / "big")
    cfg = load_config(config)
    pad = " ".join(f"line {n} of the captured output" for n in range(700))  # about 20 KB
    trajectories, reports = read_jsonl(cfg.trajectories), read_jsonl(cfg.final_reports)
    save_jsonl(({**t, "trajectory_id": f"{t['trajectory_id']}-{n}",
                 "steps": [{**t["steps"][0], "observation": t["steps"][0]["observation"] + pad}, *t["steps"][1:]]}
                for n in range(60) for t in trajectories), cfg.trajectories)
    save_jsonl(({**r, "trajectory_id": f"{r['trajectory_id']}-{n}"} for n in range(60) for r in reports),
               cfg.final_reports)
    peaks = {}
    real_run_stage = cli.run_stage

    def measuring_run_stage(stage, cfg):
        if stage == "curate":
            tracemalloc.reset_peak()
        result = real_run_stage(stage, cfg)
        if stage == "classify-errors":
            peaks[stage] = tracemalloc.get_traced_memory()[1]
        return result

    monkeypatch.setattr(cli, "run_stage", measuring_run_stage)
    tracemalloc.start()
    try:
        assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    finally:
        tracemalloc.stop()
    size = (cfg.out_dir / "curated.jsonl").stat().st_size
    assert size >= 8 << 20
    assert len(read_jsonl(cfg.out_dir / "samples.jsonl")) > 60
    assert peaks["classify-errors"] < size / 2, (peaks, size)


def test_cold_pipeline_holds_no_instance_corpus(tmp_path, monkeypatch):
    # build-tasks writes each instance as it builds it and keeps an index
    # entry in its place; curate and classify-errors decode an instance when
    # a trajectory names it, and stats sums the entries. So the traced peak
    # from build-tasks through stats stays far below instances_real.jsonl's
    # size; a hand-off of the instances does not.
    import tracemalloc

    cfg = load_config(build_integration_corpus(tmp_path / "big"))
    pad = " ".join(f"word{n}" for n in range(1200))  # about 9 KB
    prs = read_jsonl(cfg.real_inputs)
    # Copy n of a PR gets new PR numbers, so new instance ids and image names.
    save_jsonl(({**pr, "number": pr["number"] + 1000 * n,
                 "issue_text": f"{pr['issue_text']} {pad}" if n else pr["issue_text"]}
                for n in range(300) for pr in prs), cfg.real_inputs)
    peaks = {}
    real_run_stage = cli.run_stage

    def measuring_run_stage(stage, cfg):
        if stage == "build-tasks":
            tracemalloc.reset_peak()
        result = real_run_stage(stage, cfg)
        if stage == "stats":
            peaks[stage] = tracemalloc.get_traced_memory()[1]
        return result

    monkeypatch.setattr(cli, "run_stage", measuring_run_stage)
    tracemalloc.start()
    try:
        assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    finally:
        tracemalloc.stop()
    size = (cfg.out_dir / "instances_real.jsonl").stat().st_size
    assert size >= 4 << 20
    assert json.loads((cfg.out_dir / "corpus_stats.json").read_text(encoding="utf-8"))["real"]["instances"] == 600
    assert peaks["stats"] < size / 2, (peaks, size)


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


def record_shares(monkeypatch, log: Path) -> None:
    """Append the pid of each process that curates a share of the trajectories to `log`."""
    real_curate = trajectory_curation.curate

    def recording_curate(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as f:
            f.write(json.dumps(os.getpid()) + "\n")
        return real_curate(*args, **kwargs)

    monkeypatch.setattr(trajectory_curation, "curate", recording_curate)


def set_cpus(monkeypatch, cpus: int) -> None:
    """Let curate see `cpus` CPUs: with one, its whole pass runs in this process."""
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)


def split_at(monkeypatch, lines: int) -> None:
    """Make curate's shard take the trajectories after the first `lines` lines, on any host."""
    def split(path: Path) -> int:
        with open(path, "rb") as f:
            for _ in range(lines):
                f.readline()
            return f.tell()

    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "_split", split)


def refuse_fork(monkeypatch) -> None:
    """Make os.fork fail: this process then runs every stage, and curate's whole pass, itself."""
    def failing_fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing_fork)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_detached_stages_run_in_one_worker_process(corpus, monkeypatch, tmp_path):
    # Curate's shard is a second child: it curates the trajectories from
    # the fourth on, and runs no stage.
    cfg = load_config(corpus)
    assert [stage.name for stage in cli._detached_stages(cfg)] == list(WORKER_STAGES)
    log, shares = tmp_path / "pids.log", tmp_path / "shares.log"
    record_pids(monkeypatch, log)
    record_shares(monkeypatch, shares)
    split_at(monkeypatch, 3)
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == EXIT_OK
    assert_no_child_left()
    assert lines == [f"[ok]   {stage.name}" for stage in cli.STAGES]
    pids = dict(read_jsonl(log))
    assert sorted(pids) == sorted(stage.name for stage in cli.STAGES)
    worker = {pids[stage] for stage in WORKER_STAGES}
    assert len(worker) == 1 and os.getpid() not in worker
    assert {pid for stage, pid in pids.items() if stage not in WORKER_STAGES} == {os.getpid()}
    here, shard = sorted(read_jsonl(shares), key=lambda pid: pid != os.getpid())
    assert here == os.getpid() and shard not in (os.getpid(), *worker)
    assert_run_state_empty()


@pytest.mark.parametrize("snapshot_dir", [".", "out"])
def test_snapshot_dir_at_or_above_out_dir_detaches_no_stage(corpus, snapshot_dir):
    # inject then reads every stage's outputs, so every stage shares a file
    # with inject, and none runs in the worker.
    with open(corpus, "a", encoding="utf-8") as f:
        f.write(f"snapshot_dir = {snapshot_dir}\n")
    cfg = load_config(corpus)
    assert cfg.out_dir.is_relative_to(cfg.snapshot_dir)
    assert cli._detached_stages(cfg) == []


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
    log, shares = tmp_path / "pids.log", tmp_path / "shares.log"
    record_pids(monkeypatch, log)
    record_shares(monkeypatch, shares)
    split_at(monkeypatch, 3)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    if why == "fork fails":
        refuse_fork(monkeypatch)
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
    assert read_jsonl(shares) == [os.getpid()]  # curate's whole pass too
    assert tree_bytes(tmp_path / "here" / "out") == tree_bytes(tmp_path / "forked" / "out")


# ---------------------------------------------------------------------------
# Curate's shard: a second child curates the second half of the trajectories


def test_sharded_pipeline_leaves_the_tree_of_the_serial_one(tmp_path, monkeypatch):
    # The shard curates the trajectories after the third. The tree, the
    # curation report and the state file included, is the one a process
    # that cannot fork leaves.
    serial = build_integration_corpus(tmp_path / "serial")
    with monkeypatch.context() as patch:
        refuse_fork(patch)
        assert run_pipeline(load_config(serial), echo=lambda s: None) == EXIT_OK
    sharded = build_integration_corpus(tmp_path / "sharded")
    shares = tmp_path / "shares.log"
    record_shares(monkeypatch, shares)
    split_at(monkeypatch, 3)
    assert run_pipeline(load_config(sharded), echo=lambda s: None) == EXIT_OK
    assert_no_child_left()
    assert len(set(read_jsonl(shares))) == 2
    assert not [p.name for p in (tmp_path / "sharded" / "out").iterdir() if p.name.endswith(".tmp")]
    assert tree_bytes(tmp_path / "sharded" / "out") == tree_bytes(tmp_path / "serial" / "out")


def test_curate_split_at_the_midpoint_leaves_the_serial_tree(tmp_path, monkeypatch):
    # The fuzz corpus, split where curate splits it on two CPUs: its
    # averages, counts and notes span both halves.
    trees = {}
    for name in ("serial", "sharded"):
        cfg = load_config(build_fuzz_curate_corpus(tmp_path / name))
        shares = tmp_path / f"{name}.log"
        with monkeypatch.context() as patch:
            record_shares(patch, shares)
            refuse_fork(patch) if name == "serial" else set_cpus(patch, 2)
            code, report = run_stage("curate", cfg)
        assert code == EXIT_OK and len(set(read_jsonl(shares))) == (name == "sharded") + 1
        assert sum(report["counts"].values()) == 40 and report["notes"]
        trees[name] = tree_bytes(cfg.out_dir)
    assert_no_child_left()
    assert trees["sharded"] == trees["serial"]


def test_bad_lines_in_both_halves_are_rejected_as_in_one_pass(tmp_path, monkeypatch):
    # A bad line before the split, and a blank line at it and a bad record
    # after it: the rejections keep their numbers in the whole file and
    # their order, and fail the stage before final_reports' bad line does.
    outputs = {}
    for name in ("serial", "sharded"):
        cfg = run_stages(load_config(build_integration_corpus(tmp_path / name)), "build-tasks", "inject")
        lines = cfg.trajectories.read_text(encoding="utf-8").split("\n")[:-1]
        lines[1:1] = ["not json"]
        lines[4:4] = ["", '{"trajectory_id": 5}']
        cfg.trajectories.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with open(cfg.final_reports, "a", encoding="utf-8") as f:
            f.write("[]\n")
        shares = tmp_path / f"{name}.log"
        with monkeypatch.context() as patch:
            record_shares(patch, shares)
            refuse_fork(patch) if name == "serial" else split_at(patch, 4)
            assert run_stage("curate", cfg)[0] == EXIT_VALIDATION
        assert len(set(read_jsonl(shares))) == (name == "sharded") + 1
        assert not (cfg.out_dir / "curated.jsonl").exists()
        rejections = read_jsonl(cfg.out_dir / "curate_rejections.jsonl")
        assert [(r["file"], r["line_no"]) for r in rejections] == [(str(cfg.trajectories), n) for n in (2, 5, 6)]
        outputs[name] = [(cfg.out_dir / output).read_text(encoding="utf-8").replace(str(tmp_path / name), "<root>")
                         for output in ("curation_report.json", "curate_rejections.jsonl")]
    assert_no_child_left()
    assert outputs["sharded"] == outputs["serial"]


SHARD_FAILURES = {  # what the shard does, the exit code, the message its [fail] line carries
    "exits": ("exit", EXIT_INTERNAL, "curate's shard ended before its share did"),
    "raises": (Exception("the shard broke"), EXIT_INTERNAL, "the shard broke"),
    "raises an OSError": (OSError(28, "No space left on device"), EXIT_INTERNAL, "[Errno 28] No space left on device"),
    "refuses": (ValidationFailure("the shard refused"), EXIT_VALIDATION, "the shard refused"),
    "misses an input": (cli.MissingInputError("the shard's input is gone"), EXIT_MISSING_INPUT,
                        "the shard's input is gone"),
}


@pytest.mark.parametrize("failure", sorted(SHARD_FAILURES))
def test_failing_shard_fails_curate_and_leaves_nothing(corpus, monkeypatch, failure):
    # A shard that dies, or raises, fails curate with one [fail] line: a
    # ForgeError with its own exit code, anything else with exit 1. No
    # temp file, no curated.jsonl and no child is left.
    act, code, message = SHARD_FAILURES[failure]
    here, real_curate = os.getpid(), trajectory_curation.curate

    def failing_curate(*args, **kwargs):
        if os.getpid() != here:
            if act == "exit":
                os._exit(1)
            raise act
        return real_curate(*args, **kwargs)

    monkeypatch.setattr(trajectory_curation, "curate", failing_curate)
    split_at(monkeypatch, 3)
    cfg = load_config(corpus)
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == code
    assert_no_child_left()
    assert [line for line in lines if not line.startswith("[ok]")] == [f"[fail] curate: {message} (exit {code})"]
    assert lines[-1].startswith("[fail]")
    assert not (cfg.out_dir / "curated.jsonl").exists()
    assert not [p.name for p in cfg.out_dir.iterdir() if p.name.endswith(".tmp")]
    assert "curate" not in read(cfg.out_dir / STATE)
    assert read(cfg.out_dir / "curation_report.json")["exit_code"] == code


READER_FAILURES = {  # the stage, the call that raises, the trajectories it raises on; the shard's start at the 4th
    "mask in the shard's half": ("mask", sft_masking, "build_loss_mask", ("traj-semi",)),
    "mask in both halves": ("mask", sft_masking, "build_loss_mask", ("traj-resolved", "traj-semi")),
    "classify-errors in the shard's half": ("classify-errors", error_taxonomy, "explain_failure", ("traj-lost",)),
    "classify-errors in both halves": ("classify-errors", error_taxonomy, "explain_failure",
                                       ("traj-hack", "traj-lost")),
}


@pytest.mark.parametrize("case", sorted(READER_FAILURES))
def test_reader_failing_in_the_shard_fails_its_stage_as_one_pass_does(tmp_path, monkeypatch, case):
    # A reader stage that raises on a trajectory of the shard's half is
    # detached there, and its stage fails with the first error in file
    # order, this process's half first: the lines, exit code and tree,
    # state included, are the serial run's; no temp file or child is left.
    stage, module, function, raising_on = READER_FAILURES[case]
    real = getattr(module, function)

    def failing(traj, *args):
        if traj.trajectory_id in raising_on:
            raise ForgeError(f"boom at {traj.trajectory_id}")
        return real(traj, *args)

    runs = {}
    for name in ("serial", "sharded"):
        cfg = load_config(build_integration_corpus(tmp_path / name))
        lines = []
        with monkeypatch.context() as patch:
            patch.setattr(module, function, failing)
            set_cpus(patch, 1) if name == "serial" else split_at(patch, 3)  # the worker forks on both
            code = run_pipeline(cfg, echo=lines.append)
        assert_no_child_left()
        assert not [p.name for p in cfg.out_dir.iterdir() if p.name.endswith(".tmp")]
        runs[name] = code, lines, tree_bytes(cfg.out_dir)
    assert runs["sharded"] == runs["serial"]
    assert runs["sharded"][1][-1] == f"[fail] {stage}: boom at {raising_on[0]} (exit 1)"


def test_shard_that_dies_while_its_readers_write_leaves_nothing(corpus, monkeypatch):
    # The shard dies once its readers have written lines for its half:
    # curate fails, and neither their files nor the shard's is left.
    here, real_build = os.getpid(), sft_masking.build_loss_mask

    def dying_build(traj, *args):
        if os.getpid() != here and traj.trajectory_id == "traj-semi":
            os._exit(1)
        return real_build(traj, *args)

    monkeypatch.setattr("lego_forge.sft_masking.build_loss_mask", dying_build)
    split_at(monkeypatch, 3)
    cfg = load_config(corpus)
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == EXIT_INTERNAL
    assert_no_child_left()
    assert lines[-1] == "[fail] curate: curate's shard ended before its share did (exit 1)"
    assert not [p for p in cfg.out_dir.rglob("*") if p.name.endswith(".tmp") or p.parent != cfg.out_dir]
    assert not [name for name in ("curated.jsonl", *READER_OUTPUTS) if (cfg.out_dir / name).exists()]


@pytest.fixture(scope="module")
def fuzz_pipeline_template(tmp_path_factory):
    """The integration corpus with the trajectories, final reports and
    instance of `build_fuzz_curate_corpus` in place of its own trajectories
    and final reports, and the out_dir of a finished `forge pipeline` run
    without the reader stages' outputs, so that they run where curate does."""
    root = tmp_path_factory.mktemp("fuzz-pipeline")
    config = build_integration_corpus(root / "corpus")
    fuzz = build_fuzz_curate_corpus(root / "fuzz").parent
    for name in ("trajectories.jsonl", "final_reports.jsonl", "instances.jsonl"):
        shutil.copy(fuzz / name, config.parent / name)
    with open(config, "a", encoding="utf-8") as f:
        f.write("instances = instances.jsonl\n")
    assert run_pipeline(load_config(config), echo=lambda s: None) == EXIT_OK
    for name in READER_OUTPUTS:
        (config.parent / "out" / name).unlink()
    return config.parent


@pytest.mark.parametrize("kind", [*FUZZ_KINDS, "re-encode"])
@pytest.mark.parametrize("key", ["trajectories", "final_reports"])
@settings(max_examples=3, derandomize=True, deadline=None)
@given(data=st.data())
def test_fuzzed_curate_input_leaves_the_serial_tree_when_sharded(fuzz_pipeline_template, key, kind, data):
    # The finished fuzz corpus, one line of its trajectories or final
    # reports edited as above or only re-encoded, on either side of a drawn
    # split: `forge pipeline` sharded there and serial exit alike, print the
    # same lines and leave the same tree (every output and report, the
    # rejections and the state file), each root read as ROOT; no temp file
    # or child is left.
    with tempfile.TemporaryDirectory() as tmp:
        fuzzed = shutil.copytree(fuzz_pipeline_template, Path(tmp) / "serial")
        split = data.draw(st.integers(1, 39), label="split")
        path = fuzzed / f"{key}.jsonl"
        fuzz_line(path, path.read_text(encoding="utf-8").split("\n")[:-1], kind, data)
        shutil.copytree(fuzzed, Path(tmp) / "sharded")
        runs = {}
        for name in ("serial", "sharded"):
            root = Path(tmp) / name
            lines = []
            with pytest.MonkeyPatch.context() as patch:
                refuse_fork(patch) if name == "serial" else split_at(patch, split)
                code = run_pipeline(load_config(root / "forge.cfg"), echo=lines.append)
            assert_no_child_left()
            assert not [p.name for p in (root / "out").iterdir() if p.name.endswith(".tmp")]
            tree = {rel: raw.replace(str(root).encode(), b"ROOT") for rel, raw in tree_bytes(root / "out").items()}
            runs[name] = code, [line.replace(str(root), "ROOT") for line in lines], tree
        assert runs["sharded"] == runs["serial"]


WIDE = "é" * 10
SPLIT_CASES = {  # a file's bytes, and where its shard's share begins (None: it has none)
    "empty": (b"", None),
    "one line": (b'{"n":0}\n', None),
    "one line without a newline": (b'{"n":0}', None),
    "last line without a newline": (b'{"n":0}\n{"n":1}', 8),
    "midpoint at a line start": (b'{"n":0}\n{"n":1}\n', 8),
    "midpoint inside a character": (f'{{"t":"{WIDE}"}}\n{{"n":12}}\n'.encode(), 29),
    "blank line at the split": (b'{"n":10}\n\n{"n":1}\n', 9),
    "bad lines in many reads": (b"".join(b'{"n":%d}\n' % n if n % 997 else b"[]\n" for n in range(30_000)), None),
}


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_split_starts_the_shard_at_the_first_line_start_from_the_midpoint(tmp_path, case):
    # The two shares, the second's rejections numbered from the lines
    # before it, read as the whole file does.
    data, mid = SPLIT_CASES[case]
    path = tmp_path / "lines.jsonl"
    path.write_bytes(data)
    if case == "midpoint inside a character":
        assert data[len(data) // 2] & 0xC0 == 0x80  # a UTF-8 continuation byte
    if case == "bad lines in many reads":
        mid = data.index(b"\n", len(data) // 2 - 1) + 1
        assert mid > 1 << 16
    assert cli._split(path) == mid
    whole, first, second = [], [], []
    records = list(schema_mod.read_jsonl(path, dict, whole, reject_blank=True))
    if mid is not None:
        shares = [*schema_mod.read_jsonl(path, dict, first, reject_blank=True, stop=mid),
                  *schema_mod.read_jsonl(path, dict, second, reject_blank=True, start=mid)]
        before = cli._lines_before(path, mid)
        assert before == data[:mid].count(b"\n")
        assert shares == records
        assert first + [dataclasses.replace(r, line_no=before + r.line_no) for r in second] == whole


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


@pytest.mark.parametrize("kind", sorted(UNDECODABLE_VALUES))
@pytest.mark.parametrize("key, stage", [("trajectories", "curate"), ("rollouts", "tts-select"),
                                        ("real_inputs", "build-tasks")])
def test_line_json_cannot_decode_is_bad_json_in_a_pipeline(tmp_path, key, stage, kind):
    # json.loads raises RecursionError, or a plain ValueError, for these
    # lines. Each is BAD_JSON in this process (trajectories), in the worker
    # (rollouts) and where bad lines are skipped with their reason (real_inputs).
    cfg = load_config(build_integration_corpus(tmp_path / "corpus"))
    path = getattr(cfg, key)
    text = path.read_text(encoding="utf-8")
    value, reason = UNDECODABLE_VALUES[kind]
    path.write_text(text + '{"x": ' + value + "}\n", encoding="utf-8")
    lines = []
    code = run_pipeline(cfg, echo=lines.append)
    assert_no_child_left()
    assert_run_state_empty()
    if key == "real_inputs":
        assert code == EXIT_OK and all(line.startswith("[ok]") for line in lines)
        skipped = read(cfg.out_dir / "build_tasks_report.json")["skipped"]
        assert [s["record"] for s in skipped if reason in s["reason"]] == [text.count("\n")]
        return
    assert code == EXIT_VALIDATION
    assert lines[-1].startswith(f"[fail] {stage}:")
    entries = read_jsonl(cfg.out_dir / f"{stage.replace('-', '_')}_rejections.jsonl")
    assert [(e["line_no"], e["codes"]) for e in entries] == [(text.count("\n") + 1, ["BAD_JSON"])]
    assert reason in entries[0]["message"]


@pytest.mark.parametrize("key, stage", [*sorted(PROBE_STAGES.items()), ("curated", "mask")])
def test_line_not_utf8_is_bad_json(corpus, key, stage):
    # A line holding a byte that is not UTF-8 is BAD_JSON by its line number
    # (exit 3), or, in real_inputs, skipped with its reason (exit 0); it
    # never stops the read of the file.
    cfg = load_config(corpus)
    if key == "curated":
        run_stages(cfg, "build-tasks", "inject", "curate")
        path = cfg.out_dir / "curated.jsonl"
    else:
        path = getattr(cfg, key)
        if stage == "curate":
            run_stages(cfg, "build-tasks")
    text = path.read_bytes()
    line_no = text.count(b"\n") + 1
    path.write_bytes(text + b'{"x": "\xff"}\n')
    code = cli.main([stage, "--config", str(corpus)])
    report = read(cfg.out_dir / next(s.report for s in cli.STAGES if s.name == stage))
    if key == "real_inputs":
        assert code == EXIT_OK
        assert [s["record"] for s in report["skipped"] if s["reason"].startswith("not UTF-8")] == [line_no - 1]
        return
    assert code == EXIT_VALIDATION
    entries = read_jsonl(Path(report["rejection_report"]))
    assert [(e["line_no"], e["codes"]) for e in entries] == [(line_no, ["BAD_JSON"])]
    assert entries[0]["message"].startswith("not UTF-8")


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


def test_verifier_value_error_exits_1_not_as_a_rejected_line(corpus, monkeypatch):
    # The verifier scores each candidate as its line is read, inside the
    # reader that turns a parser's ValueError into a rejected line; a
    # verifier's own ValueError is still an internal error.
    from lego_forge import tts

    def out_of_range(self, candidate):
        return tts.VerifierScore(score=2.0, provenance="stub")

    monkeypatch.setattr(tts.StubVerifier, "score", out_of_range)
    cfg = dataclasses.replace(load_config(corpus), verifier="stub")
    lines = []
    assert run_pipeline(cfg, echo=lines.append) == cli.EXIT_INTERNAL
    assert_no_child_left()
    assert lines[-1] == "[fail] tts-select: score 2.0 outside [0, 1] (exit 1)"
    assert not (cfg.out_dir / "tts_select_rejections.jsonl").exists()
    assert "tts-select" not in read(cfg.out_dir / ".forge_state.json")


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


SWAP, LOOP = "acme__calclib-01234567-operator_swap-0001-6f580924", "acme__calclib-01234567-loop_removal-0007-788c2105"
PR7, PR9 = "acme__calclib-pr7", "acme__calclib-pr9"


def test_run_pipeline_reads_curated_once_and_hashes_each_content_once(corpus, monkeypatch):
    # Counts, not timings: within one run, nothing reads an instance corpus
    # twice (a cold run indexes the builders' instances as they are
    # written), curate and classify-errors decode an instance once per
    # lookup (their lookups keep none) and stats never does, stats parses
    # no golden patch, and
    # no file is hashed twice while its content is unchanged. A cold run
    # never decodes curated.jsonl: curate hands each record to the readers.
    # With curate skipped, one pass decodes it for every reader that runs.
    # One CPU: curate's whole pass runs where the patches count. Last, a
    # cold run with the shard after the third trajectory: its readers take
    # its half, so this process decodes and looks up for its own half only.
    set_cpus(monkeypatch, 1)
    loaded, read, decoded_in, hashed, built, parsed_in = [], [], [], [], [], []
    running = [None]
    real_read, real_sha256, real_run_stage = schema_mod.read_corpus, cli._sha256, cli.run_stage
    real_from_record = TaskInstance.from_record.__func__
    real_traj_from_record = Trajectory.from_record.__func__
    real_parse_patch = patch_analysis.parse_patch

    def counting_read(path, kind, rejections, **kwargs):
        (loaded if kind == "instances" else read).append(Path(path))
        return real_read(path, kind, rejections, **kwargs)

    def counting_sha256(path):
        digest = real_sha256(path)
        hashed.append((path, digest))
        return digest

    def counting_from_record(cls, record):
        built.append((running[0], record.get("instance_id")))
        return real_from_record(cls, record)

    def counting_traj_from_record(cls, record):
        decoded_in.append(running[0])
        return real_traj_from_record(cls, record)

    def counting_parse_patch(text):
        parsed_in.append(running[0])
        return real_parse_patch(text)

    def recording_run_stage(stage, cfg):
        running[0] = stage
        try:
            return real_run_stage(stage, cfg)
        finally:
            running[0] = None

    monkeypatch.setattr(schema_mod, "read_corpus", counting_read)
    monkeypatch.setattr(cli, "_sha256", counting_sha256)
    monkeypatch.setattr(cli, "run_stage", recording_run_stage)
    monkeypatch.setattr(TaskInstance, "from_record", classmethod(counting_from_record))
    monkeypatch.setattr(Trajectory, "from_record", classmethod(counting_traj_from_record))
    monkeypatch.setattr(patch_analysis, "parse_patch", counting_parse_patch)
    cfg = load_config(corpus)
    curated_path = cfg.out_dir / "curated.jsonl"
    instance_files = [cfg.out_dir / "instances_real.jsonl", cfg.out_dir / "instances_synth.jsonl"]
    for run in ("cold", "no-change", "readers only", "cold, sharded"):
        for seen in (loaded, read, decoded_in, hashed, built, parsed_in):
            seen.clear()
        if run == "readers only":
            for name in ("samples.jsonl", "stage1.jsonl", "failures.jsonl"):
                (cfg.out_dir / name).unlink()
        if run == "cold, sharded":
            shutil.rmtree(cfg.out_dir)
            split_at(monkeypatch, 3)
        lines = []
        assert run_pipeline(cfg, echo=lines.append) == EXIT_OK, run
        assert curated_path not in loaded and len(loaded) == len(set(loaded)), run
        assert "stats" not in parsed_in, run
        assert len(hashed) == len(set(hashed)), run
        assert_run_state_empty()
        if run == "cold":
            assert not set(loaded) & set(instance_files)
            # For each trajectory in turn, curate looks its instance up, then
            # classify-errors where it failed (all but the 1st and 4th), both
            # in curate's turn; each lookup decodes.
            assert built == [("curate", iid) for iid in (SWAP, PR7, PR7, PR9, PR9, LOOP, SWAP, SWAP, SWAP, SWAP,
                                                         PR9, PR9)]
            assert curated_path not in read
            assert decoded_in == ["curate"] * 7
        elif run == "no-change":
            assert loaded == read == decoded_in == built == []
        elif run == "cold, sharded":
            assert not set(loaded) & set(instance_files) and curated_path not in read
            assert decoded_in == ["curate"] * 3
            assert built == [("curate", iid) for iid in (SWAP, PR7, PR7, PR9, PR9)]
        else:
            assert [line.split()[1].rstrip(":") for line in lines if line.startswith("[ok]")] == [
                "mask", "curriculum", "classify-errors"]
            assert read == [curated_path]
            assert decoded_in == ["mask"] * 7
            # The instance files are indexed by one validating read each.
            # The instance files are indexed by one validating read each, in
            # mask's turn, which feeds classify-errors; then its lookups, one
            # per failed trajectory.
            assert loaded == instance_files
            assert built == [("mask", iid) for iid in (PR7, PR9, SWAP, LOOP, PR7, PR9, SWAP, SWAP, PR9)]
    assert curated_path in {path for path, _ in hashed}


def test_snapshot_name_that_is_not_utf8_is_hashed_by_its_bytes(corpus):
    # A directory's digest takes each relative name's bytes as the file
    # system holds them, so a name that is not UTF-8 ends no pipeline.
    snapshot = corpus.parent / "snapshot"
    try:
        (snapshot / os.fsdecode(b"bad\xffname.txt")).write_bytes(b"x\n")
    except OSError:
        pytest.skip("the file system refuses a name that is not UTF-8")
    assert run_pipeline(load_config(corpus), echo=lambda s: None) == EXIT_OK
    assert cli._sha256(snapshot) == hashlib.sha256(
        b"bad\xffname.txt" + b"x\n" + b"calc.py" + TOY_CALC.encode()
        + b"tests/test_calc.py" + TOY_TESTS.encode()).hexdigest()


def test_output_the_file_system_refuses_exits_1_and_leaves_no_temp_file(tmp_path, capsys):
    # A directory where the pipeline writes a stage output, a stage report
    # or the state file: the stage fails with exit 1 and writes its report,
    # or main prints one error line and exits 1.
    for name in ("samples.jsonl", "curation_report.json", ".forge_state.json"):
        config = build_integration_corpus(tmp_path / name)
        (config.parent / "out" / name).mkdir(parents=True)
        capsys.readouterr()
        assert cli.main(["pipeline", "--config", str(config)]) == EXIT_INTERNAL, name
        out, err = capsys.readouterr()
        if name == "samples.jsonl":
            assert "[fail] mask: " in out and out.endswith("(exit 1)\n") and err == ""
            assert json.loads((config.parent / "out" / "mask_report.json").read_text())["exit_code"] == 1
        else:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (name, err)
        assert not [p for p in (config.parent / "out").rglob("*") if p.name.endswith(".tmp")], name


def test_chunked_digest_equals_a_whole_file_sha256(tmp_path):
    # The hash reads 64 KiB at a time; the digest must not depend on that,
    # for a file longer than one chunk or for the files of a directory.
    big = bytes(range(256)) * (5 * 4096 + 3)  # 5 MiB and 768 bytes
    tree = tmp_path / "tree"
    (tree / "sub").mkdir(parents=True)
    (tree / "sub" / "big.bin").write_bytes(big)
    (tree / "a.txt").write_bytes(b"a\n")
    (tree / "empty").write_bytes(b"")
    assert cli._sha256(tree / "sub" / "big.bin") == hashlib.sha256(big).hexdigest()
    whole = hashlib.sha256(b"a.txt" + b"a\n" + b"empty" + b"sub/big.bin" + big).hexdigest()
    assert cli._sha256(tree) == whole


def test_digest_holds_one_small_chunk_at_a_time(tmp_path):
    # Hashing a 5 MiB file allocates one 64 KiB chunk at a time, never the
    # file or a large buffer: its traced peak stays far below the file.
    import tracemalloc

    big = tmp_path / "big.bin"
    big.write_bytes(bytes(range(256)) * (5 * 4096))
    tracemalloc.start()
    try:
        digest = cli._sha256(big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(big.read_bytes()).hexdigest()
    assert peak < 256 * 1024, peak


def test_run_pipeline_encodes_each_curated_trajectory_once_and_tokenizes_each_command_once(
    corpus, monkeypatch
):
    # Counts, not timings: each curated trajectory is encoded once, into
    # curated.jsonl (the stage files list ids only), and classify-errors
    # splits each distinct bash command once however many trajectories
    # repeat it.
    import shlex

    from lego_forge import error_taxonomy

    encoded, split = [], []
    real_to_record, real_split = Trajectory.to_record, shlex.split

    def counting_to_record(self):
        encoded.append(self.trajectory_id)
        return real_to_record(self)

    def counting_split(command, *args, **kwargs):
        split.append(command)
        return real_split(command, *args, **kwargs)

    error_taxonomy._read_paths.cache_clear()
    monkeypatch.setattr(Trajectory, "to_record", counting_to_record)
    monkeypatch.setattr(shlex, "split", counting_split)
    cfg = load_config(corpus)
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    curated_ids = [r["trajectory_id"] for r in read_jsonl(cfg.out_dir / "curated.jsonl")]
    staged = [r["trajectory_id"] for n in (1, 2, 3) for r in read_jsonl(cfg.out_dir / f"stage{n}.jsonl")]
    assert len(staged) > len(set(staged)) and read_jsonl(cfg.out_dir / "failures.jsonl")
    assert sorted(encoded) == sorted(curated_ids)
    assert split and len(split) == len(set(split))
    assert_run_state_empty()


def test_corpus_stats_equal_the_whole_instance_aggregate(corpus):
    # stats sums index entries; its bytes must equal those of the aggregate
    # over whole instances that it replaced, over the built corpora and an
    # external one that repeats a built id (the built instance counts) and
    # adds one.
    from lego_forge.schema import save_corpus

    cfg = run_stages(load_config(corpus), "build-tasks")
    pr7, pr9 = load_corpus(cfg.out_dir / "instances_real.jsonl", "instances").records
    external = corpus.parent / "external_instances.jsonl"
    save_corpus([dataclasses.replace(pr7, problem_statement="a shorter text", pass_to_pass=()),
                 dataclasses.replace(pr9, instance_id="extra", image_name="sandbox.extra")], external)
    with open(corpus, "a", encoding="utf-8") as f:
        f.write("instances = external_instances.jsonl\n")
    cfg = load_config(corpus)
    assert run_pipeline(cfg, echo=lambda s: None) == EXIT_OK
    union = {}
    for source in cli._instance_sources(cfg):
        for inst in load_corpus(source, "instances").records:
            union.setdefault(inst.instance_id, inst)
    assert len(union) == 5 and union[PR7].pass_to_pass

    def aggregate(group):
        n = len(group)
        return {
            "instances": n,
            "issue_words": sum(len(i.problem_statement.split()) for i in group) / n,
            "golden_patch": patch_analysis.mean_patch_stats([i.golden_stats for i in group]),
            "tests": {
                "fail_to_pass": sum(len(i.fail_to_pass) for i in group) / n,
                "pass_to_pass": sum(len(i.pass_to_pass) for i in group) / n,
                "total": sum(len(i.fail_to_pass) + len(i.pass_to_pass) for i in group) / n,
            },
        }

    text = (cfg.out_dir / "corpus_stats.json").read_text(encoding="utf-8")
    everyone = list(union.values())
    expected = {**json.loads(text), "combined": aggregate(everyone),
                **{key: aggregate([i for i in everyone if i.origin == origin])
                   for key, origin in (("real", "real"), ("synthetic", "synthetic"))}}
    assert cli._dump_report(expected) == text


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
    real_save = schema_mod.save_jsonl

    def recording_save(records, path):
        if Path(path).name.endswith("_rejections.jsonl"):  # run_stage writes a rejection report
            held_at_reject.append([path.name for path, _ in cli._handoff])
        return real_save(records, path)

    monkeypatch.setattr(schema_mod, "save_jsonl", recording_save)
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

    def counting_read(path, kind, rejections, **kwargs):
        loaded.append(Path(path).name)
        return real_read(path, kind, rejections, **kwargs)

    real_read = schema_mod.read_corpus
    monkeypatch.setattr(schema_mod, "read_corpus", counting_read)
    assert cli.main(["classify-errors", "--config", str(corpus)]) == EXIT_OK
    assert loaded == ["instances_real.jsonl", "instances_synth.jsonl", external.name, "curated.jsonl"]
    assert_run_state_empty()


def test_every_corpus_load_in_cli_goes_through_one_reader():
    # cli indexes each instance corpus it did not write through _index,
    # which streams it through _stream and keeps the index for the run.
    # Every other stage input that fails its stage on a rejection is
    # streamed through _stream too: curated.jsonl into the reader stages
    # (the shard's half of it where curate fed them the first half), and
    # mutations, histories, rollouts and surface. build-tasks, which skips
    # a bad line with its reason, streams real_inputs through read_jsonl
    # itself, and so does curate's index of final_reports, whose rejections
    # come after the trajectories'. Each share of the trajectories is read
    # through read_corpus, since the shard's rejections join this
    # process's before the stage fails.
    calls = []

    class Finder(ast.NodeVisitor):
        scope = ["cli"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name in ("load_corpus", "read_corpus", "load_jsonl", "read_jsonl", "_stream"):
                calls.append((name, ".".join(self.scope)))
            self.generic_visit(node)

    Finder().visit(ast.parse(Path(cli.__file__).read_text(encoding="utf-8")))
    assert calls == [
        ("_stream", "cli._index"),
        ("read_corpus", "cli._stream"),
        ("read_jsonl", "cli._stream"),
        ("read_jsonl", "cli._stage_build_tasks"),
        ("_stream", "cli._stage_inject"),
        ("_stream", "cli._stage_sanitize.sanitized"),
        ("read_jsonl", "cli._stage_curate"),
        ("read_corpus", "cli._stage_curate.share"),
        ("_stream", "cli._fold"),
        ("_stream", "cli._stage_tts_select"),
        ("_stream", "cli._stage_tts_select"),
    ]


def test_each_stage_name_is_quoted_only_in_its_stage_entry():
    # STAGES and run_stage are the only code that knows a stage's name: no
    # stage body stamps its report with it or names its rejection report.
    names = {stage.name for stage in cli.STAGES}
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    entries = [node.args[0] for node in ast.walk(tree)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Stage"]
    quoted = [node for node in ast.walk(tree) if isinstance(node, ast.Constant) and node.value in names]
    assert sorted(node.value for node in quoted) == sorted(names)
    assert all(any(node is entry for entry in entries) for node in quoted)


def test_sanitize_parses_each_date_once(corpus, monkeypatch):
    parsed = []
    real_parse = schema_mod.parse_timestamp

    def counting_parse(text):
        parsed.append(text)
        return real_parse(text)

    monkeypatch.setattr("lego_forge.repo_sanitizer.parse_timestamp", counting_parse)
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


@pytest.mark.parametrize("commits", [
    [("B", "2023-01-01", ["A"]), ("A", "2023-01-01", []), ("C", "2023-09-01", ["B"]), ("D", "2023-02-01", ["C"])],
    [("A", "2023-01-01", []), ("B", "2023-09-01", ["A"]), ("A", "2023-02-01", ["B"])],
], ids=["child-first", "repeated-id"])
def test_sanitize_rejects_a_history_not_parents_first_with_unique_ids(corpus, commits):
    # Sanitized, either history would lose a link or repeat a commit; it is
    # BAD_RECORD at its line instead, and the stage exits 3.
    cfg = load_config(corpus)
    history = {"instance_id": "disordered", "policy": "cutoff", "cutoff": "2023-03-01T00:00:00Z",
               "commits": [{"commit_id": cid, "author_date": f"{day}T00:00:00Z", "message": "m",
                            "parent_ids": parents} for cid, day, parents in commits]}
    with open(cfg.histories, "a", encoding="utf-8") as f:
        f.write(json.dumps(history) + "\n")
    code, report = run_stage("sanitize", cfg)
    assert code == EXIT_VALIDATION
    assert [(e["line_no"], e["codes"]) for e in read_jsonl(Path(report["rejection_report"]))] == [
        (len(read_jsonl(cfg.histories)), ["BAD_RECORD"])]
    assert not (cfg.out_dir / "sanitized_histories.jsonl").exists()



def write_big_input(cfg, stage: str) -> Path:
    """Replace the input of `sanitize` or `tts-select` with at least 8 MB of
    valid lines that the stage keeps whole in its output or ranking."""
    text = "x" * 2600
    if stage == "sanitize":
        path = cfg.histories
        lines = (
            {"instance_id": f"i{h}", "policy": "cutoff", "cutoff": "2023-12-31T00:00:00+00:00",
             "commits": [{"commit_id": f"h{h}c{c}", "author_date": "2023-01-01T00:00:00+00:00",
                          "message": f"{h} {c} {text}", "parent_ids": [f"h{h}c{c - 1}"] if c else []}
                         for c in range(50)]}
            for h in range(64)
        )
    else:
        path = cfg.rollouts
        lines = ({"instance_id": f"i{i}", "rollout_index": k, "trajectory_summary": f"{i} {k}",
                  "final_patch": f"{i} {k} {text * 2}", "resolved": k == 1}
                 for i in range(400) for k in range(4))
    save_jsonl(lines, path)
    assert path.stat().st_size >= 8 << 20
    return path


@pytest.mark.parametrize("stage", ["sanitize", "tts-select"])
def test_worker_stage_holds_one_input_line_at_a_time(corpus, stage):
    # Each line is decoded, checked and written (or scored) before the next
    # is read, so the traced peak stays far below the input's size.
    import tracemalloc

    cfg = load_config(corpus)
    path = write_big_input(cfg, stage)
    tracemalloc.start()
    try:
        code, _ = run_stage(stage, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < path.stat().st_size / 2, (peak, path.stat().st_size)


@pytest.mark.parametrize("stage, key, output, codes", [
    ("sanitize", "histories", "sanitized_histories.jsonl", ["BAD_RECORD"]),
    ("tts-select", "rollouts", "selection.jsonl", ["DUPLICATE_ROLLOUT_INDEX"]),
])
def test_rejected_last_line_keeps_the_earlier_output(corpus, stage, key, output, codes):
    # The last line is read after the others are written (or scored): its
    # rejection still fails the stage before any output is replaced.
    cfg = load_config(corpus)
    assert run_stage(stage, cfg)[0] == EXIT_OK
    before = (cfg.out_dir / output).read_bytes()
    path = getattr(cfg, key)
    text = path.read_text(encoding="utf-8")
    first = json.loads(text.split("\n", 1)[0])
    bad = {**first, "commits": [*first["commits"], {"commit_id": "c9"}]} if stage == "sanitize" else first
    path.write_text(text + json.dumps(bad) + "\n", encoding="utf-8")
    code, report = run_stage(stage, cfg)
    assert code == EXIT_VALIDATION
    entries = read_jsonl(Path(report["rejection_report"]))
    assert [(e["line_no"], e["codes"]) for e in entries] == [(text.count("\n") + 1, codes)]
    assert not [p.name for p in cfg.out_dir.iterdir() if p.name.endswith(".tmp")]
    assert (cfg.out_dir / output).read_bytes() == before


def test_tts_select_scores_each_candidate_once(corpus, monkeypatch):
    from lego_forge import tts

    scored = []
    real_score = tts.StubVerifier.score

    def counting_score(self, candidate):
        scored.append((candidate.instance_id, candidate.rollout_index))
        return real_score(self, candidate)

    monkeypatch.setattr(tts.StubVerifier, "score", counting_score)
    cfg = dataclasses.replace(load_config(corpus), verifier="stub")
    assert run_stage("tts-select", cfg)[0] == EXIT_OK
    rollouts = read_jsonl(cfg.rollouts)
    assert len(scored) == len(rollouts) > len(read_jsonl(cfg.out_dir / "selection.jsonl"))
    assert sorted(scored) == sorted((r["instance_id"], r["rollout_index"]) for r in rollouts)

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


def test_stats_alone_prints_its_instance_count(corpus, capsys):
    cfg = run_stages(load_config(corpus), "build-tasks", "inject")
    assert cli.main(["stats", "--config", str(corpus)]) == EXIT_OK
    instances = read(cfg.out_dir / "corpus_stats.json")["combined"]["instances"]
    assert instances > 0
    assert capsys.readouterr().out == f"[ok]   stats instances={instances}\n"


def test_seed_comes_only_from_the_config(corpus, capsys):
    # The config key is the one seed, and the skip logic hashes the config,
    # so a new seed re-runs the stages that draw from it.
    with pytest.raises(SystemExit) as exited:
        cli.main(["pipeline", "--config", str(corpus), "--seed", "7"])
    assert exited.value.code == 2
    text = corpus.read_text(encoding="utf-8") + "verifier = stub\n"
    selections = []
    for seed in (7, 8):
        corpus.write_text(text + f"seed = {seed}\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["pipeline", "--config", str(corpus)]) == EXIT_OK
        assert "[ok]   tts-select" in capsys.readouterr().out
        selections.append((corpus.parent / "out" / "selection.jsonl").read_bytes())
    assert selections[0] != selections[1]


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

    # A repo that is not a directory exits 2; a missing git or an --out that
    # cannot be written exits 1. Each prints one error line and writes nothing.
    (tmp_path / "dir.jsonl").mkdir()
    (tmp_path / "plain").write_text("x\n")
    probes = [
        (EXIT_MISSING_INPUT, tmp_path / "absent", out_file, None),
        (EXIT_MISSING_INPUT, tmp_path / "plain", out_file, None),
        (EXIT_INTERNAL, repo, out_file, str(tmp_path / "no-git")),
        (EXIT_INTERNAL, repo, tmp_path / "dir.jsonl", None),
        (EXIT_INTERNAL, repo, tmp_path / "plain" / "history.jsonl", None),
    ]
    for want, repo_arg, out_arg, path_env in probes:
        before = tree_bytes(tmp_path)
        capsys.readouterr()
        with pytest.MonkeyPatch.context() as patch:
            if path_env is not None:
                patch.setenv("PATH", path_env)
            code = cli.main(["export-history", "--repo", str(repo_arg), "--out", str(out_arg)])
        out, err = capsys.readouterr()
        assert code == want, (repo_arg, out_arg)
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert tree_bytes(tmp_path) == before


def test_export_history_out_under_a_regular_file_says_its_parent_is_no_directory(tmp_path, capsys):
    # As at config load for out_dir, the line names the parent that is a
    # file, not the errno that creating the directory gave; nothing runs git.
    (tmp_path / "blocker").write_text("x\n")
    for out in (tmp_path / "blocker" / "h.jsonl", tmp_path / "blocker" / "sub" / "h.jsonl"):
        before = tree_bytes(tmp_path)
        capsys.readouterr()
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("PATH", str(tmp_path / "no-git"))
            code = cli.main(["export-history", "--repo", str(tmp_path), "--out", str(out)])
        out_text, err = capsys.readouterr()
        assert code == EXIT_INTERNAL and out_text == ""
        assert err == f"error: cannot write --out {out}: {tmp_path / 'blocker'} is not a directory\n"
        assert tree_bytes(tmp_path) == before
