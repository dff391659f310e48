"""Shared fixture builders: record constructors, random generators with
fixed seeds, the toy repository snapshot, and the end-to-end corpus used by
the CLI tests."""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from lego_forge import task_builder
from lego_forge.patch_analysis import make_patch
from lego_forge.schema import Step, TaskInstance, TestReport, ToolCall, Trajectory, save_jsonl

def read_jsonl(path: Path) -> list[dict]:
    """The records of a JSON Lines file the pipeline wrote, decoded
    independently of the program's own reader."""
    return [json.loads(line) for line in path.read_text(encoding="utf-8").split("\n") if line]


# ---------------------------------------------------------------------------
# Parser probes

BAD_FIELD_VALUES = (None, True, 7, 1.5, float("nan"), "x", [], {})


def assert_refuses_bad_fields(parse, line: dict, refusals=(ValueError,)) -> None:
    """Feed `parse` the line with each field dropped, then with each field
    set in turn to each of BAD_FIELD_VALUES. Each time it must raise one of
    `refusals` or return a sound record (see `assert_sound`)."""
    variants = [{k: v for k, v in line.items() if k != key} for key in line]
    variants += [{**line, key: value} for key in line for value in BAD_FIELD_VALUES]
    for variant in variants:
        try:
            parsed = parse(variant)
        except refusals:
            continue
        assert_sound(parsed, variant)


def assert_sound(value, variant) -> None:
    """A dataclass field annotated int holds an int that is not a bool, a
    bool appears only in a field annotated bool, and every float is finite."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            item = getattr(value, f.name)
            if f.type in ("int", "bool"):
                assert type(item).__name__ == f.type, (f.name, item, variant)
            else:
                assert_sound(item, variant)
    elif isinstance(value, (list, tuple)):
        for item in value:
            assert_sound(item, variant)
    elif isinstance(value, dict):
        for item in value.values():
            assert_sound(item, variant)
    else:
        assert not isinstance(value, bool), (value, variant)
        assert not isinstance(value, float) or math.isfinite(value), (value, variant)


# ---------------------------------------------------------------------------
# Record builders


def bash_step(index: int, command: str, observation: str = "", phase: str = "other",
              error_flag: bool = False) -> Step:
    return Step(
        index=index,
        action=ToolCall("execute_bash", {"command": command}),
        observation=observation,
        phase=phase,
        error_flag=error_flag,
    )


def editor_step(index: int, command: str, path: str, observation: str = "",
                view_range=None, phase: str = "other", error_flag: bool = False) -> Step:
    arguments = {"command": command, "path": path}
    if view_range is not None:
        arguments["view_range"] = view_range
    return Step(
        index=index,
        action=ToolCall("str_replace_editor", arguments),
        observation=observation,
        phase=phase,
        error_flag=error_flag,
    )


def think_step(index: int, thought: str = "planning next move") -> Step:
    return Step(index=index, action=ToolCall("think", {"thought": thought}))


def finish_step(index: int) -> Step:
    return Step(index=index, action=ToolCall("finish", {}))


def tracker_step(index: int) -> Step:
    return Step(
        index=index,
        action=ToolCall("task_tracker", {"items": ["todo"]}),
        observation="tracker updated",
    )


def make_traj(steps, trajectory_id: str = "traj-1", instance_id: str = "inst-1",
              final_patch: str = "", outcome: str = "unclassified",
              max_turns: int = 100, extra: dict | None = None) -> Trajectory:
    steps = tuple(s if s.index == i else replace(s, index=i) for i, s in enumerate(steps))
    return Trajectory(
        trajectory_id=trajectory_id,
        instance_id=instance_id,
        steps=steps,
        final_patch=final_patch,
        turn_count=len(steps),
        outcome=outcome,
        max_turns=max_turns,
        extra=extra or {},
    )


CALC_OLD = "def add(a, b):\n    return a - b\n\n\ndef mul(a, b):\n    return a * b\n"
CALC_NEW = "def add(a, b):\n    return a + b\n\n\ndef mul(a, b):\n    return a * b\n"
DEFAULT_GOLDEN = make_patch(CALC_OLD, CALC_NEW, "src/calc.py")


def make_instance(**overrides) -> TaskInstance:
    record = {
        "instance_id": "inst-1",
        "repo": "acme/calclib",
        "base_commit": "c0ffee00c0ffee00c0ffee00c0ffee00c0ffee00",
        "origin": "synthetic",
        "problem_statement": "add returns the wrong value for positive operands",
        "golden_patch": DEFAULT_GOLDEN,
        "fail_to_pass": ("tests/test_calc.py::test_add",),
        "pass_to_pass": ("tests/test_calc.py::test_mul",),
        "image_name": "sandbox.acme__calclib.c0ffee00c0ff",
        "created_at": "2024-04-01T00:00:00+00:00",
        "difficulty": None,
    }
    record.update(overrides)
    extra = record.pop("extra", {})
    return TaskInstance(extra=extra, **record)


def make_report(code_state: str, **results) -> TestReport:
    """Statuses keyed by shorthand: make_report("buggy", t_add="fail")."""
    return TestReport(code_state=code_state, results={k: v for k, v in results.items()})


# ---------------------------------------------------------------------------
# Toy repository for bug injection


TOY_CALC = """def add(a, b):
    return a + b


def sub(a, b):
    return a - b


def clamp(x, lo, hi):
    if x < lo:
        return lo
    if x > hi:
        return hi
    return x


def total(values):
    acc = 0
    for v in values:
        acc = acc + v
    return acc


def legacy_scale(x):
    if x == -999999:
        return x * 3
    return x
"""

TOY_TESTS = """from calc import add, clamp, total


def test_add():
    assert add(2, 3) == 5


def test_clamp_low():
    assert clamp(-1, 0, 10) == 0


def test_total():
    assert total([1, 2, 3]) == 6
"""


def toy_snapshot() -> dict[str, str]:
    return {"calc.py": TOY_CALC, "tests/test_calc.py": TOY_TESTS}


# Sources ast.parse refuses without a SyntaxError on some supported Python:
# a NUL byte (ValueError on 3.10), a sum of 100,000 terms (RecursionError on
# 3.11+; 3.10 parses it) and 100,000 unary minuses (MemoryError).
PARSER_REFUSALS = {"nul-byte": "x = 1\0\n", "long-sum": "x = " + "+".join(["1"] * 100_000) + "\n",
                   "deep-unary": "-" * 100_000 + "1\n"}


T_ADD = "tests/test_calc.py::test_add"
T_CLAMP = "tests/test_calc.py::test_clamp_low"
T_TOTAL = "tests/test_calc.py::test_total"


def toy_locator(detail_or_kind: str, line: int) -> task_builder.NodeLocator:
    """Find the unique toy-repo locator for an operator symbol or node kind
    on a given line."""
    provider = task_builder.PythonAstProvider()
    tree = provider.parse("calc.py", TOY_CALC)
    kind = detail_or_kind if detail_or_kind in ("conditional", "loop") else "operator"
    for loc in provider.enumerate(tree, kind):
        if loc.start_line == line and (kind != "operator" or loc.detail == detail_or_kind):
            return loc
    raise AssertionError(f"no {detail_or_kind} locator on line {line}")


# ---------------------------------------------------------------------------
# Random generators (all take an explicit rng for reproducibility)


def random_file(rng: random.Random, min_lines: int = 5, max_lines: int = 60) -> str:
    n = rng.randrange(min_lines, max_lines)
    return "".join(f"line {i} token{rng.randrange(999)}\n" for i in range(n))


def random_edit(rng: random.Random, text: str) -> str:
    out = []
    for line in text.splitlines(keepends=True):
        roll = rng.random()
        if roll < 0.12:
            continue
        if roll < 0.24:
            out.append(f"changed {rng.randrange(999)}\n")
            continue
        out.append(line)
        if rng.random() < 0.08:
            out.append(f"inserted {rng.randrange(999)}\n")
    if not out:
        out.append("fallback\n")
    return "".join(out)


_OBS_POOL = (
    "",
    "3 passed in 0.12s",
    "All 12 tests passed",
    "file written",
    "def add(a, b):\n    return a + b",
    "Traceback (most recent call last):\n  File \"calc.py\", line 2\nTypeError: bad operand",
    "bash: frobnicate: command not found",
    "ERROR: Invalid `view_range` parameter: expected [start, end]",
    "FAILED tests/test_calc.py::test_add - AssertionError",
)

_PHASE_POOL = ("reproduction", "exploration", "editing", "testing", "other")


def random_trajectory(rng: random.Random, trajectory_id: str, n_steps: int | None = None) -> Trajectory:
    n = n_steps if n_steps is not None else rng.randrange(2, 12)
    steps = []
    for i in range(n):
        kind = rng.random()
        obs = rng.choice(_OBS_POOL)
        phase = rng.choice(_PHASE_POOL)
        if kind < 0.5:
            steps.append(bash_step(i, f"echo step {i}", obs, phase=phase))
        elif kind < 0.8:
            steps.append(editor_step(i, "view", "src/calc.py", obs, phase=phase))
        else:
            steps.append(Step(index=i, action=f"thinking about step {i}", observation=obs, phase=phase))
    return make_traj(steps, trajectory_id=trajectory_id, instance_id="inst-1")


# ---------------------------------------------------------------------------
# Integration corpus


PARSER_OLD = "def parse(text):\n    return text.split(',')\n"
PARSER_NEW = "def parse(text):\n    return [t.strip() for t in text.split(',')]\n"

FORMAT_OLD = "def fmt(x):\n    return str(x)\n"
FORMAT_NEW = "def fmt(x):\n    return format(x, '.2f')\n"
UTIL_OLD = "def pad(s):\n    return s\n"
UTIL_NEW = "def pad(s):\n    return s.ljust(8)\n"

REPO = "acme/calclib"
BASE_COMMIT = "0123456789abcdef0123456789abcdef01234567"


def _toy_reports_for(f2p_fail: list[str]) -> tuple[dict, dict]:
    all_tests = [T_ADD, T_CLAMP, T_TOTAL]
    buggy = {"code_state": "buggy",
             "results": {t: ("fail" if t in f2p_fail else "pass") for t in all_tests}}
    restored = {"code_state": "restored", "results": {t: "pass" for t in all_tests}}
    return buggy, restored


def build_integration_corpus(root: Path) -> Path:
    """Write a complete, self-consistent corpus directory and return the
    config file path."""
    root.mkdir(parents=True, exist_ok=True)

    # -- snapshot
    snapshot_dir = root / "snapshot"
    (snapshot_dir / "tests").mkdir(parents=True, exist_ok=True)
    (snapshot_dir / "calc.py").write_text(TOY_CALC, encoding="utf-8")
    (snapshot_dir / "tests" / "test_calc.py").write_text(TOY_TESTS, encoding="utf-8")

    # -- mutations (third one hits dead code: an invisible bug)
    swap_add = toy_locator("+", 2)
    dead_mul = toy_locator("*", 26)
    buggy_add, restored = _toy_reports_for([T_ADD])
    buggy_total, _ = _toy_reports_for([T_TOTAL])
    identical = {"code_state": "buggy",
                 "results": {t: "pass" for t in (T_ADD, T_CLAMP, T_TOTAL)}}
    mutations = [
        {
            "mutator": "operator_swap",
            "target": {"path": "calc.py", "start_line": swap_add.start_line,
                       "start_col": swap_add.start_col, "end_line": swap_add.end_line,
                       "end_col": swap_add.end_col},
            "seed": 1,
            "buggy_report": buggy_add,
            "restored_report": restored,
        },
        {
            "mutator": "loop_removal",
            "path": "calc.py",
            "seed": 7,
            "buggy_report": buggy_total,
            "restored_report": restored,
        },
        {
            "mutator": "operator_swap",
            "target": {"path": "calc.py", "start_line": dead_mul.start_line,
                       "start_col": dead_mul.start_col, "end_line": dead_mul.end_line,
                       "end_col": dead_mul.end_col},
            "seed": 3,
            "buggy_report": identical,
            "restored_report": restored,
        },
    ]
    save_jsonl(mutations, root / "mutations.jsonl")

    # Pre-build the synthetic instances the pipeline will emit, to learn
    # their ids and golden patches for the trajectory fixtures.
    statements = task_builder.TemplateStatementProvider()
    snapshot = toy_snapshot()
    inst_swap = task_builder.build_synthetic_instance(
        snapshot,
        task_builder.MutationSpec("operator_swap", target=swap_add, seed=1),
        (TestReport.from_record(buggy_add), TestReport.from_record(restored)),
        statements,
        repo=REPO,
        base_commit=BASE_COMMIT,
    )
    inst_loop = task_builder.build_synthetic_instance(
        snapshot,
        task_builder.MutationSpec("loop_removal", path="calc.py", seed=7),
        (TestReport.from_record(buggy_total), TestReport.from_record(restored)),
        statements,
        repo=REPO,
        base_commit=BASE_COMMIT,
    )

    # -- real PR inputs
    parser_diff = make_patch(PARSER_OLD, PARSER_NEW, "src/parser.py")
    format_diff = make_patch(FORMAT_OLD, FORMAT_NEW, "src/format.py") + make_patch(
        UTIL_OLD, UTIL_NEW, "src/util.py"
    )
    t_parse_f2p = "tests/test_parser.py::test_parse_strips"
    t_parse_p2p = "tests/test_parser.py::test_parse_basic"
    t_fmt_f2p = "tests/test_format.py::test_fmt"
    t_fmt_p2p = "tests/test_format.py::test_fmt_old"
    real_inputs = [
        {
            "repo": REPO,
            "base_commit": "aaaa000011112222333344445555666677778888",
            "number": 7,
            "merged_diff": parser_diff,
            "issue_text": "parse() keeps the whitespace around comma-separated items, "
                          "so values read from config files never match expectations.",
            "issue_created_at": "2023-03-01T09:00:00+00:00",
            "pre_report": {"code_state": "pre_patch",
                           "results": {t_parse_f2p: "fail", t_parse_p2p: "pass"}},
            "post_report": {"code_state": "post_patch",
                            "results": {t_parse_f2p: "pass", t_parse_p2p: "pass"}},
        },
        {
            "repo": REPO,
            "base_commit": "bbbb000011112222333344445555666677778888",
            "number": 9,
            "merged_diff": format_diff,
            "issue_text": "fmt() renders floats with full precision and pad() never pads, "
                          "which breaks column alignment in the report writer.",
            "issue_created_at": "2023-05-10T12:30:00+00:00",
            "pre_report": {"code_state": "pre_patch",
                           "results": {t_fmt_f2p: "fail", t_fmt_p2p: "pass"}},
            "post_report": {"code_state": "post_patch",
                            "results": {t_fmt_f2p: "pass", t_fmt_p2p: "pass"}},
        },
    ]
    save_jsonl(real_inputs, root / "real_inputs.jsonl")
    pr7_id = "acme__calclib-pr7"
    pr9_id = "acme__calclib-pr9"

    # -- histories
    histories = [
        {
            "instance_id": pr7_id,
            "policy": "cutoff",
            "cutoff": "2023-03-01T09:00:00+00:00",
            "commits": [
                {"commit_id": "c1", "author_date": "2023-01-01T00:00:00+00:00",
                 "message": "initial import", "parent_ids": []},
                {"commit_id": "c2", "author_date": "2023-02-01T00:00:00+00:00",
                 "message": "add parser", "parent_ids": ["c1"]},
                {"commit_id": "c3", "author_date": "2023-06-01T00:00:00+00:00",
                 "message": "fix parser whitespace", "parent_ids": ["c2"]},
            ],
        },
        {
            "instance_id": inst_swap.instance_id,
            "policy": "single_snapshot",
            "snapshot_id": "snap-swap-add",
            "commits": [
                {"commit_id": "s1", "author_date": "2023-01-01T00:00:00+00:00",
                 "message": "clean tree", "parent_ids": []},
                {"commit_id": "s2", "author_date": "2023-01-02T00:00:00+00:00",
                 "message": "inject operator bug", "parent_ids": ["s1"]},
            ],
        },
    ]
    save_jsonl(histories, root / "histories.jsonl")

    # -- trajectories
    trajs = []
    trajs.append(make_traj(
        [
            bash_step(0, "python -m pytest tests/ -x",
                      f"FAILED {T_ADD} - AssertionError: assert -1 == 5"),
            editor_step(1, "view", "calc.py", "1\tdef add(a, b):", view_range="[1, 30]"),
            editor_step(2, "str_replace", "calc.py", "edited calc.py"),
            bash_step(3, "python -m pytest tests/", "3 passed in 0.05s"),
            finish_step(4),
        ],
        trajectory_id="traj-resolved",
        instance_id=inst_swap.instance_id,
        final_patch=inst_swap.golden_patch,
    ))
    cheat_patch = make_patch(
        "def test_parse_strips():\n    assert parse(' a, b') == ['a', 'b']\n",
        "def test_parse_strips():\n    assert True\n",
        "tests/test_parser.py",
    )
    trajs.append(make_traj(
        [
            bash_step(0, "python -m pytest tests/test_parser.py",
                      f"FAILED {t_parse_f2p} - AssertionError"),
            editor_step(1, "str_replace", "tests/test_parser.py", "edited test"),
            bash_step(2, "python -m pytest tests/test_parser.py", "2 passed"),
            finish_step(3),
        ],
        trajectory_id="traj-test-cheat",
        instance_id=pr7_id,
        final_patch=cheat_patch,
    ))
    trajs.append(make_traj(
        [
            bash_step(0, "ls src/", "format.py util.py"),
            bash_step(1, "git log --all --oneline", "9f2c1 fix fmt precision"),
            bash_step(2, "git show 9f2c1aa2b3c4d5e6f708192a3b4c5d6e7f809102", "diff --git ..."),
            editor_step(3, "str_replace", "src/format.py", "edited"),
            editor_step(4, "str_replace", "src/util.py", "edited"),
            bash_step(5, "python -m pytest tests/test_format.py", "2 passed"),
            finish_step(6),
        ],
        trajectory_id="traj-hack",
        instance_id=pr9_id,
        final_patch=format_diff,
    ))
    semi_patch = make_patch(
        TOY_CALC,
        TOY_CALC.replace("acc = 0", "acc = 1"),
        "calc.py",
    )
    semi_steps = [
        bash_step(0, "python -m pytest tests/",
                  f"FAILED {T_TOTAL} - AssertionError: assert 0 == 6"),
        editor_step(1, "view", "calc.py", "def total(values): ..."),
        editor_step(2, "str_replace", "calc.py", "edited"),
    ]
    semi_steps += [think_step(i) for i in range(3, 54)]
    semi_steps.append(bash_step(54, "python -m pytest tests/", f"FAILED {T_TOTAL}"))
    trajs.append(make_traj(
        semi_steps,
        trajectory_id="traj-semi",
        instance_id=inst_loop.instance_id,
        final_patch=semi_patch,
    ))
    trajs.append(make_traj(
        [
            bash_step(0, "python -m pytest tests/", f"FAILED {T_ADD}"),
            think_step(1),
            finish_step(2),
        ],
        trajectory_id="traj-empty",
        instance_id=inst_swap.instance_id,
        final_patch="",
    ))
    offtarget_patch = make_patch(
        "def helper():\n    return 1\n",
        "def helper():\n    return 2\n",
        "src/other.py",
    )
    trajs.append(make_traj(
        [
            bash_step(0, "ls", "calc.py tests"),
            tracker_step(1),
            bash_step(2, "cat src/other.py", "def helper():..."),
            tracker_step(3),
            editor_step(4, "str_replace", "src/other.py", "edited"),
            finish_step(5),
        ],
        trajectory_id="traj-lost",
        instance_id=inst_swap.instance_id,
        final_patch=offtarget_patch,
    ))
    overlap_not_enough = make_patch(FORMAT_OLD, "def fmt(x):\n    return repr(x)\n", "src/format.py")
    long_steps = [
        bash_step(0, "python -m pytest tests/test_format.py",
                  f"FAILED {t_fmt_f2p} - AssertionError"),
        editor_step(1, "view", "src/format.py", "def fmt..."),
        editor_step(2, "view", "src/util.py", "def pad..."),
        editor_step(3, "str_replace", "src/format.py", "edited"),
    ]
    long_steps += [think_step(i) for i in range(4, 100)]
    trajs.append(make_traj(
        long_steps,
        trajectory_id="traj-longrun",
        instance_id=pr9_id,
        final_patch=overlap_not_enough,
        max_turns=100,
    ))
    from lego_forge.schema import save_corpus

    save_corpus(trajs, root / "trajectories.jsonl")

    # -- final test reports per trajectory
    def final(results: dict) -> dict:
        return {"code_state": "final", "results": results}

    final_reports = [
        {"trajectory_id": "traj-resolved",
         **final({T_ADD: "pass", T_CLAMP: "pass", T_TOTAL: "pass"})},
        {"trajectory_id": "traj-test-cheat",
         **final({t_parse_f2p: "pass", t_parse_p2p: "pass"})},
        {"trajectory_id": "traj-hack",
         **final({t_fmt_f2p: "pass", t_fmt_p2p: "pass"})},
        {"trajectory_id": "traj-semi",
         **final({T_TOTAL: "fail", T_ADD: "pass", T_CLAMP: "pass"})},
        {"trajectory_id": "traj-empty",
         **final({T_ADD: "fail", T_CLAMP: "pass", T_TOTAL: "pass"})},
        {"trajectory_id": "traj-lost",
         **final({T_ADD: "fail", T_CLAMP: "pass", T_TOTAL: "pass"})},
        {"trajectory_id": "traj-longrun",
         **final({t_fmt_f2p: "fail", t_fmt_p2p: "pass"})},
    ]
    save_jsonl(final_reports, root / "final_reports.jsonl")

    # -- rollouts (K = 4 per instance) and an allocation surface
    rollouts = []
    flags = {
        inst_swap.instance_id: [False, True, False, True],
        inst_loop.instance_id: [False, False, False, False],
        pr7_id: [True, False, False, False],
    }
    for instance_id, resolved_flags in flags.items():
        for k, resolved in enumerate(resolved_flags):
            rollouts.append({
                "instance_id": instance_id,
                "rollout_index": k,
                "trajectory_summary": f"summary {instance_id} #{k}",
                "final_patch": f"--- a/f.py\n+++ b/f.py\n@@ -1,1 +1,1 @@\n-x{k}\n+y{k}\n",
                "resolved": resolved,
            })
    save_jsonl(rollouts, root / "rollouts.jsonl")

    surface = []
    for turns in (40, 80, 140, 180):
        for rollouts_n in (1, 2, 4, 8):
            base = {40: 0.30, 80: 0.38, 140: 0.42, 180: 0.42}[turns]
            surface.append({"turns": turns, "rollouts": rollouts_n,
                            "rate": round(base + 0.03 * (rollouts_n.bit_length() - 1), 4)})
    save_jsonl(surface, root / "surface.jsonl")

    config_text = f"""# integration corpus
out_dir = out
repo = {REPO}
base_commit = {BASE_COMMIT}
real_inputs = real_inputs.jsonl
snapshot_dir = snapshot
mutations = mutations.jsonl
histories = histories.jsonl
trajectories = trajectories.jsonl
final_reports = final_reports.jsonl
rollouts = rollouts.jsonl
surface = surface.jsonl
latency_budget = 3000
verifier = oracle
recycle_semi_resolved = true
"""
    config_path = root / "forge.cfg"
    config_path.write_text(config_text, encoding="utf-8")
    return config_path


@pytest.fixture()
def corpus(tmp_path) -> Path:
    return build_integration_corpus(tmp_path / "corpus")
