import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lego_forge import trajectory_curation
from lego_forge.patch_analysis import make_patch, parse_patch
from lego_forge.registries import load_error_patterns, load_hack_patterns, load_phase_patterns
from lego_forge.repo_sanitizer import detect_git_hacking, has_high_finding
from lego_forge.schema import OUTCOMES, PHASES, Step, TestReport, ToolCall, validate_trajectory
from lego_forge.sft_masking import step_phase
from lego_forge.trajectory_curation import (
    ClassificationError,
    UnrepairableCallError,
    classify_outcome,
    curate,
    default_test_path_matcher,
    detect_test_modification,
    prune_toolset,
    repair_tool_call,
    rollout_stats,
)

from conftest import (
    CALC_OLD,
    bash_step,
    editor_step,
    finish_step,
    make_instance,
    make_traj,
    think_step,
    tracker_step,
)


def view_call(view_range):
    return ToolCall("str_replace_editor", {"command": "view", "path": "src/calc.py",
                                           "view_range": view_range})


# ---------------------------------------------------------------------------
# repair_tool_call


def test_text_encoded_range_becomes_integer_pair():
    call, repaired = repair_tool_call(view_call("[10, 20]"))
    assert repaired is True
    assert call.arguments["view_range"] == [10, 20]
    assert all(type(v) is int for v in call.arguments["view_range"])


def test_out_of_bounds_range_clipped_to_file_length():
    call, repaired = repair_tool_call(view_call([10, 1000000]),
                                      context={"file_line_count": 100})
    assert repaired is True
    assert call.arguments["view_range"] == [10, 100]


def test_valid_range_passes_through_unrepaired():
    call, repaired = repair_tool_call(view_call([5, 9]),
                                      context={"file_line_count": 100})
    assert repaired is False
    assert call.arguments["view_range"] == [5, 9]


def test_reversed_range_swapped():
    call, repaired = repair_tool_call(view_call([20, 10]))
    assert repaired is True
    assert call.arguments["view_range"] == [10, 20]


def test_negative_lower_bound_clipped_to_one():
    call, repaired = repair_tool_call(view_call([-3, 10]))
    assert repaired is True
    assert call.arguments["view_range"] == [1, 10]


def test_string_pair_elements_parse():
    call, repaired = repair_tool_call(view_call(["10", "20"]))
    assert repaired is True
    assert call.arguments["view_range"] == [10, 20]


def test_unrepairable_range_raises_with_call_attached():
    bad = view_call("whole file")
    with pytest.raises(UnrepairableCallError) as err:
        repair_tool_call(bad)
    assert err.value.call is bad


def test_non_editor_calls_untouched():
    call = ToolCall("execute_bash", {"command": "ls"})
    out, repaired = repair_tool_call(call)
    assert out is call
    assert repaired is False


def test_repair_idempotent_on_random_calls():
    rng = random.Random(42)
    for _ in range(500):
        style = rng.random()
        lo, hi = rng.randrange(-50, 400), rng.randrange(-50, 400)
        if style < 0.4:
            raw = f"[{lo}, {hi}]"
        elif style < 0.7:
            raw = [lo, hi]
        else:
            raw = [str(lo), str(hi)]
        context = {"file_line_count": rng.randrange(1, 300)} if rng.random() < 0.7 else None
        first, _ = repair_tool_call(view_call(raw), context)
        second, repaired_again = repair_tool_call(first, context)
        assert repaired_again is False
        assert second.arguments["view_range"] == first.arguments["view_range"]
        lo2, hi2 = first.arguments["view_range"]
        assert 1 <= lo2 <= hi2
        if context:
            assert hi2 <= context["file_line_count"]


# ---------------------------------------------------------------------------
# prune_toolset


def test_prune_removes_tracker_steps_and_repacks_indices():
    steps = []
    for i in range(10):
        steps.append(tracker_step(i) if i in (2, 7) else bash_step(i, f"echo {i}"))
    traj = make_traj(steps)
    pruned = prune_toolset(traj)
    assert len(pruned.steps) == 8
    assert pruned.turn_count == 8
    assert [s.index for s in pruned.steps] == list(range(8))
    assert all(
        not (isinstance(s.action, ToolCall) and s.action.tool == "task_tracker")
        for s in pruned.steps
    )


def test_prune_keeps_four_tool_trajectory_unchanged():
    traj = make_traj([
        bash_step(0, "ls"),
        editor_step(1, "view", "src/calc.py"),
        think_step(2),
        finish_step(3),
    ])
    assert prune_toolset(traj) == traj


def test_prune_keeps_plain_messages():
    traj = make_traj([tracker_step(0), replace(bash_step(1, "x"), action="just a note")])
    pruned = prune_toolset(traj)
    assert len(pruned.steps) == 1
    assert pruned.steps[0].action == "just a note"


def test_prune_idempotent():
    traj = make_traj([tracker_step(0), bash_step(1, "ls"), finish_step(2)])
    once = prune_toolset(traj)
    assert prune_toolset(once) == once


# ---------------------------------------------------------------------------
# detect_test_modification


def patch_for(path):
    return parse_patch(make_patch("old\n", "new\n", path))


def test_patch_editing_test_file_detected():
    assert detect_test_modification(patch_for("tests/test_core.py"), make_instance()) is True


def test_patch_editing_source_only_not_detected():
    assert detect_test_modification(patch_for("src/module.py"), make_instance()) is False


def test_empty_patch_not_detected():
    assert detect_test_modification(parse_patch(""), make_instance()) is False


def test_f2p_module_path_detected_even_outside_conventions():
    inst = make_instance(fail_to_pass=("checks/verify_output.py::test_x",))
    assert detect_test_modification(patch_for("checks/verify_output.py"), inst) is True


def test_default_matcher_conventions():
    assert default_test_path_matcher("tests/test_core.py")
    assert default_test_path_matcher("pkg/testing/helpers.py")
    assert default_test_path_matcher("pkg/core_test.py")
    assert default_test_path_matcher("conftest.py")
    assert not default_test_path_matcher("src/contest.py")
    assert not default_test_path_matcher("src/module.py")


# ---------------------------------------------------------------------------
# classify_outcome


GOLDEN_PATCH = make_instance().golden_patch  # fixes src/calc.py


def passing_report():
    return TestReport("final", {"tests/test_calc.py::test_add": "pass",
                                "tests/test_calc.py::test_mul": "pass"})


def failing_report():
    return TestReport("final", {"tests/test_calc.py::test_add": "fail",
                                "tests/test_calc.py::test_mul": "pass"})


def clean_steps():
    return [
        bash_step(0, "python -m pytest tests/", "FAILED tests/test_calc.py::test_add"),
        editor_step(1, "str_replace", "src/calc.py", "edited"),
        bash_step(2, "python -m pytest tests/", "2 passed"),
        finish_step(3),
    ]


def test_all_pass_clean_patch_is_resolved():
    traj = make_traj(clean_steps(), final_patch=GOLDEN_PATCH)
    assert classify_outcome(traj, make_instance(), passing_report()) == "resolved"


def test_tests_pass_but_test_edit_is_filtered():
    cheat = GOLDEN_PATCH + make_patch("assert add(2, 3) == 5\n", "assert True\n",
                                      "tests/test_calc.py")
    traj = make_traj(clean_steps(), final_patch=cheat)
    assert classify_outcome(traj, make_instance(), passing_report()) == "unresolved"


def test_tests_pass_but_git_hack_is_filtered():
    steps = clean_steps()
    steps.insert(1, bash_step(1, "git log --all", "deadbee fix add"))
    traj = make_traj(steps, final_patch=GOLDEN_PATCH)
    assert classify_outcome(traj, make_instance(), passing_report()) == "unresolved"


def test_failing_tests_with_full_golden_recall_is_semi_resolved():
    # Golden touches src/calc.py; the agent edits that file (wrong lines).
    wrong_fix = make_patch(CALC_OLD, CALC_OLD.replace("a * b", "a * b * 1"), "src/calc.py")
    traj = make_traj(clean_steps(), final_patch=wrong_fix)
    assert classify_outcome(traj, make_instance(), failing_report()) == "semi_resolved"


def test_failing_tests_with_partial_recall_is_unresolved():
    two_file_golden = GOLDEN_PATCH + make_patch("x\n", "y\n", "src/other.py")
    inst = make_instance(golden_patch=two_file_golden)
    traj = make_traj(clean_steps(), final_patch=GOLDEN_PATCH)
    assert classify_outcome(traj, inst, failing_report()) == "unresolved"


def test_empty_patch_wins_cascade():
    traj = make_traj(clean_steps(), final_patch="")
    assert classify_outcome(traj, make_instance(), passing_report()) == "empty_patch"


def test_missing_final_report_is_classification_error():
    traj = make_traj(clean_steps(), final_patch=GOLDEN_PATCH)
    with pytest.raises(ClassificationError):
        classify_outcome(traj, make_instance(), None)


def test_missing_test_in_report_counts_as_not_passing():
    report = TestReport("final", {"tests/test_calc.py::test_add": "pass"})  # test_mul absent
    traj = make_traj(clean_steps(), final_patch=GOLDEN_PATCH)
    assert classify_outcome(traj, make_instance(), report) != "resolved"


def test_cascade_yields_exactly_one_outcome_on_random_fixtures():
    rng = random.Random(4242)
    outcomes = set()
    for _ in range(300):
        patch_choice = rng.random()
        if patch_choice < 0.2:
            final_patch = ""
        elif patch_choice < 0.5:
            final_patch = GOLDEN_PATCH
        elif patch_choice < 0.7:
            final_patch = make_patch("q\n", "r\n", "src/other.py")
        else:
            final_patch = make_patch("q\n", "r\n", "tests/test_stuff.py")
        steps = clean_steps()
        if rng.random() < 0.3:
            steps.insert(1, bash_step(1, "git log --oneline", "history"))
        add_status = rng.choice(["pass", "fail"])
        mul_status = rng.choice(["pass", "fail"])
        report = TestReport("final", {"tests/test_calc.py::test_add": add_status,
                                      "tests/test_calc.py::test_mul": mul_status})
        outcome = classify_outcome(make_traj(steps, final_patch=final_patch),
                                   make_instance(), report)
        assert outcome in ("resolved", "semi_resolved", "unresolved", "empty_patch")
        outcomes.add(outcome)
        if outcome == "resolved":
            # A resolved label implies passing tests, no test-file edits,
            # and no history reading.
            assert add_status == mul_status == "pass"
            assert not detect_test_modification(parse_patch(final_patch), make_instance())
            assert all(
                "git log" not in s.action.arguments.get("command", "")
                for s in make_traj(steps).steps
                if isinstance(s.action, ToolCall) and s.action.tool == "execute_bash"
            )
    assert outcomes >= {"resolved", "unresolved", "empty_patch"}


# ---------------------------------------------------------------------------
# rollout_stats


def trajs_with_outcomes(outcomes, turns=10):
    return [
        make_traj([bash_step(0, "ls")] + [think_step(i) for i in range(1, turns)],
                  trajectory_id=f"t{i}", outcome=o)
        for i, o in enumerate(outcomes)
    ]


def test_valid_rate_without_recycling():
    trajs = trajs_with_outcomes(["resolved"] * 3 + ["unresolved"] * 7)
    report = rollout_stats(trajs)
    assert report["valid_rate"] == pytest.approx(0.30)
    assert report["counts"]["resolved"] == 3
    assert sum(report["counts"].values()) == 10


def test_valid_rate_with_recycling():
    trajs = trajs_with_outcomes(["resolved"] * 3 + ["semi_resolved"] + ["unresolved"] * 6)
    report = rollout_stats(trajs, recycle_semi_resolved=True)
    assert report["valid_rate"] == pytest.approx(0.40)


def test_avg_turns_single_trajectory():
    traj = make_traj([think_step(i) for i in range(62)], outcome="resolved")
    report = rollout_stats([traj])
    assert report["avg_turns"] == pytest.approx(62.0)


def test_empty_input_flags_undefined_rates():
    report = rollout_stats([])
    assert report["avg_turns"] is None
    assert report["valid_rate"] is None
    assert sum(report["counts"].values()) == 0


# ---------------------------------------------------------------------------
# curate


_ACTIONS = (
    ToolCall("execute_bash", {"command": "python -m pytest tests/"}),
    ToolCall("execute_bash", {"command": "git log --all --oneline"}),
    ToolCall("str_replace_editor", {"command": "view", "path": "src/calc.py", "view_range": "[9, 2]"}),
    ToolCall("str_replace_editor", {"command": "view", "path": "src/calc.py", "view_range": "top"}),
    ToolCall("str_replace_editor", {"command": "str_replace", "path": "src/calc.py"}),
    ToolCall("task_tracker", {"items": ["todo"]}),
    ToolCall("browser", {}),
    ToolCall("think", {"thought": "plan"}),
    "plain message",
)
_OBSERVATIONS = ("", "3 passed", "FAILED tests/test_calc.py::test_add", "Traceback (most recent call last):")
_FINAL_PATCHES = ("", GOLDEN_PATCH, make_patch("q\n", "r\n", "tests/test_calc.py"), "not a diff")


@st.composite
def valid_trajectories(draw):
    """Trajectories that pass validate_trajectory: tools outside the
    four-tool set, view_ranges to repair, an optional final finish, and
    runs over their turn budget marked unresolved or error."""
    steps = [
        Step(i, draw(st.sampled_from(_ACTIONS)), draw(st.sampled_from(_OBSERVATIONS)),
             draw(st.sampled_from(PHASES)), draw(st.booleans()))
        for i in range(draw(st.integers(0, 12)))
    ]
    if draw(st.booleans()):
        steps.append(finish_step(len(steps)))
    max_turns = draw(st.integers(1, 14))
    over = len(steps) > max_turns
    outcome = draw(st.sampled_from(("unresolved", "error") if over else OUTCOMES))
    traj = make_traj(steps, final_patch=draw(st.sampled_from(_FINAL_PATCHES)), outcome=outcome,
                     max_turns=max_turns)
    assert validate_trajectory(traj) == []
    return traj


@settings(derandomize=True, max_examples=250, deadline=None)
@given(traj=valid_trajectories(), passing=st.booleans())
def test_curate_returns_only_records_that_validate(traj, passing):
    # Later stages take curate's records without validating them again, so
    # every record it returns must pass validate_trajectory, with or without
    # the trajectory's instance and final report.
    inst = make_instance()
    tests = (*inst.fail_to_pass, *inst.pass_to_pass)
    report = TestReport("final", {t: "pass" if passing else "fail" for t in tests})
    registries = load_hack_patterns(None), load_error_patterns(None), load_phase_patterns(None)
    for instances in ({}, {inst.instance_id: inst}):
        for reports in ({}, {traj.trajectory_id: report}):
            curated = list(curate([traj], instances, reports, *registries, {}, recycle_semi_resolved=True))
            assert [validate_trajectory(t) for t in curated] == [[]]


# Bash commands that repeat within and across trajectories, an empty one, a
# missing one, and commands that are not strings (JSON allows any value).
_COMMANDS = ("python -m pytest tests/", "git log --all --oneline", "git show HEAD~1", "ls src",
             "python reproduce.py", "", None, ["git", "log"], 7)


def _bash(command):
    return ToolCall("execute_bash", {} if command is None else {"command": command})


@st.composite
def bash_heavy_corpora(draw):
    """Up to five trajectories over two instances (one with a golden patch
    that does not parse) whose steps draw from a few bash commands, each
    with a passing, failing or missing final report."""
    actions = st.one_of(st.sampled_from(_COMMANDS).map(_bash), st.sampled_from(_ACTIONS))
    trajs, reports = [], {}
    for n in range(draw(st.integers(1, 5))):
        steps = [Step(i, draw(actions), draw(st.sampled_from(_OBSERVATIONS)))
                 for i in range(draw(st.integers(0, 10)))]
        traj = make_traj(steps, trajectory_id=f"t{n}",
                         instance_id=draw(st.sampled_from(("inst-1", "inst-2"))),
                         final_patch=draw(st.sampled_from(_FINAL_PATCHES)),
                         max_turns=draw(st.integers(1, 12)))
        trajs.append(traj)
        verdict = draw(st.sampled_from(("pass", "fail", None)))
        if verdict is not None:
            reports[traj.trajectory_id] = TestReport("final", dict.fromkeys(
                (*make_instance().fail_to_pass, *make_instance().pass_to_pass), verdict))
    return trajs, reports


@settings(derandomize=True, max_examples=200, deadline=None)
@given(corpus=bash_heavy_corpora())
def test_curate_judges_as_step_phase_and_detect_git_hacking_do(corpus):
    # curate judges each distinct command once per call; what it records
    # must equal step_phase on every step and classify_outcome with
    # detect_git_hacking's findings on every curated trajectory.
    trajs, reports = corpus
    unparseable = make_instance(instance_id="inst-2", golden_patch="@@ x\n")
    instances = {"inst-1": make_instance(), "inst-2": unparseable}
    hacks, errors, phases = load_hack_patterns(None), load_error_patterns(None), load_phase_patterns(None)
    report = {}
    curated = list(curate(trajs, instances, reports, hacks, errors, phases, report, recycle_semi_resolved=True))
    invalidated = 0
    for traj in curated:
        assert [s.phase for s in traj.steps] == [step_phase(s.action, phases) for s in traj.steps]
        inst, final = instances[traj.instance_id], reports.get(traj.trajectory_id)
        classified = "unclassified" if final is None else classify_outcome(traj, inst, final)
        assert traj.outcome == ("unresolved" if traj.turn_count > traj.max_turns else classified)
        invalidated += (classified == "unresolved" and has_high_finding(detect_git_hacking(traj, hacks))
                        and set(final.results.values()) == {"pass"})
    assert report["hack_invalidated"] == invalidated


class CountingRegex:
    """A compiled pattern that records each text it searches."""

    def __init__(self, regex: re.Pattern, searched: list):
        self.regex, self.searched = regex, searched

    def search(self, text):
        self.searched.append((id(self), text))
        return self.regex.search(text)


def test_curate_judges_each_distinct_command_once(monkeypatch):
    # Counts, not timings: in one curate call every phase and hack regex
    # sees each distinct bash command once however many steps repeat it,
    # and no trajectory is rescanned for hacks.
    searched = []
    hacks = [replace(p, regex=CountingRegex(p.regex, searched)) for p in load_hack_patterns(None)]
    phases = [replace(r, regex=CountingRegex(r.regex, searched)) for r in load_phase_patterns(None)]

    def no_rescan(*args, **kwargs):
        raise AssertionError("curate rescanned a trajectory for hacks")

    monkeypatch.setattr(trajectory_curation, "detect_git_hacking", no_rescan)
    wrong_fix = make_patch(CALC_OLD, CALC_OLD.replace("a * b", "a * b * 1"), "src/calc.py")
    other = make_instance(instance_id="inst-2",
                          golden_patch=GOLDEN_PATCH + make_patch("x\n", "y\n", "src/o.py"))
    steps = [*clean_steps()[:3], bash_step(3, "git log --all", "deadbee fix add"), finish_step(4)]
    trajs, reports = [], {}
    for n in range(12):
        inst_id = ("inst-1", "inst-2")[n % 2]
        traj = make_traj(steps, trajectory_id=f"t{n}", instance_id=inst_id, final_patch=wrong_fix)
        trajs.append(traj)
        reports[traj.trajectory_id] = passing_report() if n % 3 == 0 else failing_report()
    report = {}
    list(curate(trajs, {"inst-1": make_instance(), "inst-2": other}, reports,
                hacks, load_error_patterns(None), phases, report, recycle_semi_resolved=True))
    assert report["hack_invalidated"] == 4 and report["counts"]["semi_resolved"] == 4
    assert searched and len(searched) == len(set(searched))
