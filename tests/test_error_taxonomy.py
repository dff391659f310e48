import random

import pytest

from lego_forge import error_taxonomy
from lego_forge.error_taxonomy import (
    FAILURE_LABELS,
    classify_failure,
    explain_failure,
    failure_distribution,
    reproduced_issue,
    viewed_files,
)
from lego_forge.patch_analysis import make_patch, parse_patch
from lego_forge.trajectory_curation import classify_outcome
from lego_forge.schema import TestReport

from conftest import bash_step, editor_step, make_instance, make_traj, think_step

ALPHA_OLD = "def f():\n    a = 1\n    b = 2\n    return a + b\n"
ALPHA_FIXED = ALPHA_OLD.replace("a = 1", "a = 9")
BETA_OLD = "def g():\n    return 1\n"
BETA_FIXED = BETA_OLD.replace("return 1", "return 3")

GOLDEN = make_patch(ALPHA_OLD, ALPHA_FIXED, "src/alpha.py") + make_patch(
    BETA_OLD, BETA_FIXED, "src/beta.py"
)

T_FAIL = "tests/test_app.py::test_alpha"


def instance():
    return make_instance(
        instance_id="tax-inst",
        golden_patch=GOLDEN,
        fail_to_pass=(T_FAIL,),
        pass_to_pass=("tests/test_app.py::test_beta",),
    )


def repro_step(index):
    return bash_step(index, "python -m pytest tests/test_app.py",
                     f"FAILED {T_FAIL} - AssertionError", phase="testing")


def passed_step(index):
    return bash_step(index, "python -m pytest tests/test_app.py", "2 passed", phase="testing")


PATCH_GOLDEN = GOLDEN
PATCH_ALPHA_OVERLAP = make_patch(ALPHA_OLD, ALPHA_FIXED, "src/alpha.py")
PATCH_ALPHA_NO_OVERLAP = make_patch(
    ALPHA_OLD, ALPHA_OLD.replace("return a + b", "return b + a"), "src/alpha.py"
)
PATCH_OFF_TARGET = make_patch("x = 1\n", "x = 2\n", "src/other.py")
PATCH_BETA_ONLY = make_patch(BETA_OLD, BETA_FIXED, "src/beta.py")


def pad(steps, turns):
    return steps + [think_step(i) for i in range(len(steps), turns)]


# Ten hand-labeled fixtures: (description, steps, final_patch, turns, label).
HAND_LABELED = [
    ("no reproduction attempt",
     [bash_step(0, "ls src/", "alpha.py beta.py", phase="exploration"),
      editor_step(1, "view", "src/alpha.py", "def f():", phase="exploration")],
     PATCH_ALPHA_OVERLAP, 10, "failed_to_reproduce"),
    ("attempted but never saw a failure",
     [passed_step(0),
      editor_step(1, "view", "src/alpha.py", "def f():", phase="exploration")],
     PATCH_ALPHA_OVERLAP, 10, "failed_to_reproduce"),
    ("reproduced but viewed only one golden file",
     [repro_step(0),
      editor_step(1, "view", "src/alpha.py", "def f():", phase="exploration")],
     "", 10, "read_localization_error"),
    ("viewed everything, produced no patch",
     [repro_step(0),
      editor_step(1, "view", "src/alpha.py", "def f():", phase="exploration"),
      bash_step(2, "cat src/beta.py", "def g():", phase="exploration")],
     "", 10, "write_localization_error"),
    ("viewed everything, edited an unrelated file",
     [repro_step(0),
      editor_step(1, "view", "src/alpha.py", "def f():", phase="exploration"),
      editor_step(2, "view", "src/beta.py", "def g():", phase="exploration")],
     PATCH_OFF_TARGET, 10, "write_localization_error"),
    ("viewed everything, edited golden file on disjoint lines",
     [repro_step(0),
      editor_step(1, "view", "src/alpha.py", "def f():", phase="exploration"),
      editor_step(2, "view", "src/beta.py", "def g():", phase="exploration")],
     PATCH_ALPHA_NO_OVERLAP, 10, "write_localization_error"),
    ("localized correctly but hit the turn budget",
     [repro_step(0),
      editor_step(1, "view", "src/alpha.py", "def f():", phase="exploration"),
      editor_step(2, "view", "src/beta.py", "def g():", phase="exploration"),
      editor_step(3, "str_replace", "src/alpha.py", "edited", phase="editing")],
     PATCH_ALPHA_OVERLAP, 100, "ran_out_of_max_turns"),
    ("localized correctly, wrong fix, under budget",
     [repro_step(0),
      editor_step(1, "view", "src/alpha.py", "def f():", phase="exploration"),
      editor_step(2, "view", "src/beta.py", "def g():", phase="exploration"),
      editor_step(3, "str_replace", "src/alpha.py", "edited", phase="editing")],
     PATCH_ALPHA_OVERLAP, 40, "incorrect_implementation"),
    ("repro script; edits cover both golden files",
     [bash_step(0, "python reproduce.py",
                "Traceback (most recent call last):\nAssertionError", phase="reproduction")],
     PATCH_GOLDEN, 40, "incorrect_implementation"),
    ("edits one file blind, never opened the other",
     [repro_step(0)],
     PATCH_BETA_ONLY, 10, "read_localization_error"),
]


@pytest.mark.parametrize("description,steps,patch,turns,expected",
                         HAND_LABELED, ids=[case[0] for case in HAND_LABELED])
def test_hand_labeled_fixture_set(description, steps, patch, turns, expected):
    traj = make_traj(pad(list(steps), turns), trajectory_id=description,
                     instance_id="tax-inst", final_patch=patch,
                     outcome="unresolved", max_turns=100)
    assert classify_failure(traj, instance()) == expected


def test_resolved_trajectory_rejected():
    traj = make_traj([repro_step(0)], outcome="resolved")
    with pytest.raises(ValueError):
        classify_failure(traj, instance())


def test_evidence_accompanies_label():
    traj = make_traj(pad([repro_step(0)], 10), final_patch="", outcome="unresolved")
    evidence = explain_failure(traj, instance())
    assert evidence["label"] == "read_localization_error"
    assert set(evidence["unviewed_files"]) == {"src/alpha.py", "src/beta.py"}


def test_explain_failure_parses_the_final_patch_once(monkeypatch):
    real_parse = error_taxonomy.patch_analysis.parse_patch
    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return real_parse(text)

    monkeypatch.setattr(error_taxonomy.patch_analysis, "parse_patch", counting_parse)
    traj = make_traj(pad([repro_step(0)], 10), final_patch=PATCH_GOLDEN, outcome="unresolved")
    assert explain_failure(traj, instance())["label"] == "incorrect_implementation"
    # Once as the golden patch, once as the final patch.
    assert parsed == [GOLDEN, GOLDEN]


def test_viewed_files_includes_editor_bash_and_patch():
    traj = make_traj([
        editor_step(0, "view", "src/alpha.py"),
        bash_step(1, "cat src/beta.py"),
        bash_step(2, "grep -n 'def' src/gamma.py"),
    ], final_patch=PATCH_OFF_TARGET)
    seen = viewed_files(traj, parse_patch(traj.final_patch))
    assert {"src/alpha.py", "src/beta.py", "src/gamma.py", "src/other.py"} <= seen


@pytest.mark.parametrize("command, expected", [
    ("cat src/a.py | grep -n def tests/t.py", {"src/a.py", "tests/t.py"}),
    ("sed -n '1,20p' \"my dir/b.py\" && ls c.py", {"my dir/b.py"}),
    ("cat 'src/open.py", {"'src/open.py"}),  # unbalanced quote: split on whitespace
    ("python -m pytest x.py", set()),
])
def test_cached_bash_read_paths_equal_the_uncached_tokenizer(command, expected):
    error_taxonomy._read_paths.cache_clear()
    uncached = error_taxonomy._read_paths.__wrapped__(command)
    first = error_taxonomy._read_paths(command)
    assert first == uncached == expected
    # The cached value is a frozenset: no caller can change it in place.
    assert isinstance(first, frozenset)
    assert error_taxonomy._read_paths(command) is first
    assert error_taxonomy._read_paths.cache_info().hits == 1


def test_reproduction_detection_requires_failing_signature():
    inst = instance()
    assert reproduced_issue(make_traj([repro_step(0)]), inst)
    assert not reproduced_issue(make_traj([passed_step(0)]), inst)
    # A failure shown outside reproduction/testing phases does not count.
    stray = bash_step(0, "cat log.txt", "AssertionError: boom", phase="exploration")
    assert not reproduced_issue(make_traj([stray]), inst)


def test_randomized_rule_combinations_always_yield_one_label():
    rng = random.Random(90210)
    inst = instance()
    patches = ["", PATCH_OFF_TARGET, PATCH_ALPHA_NO_OVERLAP, PATCH_ALPHA_OVERLAP,
               PATCH_BETA_ONLY, PATCH_GOLDEN]
    label_counts = {label: 0 for label in FAILURE_LABELS}
    for case in range(10000):
        steps = []
        reproduced = rng.random() < 0.7
        steps.append(repro_step(0) if reproduced else passed_step(0))
        view_roll = rng.random()
        if view_roll < 0.4:
            steps.append(editor_step(1, "view", "src/alpha.py", phase="exploration"))
            steps.append(editor_step(2, "view", "src/beta.py", phase="exploration"))
        elif view_roll < 0.7:
            steps.append(editor_step(1, "view", "src/alpha.py", phase="exploration"))
        patch = rng.choice(patches)
        turns = rng.choice([5, 40, 100])
        traj = make_traj(pad(steps, turns), trajectory_id=f"case-{case}",
                         instance_id="tax-inst", final_patch=patch,
                         outcome="unresolved", max_turns=100)
        label = classify_failure(traj, inst)
        assert label in FAILURE_LABELS
        label_counts[label] += 1
        if not reproduced:
            assert label == "failed_to_reproduce"
    assert all(count > 0 for count in label_counts.values()), label_counts


def test_semi_resolved_is_never_read_localization_error():
    # Touching every golden file is itself full read coverage.
    rng = random.Random(7)
    inst = instance()
    report = TestReport("final", {T_FAIL: "fail", "tests/test_app.py::test_beta": "pass"})
    for case in range(50):
        steps = [repro_step(0)] if rng.random() < 0.5 else [passed_step(0)]
        turns = rng.choice([5, 100])
        traj = make_traj(pad(steps, turns), trajectory_id=f"semi-{case}",
                         instance_id="tax-inst", final_patch=PATCH_GOLDEN,
                         outcome="unclassified", max_turns=100)
        assert classify_outcome(traj, inst, report) == "semi_resolved"
        label = classify_failure(traj, inst)
        assert label != "read_localization_error"


# ---------------------------------------------------------------------------
# Distributions


def test_uniform_four_labels():
    labels = ["failed_to_reproduce", "read_localization_error",
              "write_localization_error", "incorrect_implementation"]
    dist = failure_distribution(labels)
    assert all(v == pytest.approx(0.25) for v in dist.values())
    assert len(dist) == 4


def test_single_label_distribution():
    dist = failure_distribution(["incorrect_implementation"] * 5)
    assert dist == {"incorrect_implementation": 1.0}


def test_fractions_sum_to_one():
    rng = random.Random(13)
    labels = [rng.choice(FAILURE_LABELS) for _ in range(997)]
    dist = failure_distribution(labels)
    assert abs(sum(dist.values()) - 1.0) <= 1e-12


def test_dominant_category_mix_reproduced_exactly():
    # A corpus built with 38.97% reproduction failures reports that
    # fraction exactly.
    labels = (["failed_to_reproduce"] * 3897) + (["incorrect_implementation"] * 6103)
    dist = failure_distribution(labels)
    assert dist["failed_to_reproduce"] == pytest.approx(0.3897, abs=1e-12)
    assert abs(sum(dist.values()) - 1.0) <= 1e-12


def test_empty_distribution_rejected():
    with pytest.raises(ValueError):
        failure_distribution([])


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        failure_distribution(["mystery_failure"])
