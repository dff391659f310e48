import json
import random
from dataclasses import asdict, replace

import pytest

from lego_forge.sft_masking import (
    LOSS_EXEMPT_PHASES,
    EmptySampleError,
    assign_phases,
    build_loss_mask,
    detect_step_errors,
    mask_sample,
    render_trajectory,
    serialize_sample,
    whitespace_token_count,
)
from lego_forge.schema import Trajectory

from conftest import bash_step, editor_step, finish_step, make_traj, random_trajectory, think_step


# ---------------------------------------------------------------------------
# detect_step_errors


def test_traceback_observation_sets_flag():
    traj = make_traj([
        bash_step(0, "python repro.py",
                  'Traceback (most recent call last):\n  File "x.py", line 1\nValueError: nope'),
    ])
    flagged = detect_step_errors(traj)
    assert flagged.steps[0].error_flag is True


def test_empty_and_benign_observations_unflagged():
    traj = make_traj([
        bash_step(0, "ls", ""),
        bash_step(1, "python -m pytest", "All 12 tests passed"),
    ])
    flagged = detect_step_errors(traj)
    assert [s.error_flag for s in flagged.steps] == [False, False]


def test_parameter_error_and_command_not_found_flagged():
    traj = make_traj([
        editor_step(0, "view", "src/m.py",
                    "ERROR: Invalid `view_range` parameter: expected [start, end]"),
        bash_step(1, "frobnicate", "bash: frobnicate: command not found"),
    ])
    flagged = detect_step_errors(traj)
    assert [s.error_flag for s in flagged.steps] == [True, True]


def test_detection_deterministic():
    rng = random.Random(3)
    traj = random_trajectory(rng, "t-det")
    assert detect_step_errors(traj) == detect_step_errors(traj)


# ---------------------------------------------------------------------------
# assign_phases


def test_phase_assignment_rules():
    traj = make_traj([
        bash_step(0, "python reproduce.py"),
        bash_step(1, "python -m pytest tests/"),
        bash_step(2, "grep -rn 'def parse' src/"),
        editor_step(3, "view", "src/m.py"),
        editor_step(4, "str_replace", "src/m.py"),
        think_step(5),
        finish_step(6),
    ])
    phased = assign_phases(traj)
    assert [s.phase for s in phased.steps] == [
        "reproduction", "testing", "exploration", "exploration", "editing", "other", "other",
    ]


# ---------------------------------------------------------------------------
# build_loss_mask


def test_no_errors_means_every_assistant_segment_in_loss():
    traj = make_traj([
        bash_step(0, "ls", "calc.py"),
        editor_step(1, "str_replace", "calc.py", "edited"),
        finish_step(2),
    ])
    sample = build_loss_mask(traj)
    assistant = [s for s in sample.rendered if s.source == "assistant"]
    assert len(assistant) == 3
    assert all(s.in_loss for s in assistant)


def test_error_step_masked_neighbors_kept():
    # Step 1 produced a tool-parameter error during editing; only its
    # assistant segment leaves the loss.
    steps = [
        bash_step(0, "ls", "calc.py", phase="exploration"),
        replace(editor_step(1, "view", "calc.py",
                            "ERROR: Invalid `view_range` parameter", phase="editing"),
                error_flag=True),
        bash_step(2, "python -m pytest", "1 passed", phase="testing"),
    ]
    sample = build_loss_mask(make_traj(steps))
    by_step = {s.step_index: s.in_loss for s in sample.rendered if s.source == "assistant"}
    assert by_step == {0: True, 1: False, 2: True}


def test_reproduction_phase_error_stays_in_loss():
    steps = [
        replace(bash_step(0, "python reproduce.py",
                          "Traceback (most recent call last):\nAssertionError",
                          phase="reproduction"), error_flag=True),
        replace(bash_step(1, "python -m pytest tests/",
                          "FAILED tests/test_x.py - Traceback (most recent call last):",
                          phase="testing"), error_flag=True),
        bash_step(2, "ls", "ok", phase="exploration"),
    ]
    sample = build_loss_mask(make_traj(steps))
    by_step = {s.step_index: s.in_loss for s in sample.rendered if s.source == "assistant"}
    assert by_step == {0: True, 1: True, 2: True}


def test_mask_only_applies_to_assistant_segments():
    traj = make_traj([bash_step(0, "ls", "calc.py tests")])
    sample = build_loss_mask(traj, problem_statement="fix the bug")
    for segment in sample.rendered:
        if segment.in_loss:
            assert segment.source == "assistant"
    observations = [s for s in sample.rendered if s.source == "observation"]
    users = [s for s in sample.rendered if s.source == "user"]
    assert observations and users
    assert not any(s.in_loss for s in observations + users)


def test_concatenated_text_equals_unmasked_rendering():
    rng = random.Random(8)
    for i in range(20):
        traj = detect_step_errors(random_trajectory(rng, f"t{i}"))
        sample = build_loss_mask(traj, problem_statement="issue text")
        assert "".join(s.text for s in sample.rendered) == render_trajectory(
            traj, problem_statement="issue text"
        )


def test_empty_trajectory_raises():
    traj = Trajectory(trajectory_id="t", instance_id="i", steps=(), final_patch="",
                      turn_count=0, outcome="resolved")
    with pytest.raises(EmptySampleError):
        build_loss_mask(traj)


def test_masked_fraction_equals_nonexempt_error_fraction():
    rng = random.Random(1234)
    total_assistant = 0
    total_masked = 0
    total_nonexempt_errors = 0
    for i in range(50):
        traj = detect_step_errors(random_trajectory(rng, f"t{i}"))
        sample = build_loss_mask(traj)
        assistant = [s for s in sample.rendered if s.source == "assistant"]
        total_assistant += len(assistant)
        total_masked += sum(1 for s in assistant if not s.in_loss)
        total_nonexempt_errors += sum(
            1 for s in traj.steps if s.error_flag and s.phase not in LOSS_EXEMPT_PHASES
        )
    assert total_assistant > 0
    assert total_masked == total_nonexempt_errors


# ---------------------------------------------------------------------------
# serialize_sample


def small_traj():
    return make_traj([
        bash_step(0, "ls", "calc.py"),
        finish_step(1),
    ])


def small_sample():
    return build_loss_mask(small_traj())


def test_small_sample_emitted_under_default_limit():
    record = serialize_sample(small_sample(), 128000)
    assert isinstance(record, dict)
    assert record["token_estimate"] <= 128000


def test_oversize_sample_overflows():
    # Past the limit nothing is emitted; mask_sample returns the drop with
    # the estimate and the limit, in this key order.
    sample = small_sample()
    assert sample.token_estimate > 2
    assert serialize_sample(sample, 2) is None
    emitted, drop = mask_sample(small_traj(), 2)
    assert emitted is None
    assert [list(drop.items())] == [[
        ("trajectory_id", sample.trajectory_id),
        ("reason", "overflow"),
        ("token_estimate", sample.token_estimate),
        ("context_limit", 2),
    ]]


def test_record_round_trip_preserves_segments_exactly():
    sample = build_loss_mask(detect_step_errors(make_traj([
        bash_step(0, "python repro.py", "Traceback (most recent call last):", phase="editing"),
        bash_step(1, "ls", "fine"),
    ])))
    record = json.loads(json.dumps(serialize_sample(sample, 128000)))
    assert record["trajectory_id"] == sample.trajectory_id
    assert record["token_estimate"] == sample.token_estimate
    assert record["rendered"] == [asdict(s) for s in sample.rendered]
    assert [seg["in_loss"] for seg in record["rendered"]] == [s.in_loss for s in sample.rendered]
    assert any(seg["in_loss"] for seg in record["rendered"])
    assert not all(seg["in_loss"] for seg in record["rendered"])


def test_serialized_estimate_is_the_mask_count():
    sample = small_sample()
    full_text = "".join(s.text for s in sample.rendered)
    assert serialize_sample(sample, 1000)["token_estimate"] == whitespace_token_count(full_text)


def test_serialization_deterministic():
    sample = small_sample()
    first = json.dumps(serialize_sample(sample, 1000), sort_keys=True)
    second = json.dumps(serialize_sample(sample, 1000), sort_keys=True)
    assert first == second


def test_whitespace_tokenizer_monotone_under_concatenation():
    assert whitespace_token_count("") == 0
    assert whitespace_token_count("a b  c\nd") == 4
    rng = random.Random(5)
    for _ in range(50):
        a = " ".join(f"w{rng.randrange(10)}" for _ in range(rng.randrange(0, 20)))
        b = " ".join(f"w{rng.randrange(10)}" for _ in range(rng.randrange(0, 20)))
        assert whitespace_token_count(a + " " + b) >= whitespace_token_count(a)
