import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lego_forge import error_taxonomy
from lego_forge.registries import (
    ErrorPattern,
    RegistryError,
    load_error_patterns,
    load_hack_patterns,
    load_phase_patterns,
    required_literals,
)
from lego_forge.sft_masking import has_execution_error


def test_builtin_registries_load():
    hacks = load_hack_patterns()
    assert all(p.severity in ("high", "medium") for p in hacks)
    assert len(hacks) >= 8
    errors = load_error_patterns()
    assert any(p.pattern_id == "TRACEBACK" for p in errors)
    phases = load_phase_patterns()
    assert {r.phase for r in phases} >= {"reproduction", "testing", "exploration"}


def test_registry_order_is_preserved(tmp_path):
    path = tmp_path / "hacks.txt"
    path.write_text("B high bbb\nA high aaa\n", encoding="utf-8")
    assert [p.pattern_id for p in load_hack_patterns(path)] == ["B", "A"]


def test_undecodable_registry_fails_at_load_with_its_path(tmp_path):
    path = tmp_path / "errors.txt"
    path.write_bytes(b"BROKEN \xff\n")
    for load in (load_hack_patterns, load_error_patterns, load_phase_patterns):
        with pytest.raises(RegistryError, match=re.escape(str(path))):
            load(path)


def test_invalid_regex_fails_at_load(tmp_path):
    path = tmp_path / "errors.txt"
    path.write_text("BROKEN [unclosed\n", encoding="utf-8")
    with pytest.raises(RegistryError):
        load_error_patterns(path)


def test_unknown_severity_rejected(tmp_path):
    path = tmp_path / "hacks.txt"
    path.write_text("X critical \\bgit\\b\n", encoding="utf-8")
    with pytest.raises(RegistryError):
        load_hack_patterns(path)


def test_unknown_phase_rejected(tmp_path):
    path = tmp_path / "phases.txt"
    path.write_text("debugging \\bpdb\\b\n", encoding="utf-8")
    with pytest.raises(RegistryError):
        load_phase_patterns(path)


LOADERS = (
    (load_hack_patterns, "<id> <severity> <regex>"),
    (load_error_patterns, "<id> <regex>"),
    (load_phase_patterns, "<phase> <regex>"),
)


def test_malformed_line_rejected(tmp_path):
    # One reader serves the three registries; each error names the line
    # and the registry's own line format.
    path = tmp_path / "hacks.txt"
    path.write_text("ONLY_TWO high\n", encoding="utf-8")
    with pytest.raises(RegistryError):
        load_hack_patterns(path)
    path.write_text("# header\nONLY\n", encoding="utf-8")
    for load, usage in LOADERS:
        with pytest.raises(RegistryError) as err:
            load(path)
        assert str(err.value) == f"{path}:2: expected '{usage}'"


def test_empty_registry_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing but comments\n\n", encoding="utf-8")
    for load, _ in LOADERS:
        with pytest.raises(RegistryError) as err:
            load(path)
        assert str(err.value) == f"{path}: registry is empty"


def test_a_regex_too_deep_to_parse_again_deeper_in_the_stack_runs_unguarded():
    # The deepest nesting that compiles here is walked for its guards deeper
    # in the stack, as curate does; there it cannot be parsed again, so it
    # runs its regex unguarded instead of raising RecursionError.
    def compiled(depth):
        try:
            return re.compile("(" * depth + "boom" + ")" * depth)
        except RecursionError:
            return None

    low, high = 1, 5_000
    while low < high:
        mid = (low + high + 1) // 2
        low, high = (mid, high) if compiled(mid) is not None else (low, mid - 1)
    pattern = ErrorPattern("DEEP", compiled(low))

    def deeper(frames):
        return (pattern.guards, pattern.search("a boom")) if frames == 0 else deeper(frames - 1)

    guards, match = deeper(50)
    assert guards is None and match is not None


def test_comments_and_blanks_ignored(tmp_path):
    path = tmp_path / "errors.txt"
    for newline in ("\n", "\r\n"):
        path.write_bytes(newline.join(["# header", "", "OOPS oops", "  # indented comment", ""]).encode())
        patterns = load_error_patterns(path)
        assert [(p.pattern_id, p.regex.pattern) for p in patterns] == [("OOPS", "oops")]


# ---------------------------------------------------------------------------
# Literal guards


def guards_of(pattern: str, flags: int = 0):
    return required_literals(re.compile(pattern, flags))


@pytest.mark.parametrize("pattern", [r"(?i)foo", r"a(?i:b)c", r"foo|", r"[ab]+"])
def test_no_guard_when_a_match_need_not_contain_a_literal(pattern):
    assert guards_of(pattern) is None


def test_global_ignorecase_flag_disables_the_guard():
    assert guards_of("foo", re.IGNORECASE) is None
    assert guards_of("foo") == ("foo",)


def test_zero_width_assertions_do_not_break_a_literal_run():
    assert guards_of(r"^ERROR:", re.MULTILINE) == ("ERROR:",)
    assert guards_of(r"\bfoo\b bar$") == ("foo bar",)


def test_guard_survives_the_parser_factoring_out_a_common_prefix():
    # sre parses this as `\bpy(?:test\b|\.test\b)`: the branch keeps only the
    # suffixes, and ".test" contains "test".
    guards = guards_of(r"\bpytest\b|\bpy\.test\b")
    assert guards == ("test",)
    pattern = ErrorPattern("PYTEST", re.compile(r"\bpytest\b|\bpy\.test\b"))
    assert pattern.search("run pytest -x") and pattern.search("py.test tests/")
    assert not pattern.search("python -m unittest")


def test_optional_prefix_is_skipped_for_the_following_literal():
    assert guards_of(r"x{0,3}foo") == ("foo",)


def test_branch_yields_one_literal_per_alternative():
    assert guards_of(r"[Rr]eturned non-zero|[Ee]xit code [1-9]") == ("eturned non-zero", "xit code ")


SHIPPED = [*load_error_patterns(), error_taxonomy._FAILURE_SIGNATURE]


def test_every_shipped_error_pattern_is_guarded():
    assert all(p.guards for p in SHIPPED)


@pytest.mark.parametrize("pattern", SHIPPED, ids=lambda p: p.pattern_id)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_guarded_search_agrees_with_the_regex(pattern, data):
    noise = st.text(alphabet=st.sampled_from("aeErRoO:_ \n`'\"(-09"), max_size=6)
    piece = st.one_of(
        st.sampled_from(pattern.guards),
        st.from_regex(pattern.regex),
        noise,
    )
    text = "".join(data.draw(st.lists(piece, max_size=6)))
    assert bool(pattern.search(text)) == bool(pattern.regex.search(text))


UNGUARDED = ErrorPattern("ANY_CASE_OOPS", re.compile(r"oops: \w+", re.IGNORECASE | re.MULTILINE))
WITH_UNGUARDED = [*load_error_patterns(), UNGUARDED]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_has_execution_error_agrees_with_any_regex_match(data):
    # The guard check short-cuts the regex; the answer over a pattern list
    # must still be whether any regex matches.
    assert UNGUARDED.guards is None
    patterns = data.draw(st.lists(st.sampled_from(WITH_UNGUARDED), min_size=1, max_size=len(WITH_UNGUARDED)))
    literals = sorted({lit for p in WITH_UNGUARDED if p.guards for lit in p.guards} | {"OOPS: x", "oops"})
    piece = st.one_of(
        st.sampled_from(literals),
        st.sampled_from(WITH_UNGUARDED).flatmap(lambda p: st.from_regex(p.regex)),
        st.text(max_size=8),
    )
    text = "".join(data.draw(st.lists(piece, max_size=8)))
    assert has_execution_error(text, patterns) == any(p.regex.search(text) for p in patterns)
