import ast
import random

import pytest

from lego_forge.errors import ForgeError
from lego_forge.patch_analysis import PatchParseError, apply_patch, parse_patch, patch_stats, render_patch
from lego_forge.schema import TestReport, validate_instance
from lego_forge.task_builder import (
    SWAP_TABLE,
    InvisibleBugError,
    LocatorError,
    MutationError,
    MutationSpec,
    MutatorKindError,
    NodeLocator,
    PythonAstProvider,
    PythonSyntaxTree,
    TemplateStatementProvider,
    build_real_instance,
    build_synthetic_instance,
    derive_test_labels,
    inject_bug,
    shared_image_name,
)

from conftest import (
    PARSER_REFUSALS,
    T_ADD,
    T_CLAMP,
    T_TOTAL,
    TOY_CALC,
    assert_refuses_bad_fields,
    toy_locator,
    toy_snapshot,
)

PROVIDER = PythonAstProvider()


# ---------------------------------------------------------------------------
# derive_test_labels


def report_pair(pre_status, post_status):
    pre = TestReport("buggy", {"t": pre_status, "anchor": "pass"})
    post = TestReport("restored", {"t": post_status, "anchor": "pass"})
    return pre, post


# Hand-enumerated truth table over (pre, post) statuses for a single test.
TRUTH_TABLE = {
    ("pass", "pass"): "p2p",
    ("pass", "fail"): "neither",
    ("pass", "error"): "neither",
    ("fail", "pass"): "f2p",
    ("fail", "fail"): "neither",
    ("fail", "error"): "neither",
    ("error", "pass"): "f2p",
    ("error", "fail"): "neither",
    ("error", "error"): "neither",
}


@pytest.mark.parametrize("pre_status,post_status", sorted(TRUTH_TABLE))
def test_label_truth_table(pre_status, post_status):
    pre, post = report_pair(pre_status, post_status)
    f2p, p2p = derive_test_labels(pre, post)
    expected = TRUTH_TABLE[(pre_status, post_status)]
    assert ("t" in f2p) == (expected == "f2p")
    assert ("t" in p2p) == (expected == "p2p")


def test_all_passing_suite_has_empty_f2p():
    pre = TestReport("buggy", {"a": "pass", "b": "pass"})
    post = TestReport("restored", {"a": "pass", "b": "pass"})
    f2p, p2p = derive_test_labels(pre, post)
    assert f2p == []
    assert p2p == ["a", "b"]


def test_error_to_pass_is_fail_to_pass():
    pre = TestReport("buggy", {"t": "error"})
    post = TestReport("restored", {"t": "pass"})
    f2p, _ = derive_test_labels(pre, post)
    assert f2p == ["t"]


def test_tests_absent_from_one_report_are_excluded():
    pre = TestReport("buggy", {"a": "fail", "only_pre": "fail"})
    post = TestReport("restored", {"a": "pass", "only_post": "pass"})
    f2p, p2p = derive_test_labels(pre, post)
    assert f2p == ["a"]
    assert "only_pre" not in f2p + p2p
    assert "only_post" not in f2p + p2p


def test_labels_disjoint_and_sorted_on_random_reports():
    rng = random.Random(99)
    statuses = ("pass", "fail", "error")
    for _ in range(300):
        tests = [f"t{i}" for i in range(rng.randrange(1, 12))]
        pre = TestReport("buggy", {t: rng.choice(statuses) for t in tests})
        post = TestReport("restored", {t: rng.choice(statuses) for t in tests})
        f2p, p2p = derive_test_labels(pre, post)
        assert not set(f2p) & set(p2p)
        assert f2p == sorted(f2p)
        assert p2p == sorted(p2p)


def test_wrong_code_states_rejected():
    with pytest.raises(ValueError):
        derive_test_labels(TestReport("final", {}), TestReport("restored", {}))
    with pytest.raises(ValueError):
        derive_test_labels(TestReport("buggy", {}), TestReport("final", {}))


# ---------------------------------------------------------------------------
# Mutators


def test_render_parse_round_trip_lossless():
    tree = PROVIDER.parse("calc.py", TOY_CALC)
    assert tree.source == TOY_CALC


def test_operator_swap_plus_to_minus():
    tree = PROVIDER.parse("calc.py", TOY_CALC)
    mutated, patch = inject_bug(tree, MutationSpec("operator_swap", target=toy_locator("+", 2)))
    assert "return a - b" in mutated.source.splitlines()[1]
    stats_lines = [line for line in render_patch(patch).splitlines() if line.startswith(("+", "-"))]
    assert any("a + b" in line for line in stats_lines if line.startswith("-"))
    assert any("a - b" in line for line in stats_lines if line.startswith("+"))


SWAP_CASES = [
    ("x = a + b\n", "+", "x = a - b\n"),
    ("x = a - b\n", "-", "x = a + b\n"),
    ("x = a * b\n", "*", "x = a / b\n"),
    ("x = a / b\n", "/", "x = a * b\n"),
    ("x = a < b\n", "<", "x = a >= b\n"),
    ("x = a > b\n", ">", "x = a <= b\n"),
    ("x = a >= b\n", ">=", "x = a < b\n"),
    ("x = a <= b\n", "<=", "x = a > b\n"),
    ("x = a == b\n", "==", "x = a != b\n"),
    ("x = a != b\n", "!=", "x = a == b\n"),
    ("x = a and b\n", "and", "x = a or b\n"),
    ("x = a or b\n", "or", "x = a and b\n"),
]


@pytest.mark.parametrize("source,symbol,expected", SWAP_CASES)
def test_swap_table(source, symbol, expected):
    tree = PROVIDER.parse("m.py", source)
    locators = [l for l in PROVIDER.enumerate(tree, "operator") if l.detail == symbol]
    assert len(locators) == 1
    mutated, _ = inject_bug(tree, MutationSpec("operator_swap", target=locators[0]))
    assert mutated.source == expected


def test_swap_skips_operator_lookalikes_in_comments():
    source = "x = (a  #+ tricky comment\n     + b)\n"
    tree = PROVIDER.parse("m.py", source)
    op = PROVIDER.enumerate(tree, "operator")[0]
    mutated, _ = inject_bug(tree, MutationSpec("operator_swap", target=op))
    assert mutated.source == "x = (a  #+ tricky comment\n     - b)\n"


def test_conditional_removal_keeps_else_branch():
    source = (
        "def pick(c):\n"
        "    if c:\n"
        "        r = 1\n"
        "    else:\n"
        "        r = 2\n"
        "    return r\n"
    )
    tree = PROVIDER.parse("m.py", source)
    cond = PROVIDER.enumerate(tree, "conditional")[0]
    mutated, _ = inject_bug(tree, MutationSpec("conditional_removal", target=cond))
    assert mutated.source == "def pick(c):\n    r = 2\n    return r\n"


def test_conditional_removal_without_else_deletes_statement():
    tree = PROVIDER.parse("calc.py", TOY_CALC)
    cond = toy_locator("conditional", 10)  # "if x < lo:" inside clamp
    mutated, _ = inject_bug(tree, MutationSpec("conditional_removal", target=cond))
    assert "if x < lo:" not in mutated.source
    assert "return lo" not in mutated.source
    assert "if x > hi:" in mutated.source


def test_conditional_removal_sole_statement_becomes_pass():
    source = "def guard(flag):\n    if flag:\n        print(flag)\n"
    tree = PROVIDER.parse("m.py", source)
    cond = PROVIDER.enumerate(tree, "conditional")[0]
    mutated, _ = inject_bug(tree, MutationSpec("conditional_removal", target=cond))
    assert mutated.source == "def guard(flag):\n    pass\n"


def test_loop_removal_keeps_following_code():
    tree = PROVIDER.parse("calc.py", TOY_CALC)
    loop = toy_locator("loop", 19)
    mutated, _ = inject_bug(tree, MutationSpec("loop_removal", target=loop))
    assert "for v in values:" not in mutated.source
    assert "return acc" in mutated.source


def test_locator_error_leaves_tree_untouched():
    tree = PROVIDER.parse("calc.py", TOY_CALC)
    ghost = NodeLocator("calc.py", 500, 0, 500, 5)
    with pytest.raises(LocatorError):
        inject_bug(tree, MutationSpec("operator_swap", target=ghost))
    assert tree.source == TOY_CALC


def test_kind_mismatch_is_distinct_error():
    tree = PROVIDER.parse("calc.py", TOY_CALC)
    loop = toy_locator("loop", 19)
    with pytest.raises(MutatorKindError):
        inject_bug(tree, MutationSpec("operator_swap", target=loop))


def test_mutation_determinism_across_runs():
    tree = PROVIDER.parse("calc.py", TOY_CALC)
    for spec in (
        MutationSpec("operator_swap", seed=3),
        MutationSpec("conditional_removal", seed=5),
        MutationSpec("loop_removal", seed=11),
    ):
        first_tree, first_patch = inject_bug(tree, spec)
        second_tree, second_patch = inject_bug(tree, spec)
        assert first_tree.source == second_tree.source
        assert render_patch(first_patch) == render_patch(second_patch)


def test_wildcard_seed_selects_among_targets():
    tree = PROVIDER.parse("calc.py", TOY_CALC)
    sources = {inject_bug(tree, MutationSpec("operator_swap", seed=s))[0].source for s in range(10)}
    assert len(sources) > 1  # different seeds can pick different operators


def test_injection_patch_applies_and_inverts():
    from lego_forge.patch_analysis import invert_patch

    tree = PROVIDER.parse("calc.py", TOY_CALC)
    mutated, patch = inject_bug(tree, MutationSpec("operator_swap", target=toy_locator("+", 2)))
    buggy = apply_patch(patch, {"calc.py": TOY_CALC})
    assert buggy["calc.py"] == mutated.source
    restored = apply_patch(invert_patch(patch), buggy)
    assert restored["calc.py"] == TOY_CALC



# Decorators holding operators, an elif chain, an inline else, operator
# look-alikes in comments and strings, parenthesized operands and
# expressions over several lines.
EQUIVALENCE_MODULE = """\
import functools


@functools.lru_cache(maxsize=2 * 64 + 1)
@register(priority=(1 - 2) < 0)
def scaled(x, factor=1 - 0.5):
    # a + b < c and d or e: look-alikes in a comment
    label = "x + y == z or w"
    total = (x + 1) * (factor - 2)
    if x < 0:
        return -x
    elif x == 0:
        return 0
    elif x > 100 and factor != 1:
        return 100
    else:
        pass
    if total >= 10: total = total / 2
    else: total = total * 2
    for i in range(3):
        total = (total  # + not this one
                 + i)
    while total > (
        50
        - x
    ):
        total -= 1
    return (total
            + x) <= 3 or x
"""

MUTATOR_OF_KIND = {"operator": "operator_swap", "conditional": "conditional_removal", "loop": "loop_removal"}


def _outcome(provider, spec):
    try:
        mutated, patch = inject_bug(provider.parse("m.py", EQUIVALENCE_MODULE), spec, provider)
    except (LocatorError, MutatorKindError, MutationError) as exc:
        return type(exc).__name__, str(exc)
    return mutated.source, render_patch(patch)


def test_shared_provider_mutates_like_a_fresh_one():
    shared = PythonAstProvider()
    tree = shared.parse("m.py", EQUIVALENCE_MODULE)
    fresh_tree = PythonAstProvider().parse("m.py", EQUIVALENCE_MODULE)
    checked = 0
    for kind, mutator in MUTATOR_OF_KIND.items():
        locators = PythonAstProvider().enumerate(fresh_tree, kind)
        assert locators, kind
        for loc in locators:
            spec = MutationSpec(mutator, target=loc)
            outcome = _outcome(shared, spec)
            assert outcome == _outcome(PythonAstProvider(), spec), loc
            mutated = outcome[0]
            assert mutated not in ("LocatorError", "MutatorKindError", "MutationError"), (loc, outcome)
            ast.parse(mutated)
            if kind == "operator":
                # Exactly one operator token inside the node's span changes.
                start = fresh_tree.offset(loc.start_line, loc.start_col)
                end = fresh_tree.offset(loc.end_line, loc.end_col)
                edits = [
                    i for i in range(start, end)
                    if EQUIVALENCE_MODULE.startswith(loc.detail, i)
                    and mutated == EQUIVALENCE_MODULE[:i] + SWAP_TABLE[loc.detail]
                    + EQUIVALENCE_MODULE[i + len(loc.detail):]
                ]
                assert len(edits) == 1, loc
            for other_kind, other_mutator in MUTATOR_OF_KIND.items():
                if other_kind == kind:
                    continue
                wrong = MutationSpec(other_mutator, target=loc)
                expected = (
                    "MutatorKindError",
                    f"target at {loc.span()} is a {kind}, not a {other_kind} ({other_mutator})",
                )
                assert _outcome(shared, wrong) == _outcome(PythonAstProvider(), wrong) == expected
            checked += 1
    assert checked >= 20
    ghost = MutationSpec("operator_swap", target=NodeLocator("m.py", 7, 4, 7, 9))
    expected = ("LocatorError", "m.py: no node at span (7, 4, 7, 9)")
    assert _outcome(shared, ghost) == _outcome(PythonAstProvider(), ghost) == expected
    # Every mutation above ran on the one kept tree, which still holds the clean source.
    assert shared.parse("m.py", EQUIVALENCE_MODULE) is tree
    assert tree.source == EQUIVALENCE_MODULE


def test_provider_parses_a_changed_source_for_a_kept_path():
    provider = PythonAstProvider()
    first = provider.parse("m.py", "x = a + b\n")
    assert provider.parse("m.py", "x = a + b\n") is first
    changed = provider.parse("m.py", "x = a - b\n")
    assert changed.source == "x = a - b\n"
    assert ast.dump(changed.root) == ast.dump(ast.parse("x = a - b\n"))
    assert [loc.detail for loc in provider.enumerate(changed, "operator")] == ["-"]
    # The first tree of a path stays the kept one.
    assert provider.parse("m.py", "x = a + b\n") is first


@pytest.mark.parametrize("source", PARSER_REFUSALS.values(), ids=PARSER_REFUSALS)
def test_provider_turns_every_parser_refusal_into_a_mutation_error(source):
    try:
        ast.parse(source)
    except Exception:
        with pytest.raises(MutationError, match=r"^m\.py: cannot parse: \w"):
            PythonAstProvider().parse("m.py", source)
    else:
        assert PythonAstProvider().parse("m.py", source).source == source


def _single_edit(source, kind, mutator, index=0):
    tree = PythonAstProvider().parse("m.py", source)
    target = PythonAstProvider().enumerate(tree, kind)[index]
    mutated, patch = inject_bug(tree, MutationSpec(mutator, target=target))
    assert apply_patch(patch, {"m.py": source}) == {"m.py": mutated.source}
    return mutated.source


def test_form_feed_in_a_comment_leaves_later_spans_in_place():
    # str.splitlines() breaks at the form feed; the ast does not.
    source = (
        "# Section one\x0c see below\n\n"
        "def f(a):\n    x = 1\n    y = 2\n    z = 3\n"
        "    if a:\n        return a + 1\n    return x\n"
    )
    assert _single_edit(source, "operator", "operator_swap") == source.replace("a + 1", "a - 1")
    assert _single_edit(source, "conditional", "conditional_removal") == source.replace(
        "    if a:\n        return a + 1\n", ""
    )


def test_line_separator_in_a_string_leaves_later_spans_in_place():
    source = (
        'x = "\u2028"\n\n'
        "def f(a, b):\n    if a:\n        return 1\n    elif b:\n        return 2\n"
        "    return 3 < a\n"
    )
    assert _single_edit(source, "operator", "operator_swap") == source.replace("3 < a", "3 >= a")
    assert _single_edit(source, "conditional", "conditional_removal") == (
        'x = "\u2028"\n\n'
        "def f(a, b):\n    if b:\n        return 2\n    return 3 < a\n"
    )


def test_form_feed_in_a_diff_context_line_keeps_the_injection_diff_whole():
    source = "def pick(c):\n    x = 1  # \x0c\n    if c:\n        x = 2\n    return x\n"
    assert _single_edit(source, "conditional", "conditional_removal") == (
        "def pick(c):\n    x = 1  # \x0c\n    return x\n"
    )


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
def test_tree_lines_break_only_where_the_ast_does(separator):
    # str.splitlines() would also break at the separator, shifting every
    # later span; the ast breaks at \n, \r\n and \r alone.
    assert PythonSyntaxTree("m.py", f"a {separator} b\nc\r\nd\re{separator}").lines == [
        f"a {separator} b\n", "c\r\n", "d\r", f"e{separator}"
    ]


def test_tree_lines_without_other_separators_equal_splitlines():
    text = "a\nb\r\nc\rd"
    assert PythonSyntaxTree("m.py", text).lines == text.splitlines(keepends=True)
    assert PythonSyntaxTree("m.py", "").lines == []


def test_removal_indents_with_the_statements_own_indentation():
    # A tab-indented file stays tab-indented: a replacement `pass` or a
    # spliced inline-else statement takes its line's own indentation text.
    inline = "def pick(c):\n\tif c: r = 1\n\telse: r = 2\n\treturn r\n"
    assert _single_edit(inline, "conditional", "conditional_removal") == "def pick(c):\n\tr = 2\n\treturn r\n"
    sole = "def f(c):\n\tx = 0\n\tfor i in c:\n\t\tif i:\n\t\t\tx = 1\n\treturn x\n"
    assert _single_edit(sole, "conditional", "conditional_removal") == (
        "def f(c):\n\tx = 0\n\tfor i in c:\n\t\tpass\n\treturn x\n"
    )
    loop = "def f(c):\n\tif c:\n\t\tfor i in c:\n\t\t\tprint(i)\n\treturn c\n"
    assert _single_edit(loop, "loop", "loop_removal") == "def f(c):\n\tif c:\n\t\tpass\n\treturn c\n"


def test_non_ascii_text_before_a_span_counts_characters_not_bytes():
    # ast columns count UTF-8 bytes; "日本" is 2 characters and 6 bytes.
    source = 'def f(a, b):\n    return "日本" + a - b\n'
    assert _single_edit(source, "operator", "operator_swap", 0) == source.replace("+ a - b", "- a - b")
    assert _single_edit(source, "operator", "operator_swap", 1) == source.replace("+ a - b", "+ a + b")
    inline = 'def pick(c):\n    if c: r = "é"\n    else: r = "日本"; s = "ü"\n    return r\n'
    assert _single_edit(inline, "conditional", "conditional_removal") == (
        'def pick(c):\n    r = "日本"; s = "ü"\n    return r\n'
    )


# ---------------------------------------------------------------------------
# Instance assembly


def toy_reports(failing):
    tests = [T_ADD, T_CLAMP, T_TOTAL]
    buggy = TestReport("buggy", {t: "fail" if t in failing else "pass" for t in tests})
    restored = TestReport("restored", {t: "pass" for t in tests})
    return buggy, restored


def build_toy_instance(spec, failing):
    return build_synthetic_instance(
        toy_snapshot(),
        spec,
        toy_reports(failing),
        TemplateStatementProvider(),
        repo="acme/calclib",
        base_commit="0123456789abcdef0123456789abcdef01234567",
    )


def test_synthetic_instance_golden_restores_clean_snapshot():
    spec = MutationSpec("operator_swap", target=toy_locator("+", 2), seed=1)
    inst = build_toy_instance(spec, failing=[T_ADD])
    assert inst.origin == "synthetic"
    assert inst.fail_to_pass == (T_ADD,)
    assert validate_instance(inst) == []
    injection = parse_patch(inst.extra["injection_patch"])
    buggy = apply_patch(injection, toy_snapshot())
    assert buggy["calc.py"] != TOY_CALC
    restored = apply_patch(parse_patch(inst.golden_patch), buggy)
    assert restored == toy_snapshot()  # byte-exact oracle


def test_synthetic_instance_parses_its_golden_patch_once(monkeypatch):
    # The one parse decides validation and seeds golden_stats; a golden
    # patch that does not parse still fails validation with BAD_PATCH.
    parsed = []
    refuse = []

    def recording_parse(text):
        parsed.append(text)
        if text in refuse:
            raise PatchParseError("refused")
        return parse_patch(text)

    monkeypatch.setattr("lego_forge.task_builder.parse_patch", recording_parse)
    monkeypatch.setattr("lego_forge.patch_analysis.parse_patch", recording_parse)
    spec = MutationSpec("operator_swap", target=toy_locator("+", 2), seed=1)
    inst = build_toy_instance(spec, failing=[T_ADD])
    assert parsed.count(inst.golden_patch) == 1
    assert vars(inst)["golden_stats"] == patch_stats(parse_patch(inst.golden_patch))
    assert inst.golden_stats.hunks >= 1
    refuse.append(inst.golden_patch)
    with pytest.raises(ForgeError) as failed:
        build_toy_instance(spec, failing=[T_ADD])
    assert str(failed.value) == "built instance fails validation: ['BAD_PATCH']"


def test_dead_code_mutation_is_invisible():
    spec = MutationSpec("operator_swap", target=toy_locator("*", 26), seed=3)
    with pytest.raises(InvisibleBugError):
        build_toy_instance(spec, failing=[])


def test_two_specs_share_one_image():
    first = build_toy_instance(
        MutationSpec("operator_swap", target=toy_locator("+", 2), seed=1), [T_ADD]
    )
    second = build_toy_instance(
        MutationSpec("loop_removal", path="calc.py", seed=7), [T_TOTAL]
    )
    assert first.image_name == second.image_name
    assert first.image_name == shared_image_name("acme/calclib", "0123456789abcdef0123456789abcdef01234567")
    assert first.instance_id != second.instance_id


def test_statement_stub_mentions_failing_test_never_the_diff():
    inst = build_toy_instance(
        MutationSpec("operator_swap", target=toy_locator("+", 2), seed=1), [T_ADD]
    )
    statement = inst.problem_statement
    assert statement
    assert "test_add" in statement
    for marker in ("--- a/", "+++ b/", "@@"):
        assert marker not in statement


def pr_fixture(pre=None, post=None):
    """A real_inputs line; `pre` and `post` default to reports in which
    test_strip goes from fail to pass."""
    diff = (
        "--- a/src/parser.py\n+++ b/src/parser.py\n@@ -1,2 +1,2 @@\n"
        " def parse(text):\n-    return text.split(',')\n+    return [t.strip() for t in text.split(',')]\n"
    )
    pre = pre or TestReport("pre_patch", {"tests/test_parser.py::test_strip": "fail",
                                          "tests/test_parser.py::test_basic": "pass"})
    post = post or TestReport("post_patch", {"tests/test_parser.py::test_strip": "pass",
                                             "tests/test_parser.py::test_basic": "pass"})
    return {
        "repo": "acme/parserlib",
        "base_commit": "feed0000feed0000feed0000feed0000feed0000",
        "number": 42,
        "merged_diff": diff,
        "issue_text": "parse keeps surrounding whitespace on items",
        "issue_created_at": "2023-03-01T09:00:00+00:00",
        "pre_report": pre.to_record(),
        "post_report": post.to_record(),
    }


def test_real_instance_from_pr_fixture():
    inst = build_real_instance(pr_fixture())
    assert inst.origin == "real"
    assert inst.fail_to_pass == ("tests/test_parser.py::test_strip",)
    assert inst.pass_to_pass == ("tests/test_parser.py::test_basic",)
    assert inst.created_at == "2023-03-01T09:00:00+00:00"
    assert inst.golden_patch == pr_fixture()["merged_diff"]
    assert vars(inst)["golden_stats"] == patch_stats(parse_patch(inst.golden_patch))
    assert validate_instance(inst) == []


def test_real_instance_empty_issue_rejected():
    pr = pr_fixture(TestReport("pre_patch", {"t": "fail"}), TestReport("post_patch", {"t": "pass"}))
    pr["issue_text"] = "   "
    with pytest.raises(ValueError):
        build_real_instance(pr)


def test_real_instance_invisible_without_flipping_test():
    pr = pr_fixture(TestReport("pre_patch", {"t": "pass"}), TestReport("post_patch", {"t": "pass"}))
    with pytest.raises(InvisibleBugError):
        build_real_instance(pr)


def mutation_line():
    """A mutations line with an explicit target."""
    loc = toy_locator("+", 2)
    target = {key: getattr(loc, key) for key in ("path", "start_line", "start_col", "end_line", "end_col")}
    buggy, restored = toy_reports([T_ADD])
    return {"mutator": "operator_swap", "target": target, "seed": 1,
            "buggy_report": buggy.to_record(), "restored_report": restored.to_record()}


@pytest.mark.parametrize("parse, line, refusals, refused", [
    (lambda r: MutationSpec.from_record(r, 0), mutation_line(), (ValueError,),
     {"target": (0, False, "", [], {})}),
    (NodeLocator.from_record, mutation_line()["target"], (ValueError,), {}),
    (build_real_instance, pr_fixture(), (ValueError, PatchParseError, InvisibleBugError),
     {"number": (True, 1.5, [])}),
], ids=["MutationSpec.from_record", "NodeLocator.from_record", "build_real_instance"])
def test_line_parsers_refuse_bad_fields(parse, line, refusals, refused):
    # A field of the wrong type is refused, never cast: no bool where an
    # integer belongs. build_real_instance may also refuse a line whose diff
    # does not parse or that flips no test. `refused` names values that
    # must raise ValueError even where the record would look sound (a PR
    # number only ever reaches the instance id; a target that is not an
    # object or null would otherwise read as a wildcard).
    assert_refuses_bad_fields(parse, line, refusals)
    for key, values in refused.items():
        for value in values:
            with pytest.raises(ValueError):
                parse({**line, key: value})


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("mutator, source, expected", [
    ("loop_removal",
     "def f(c):\n    if c:\n        for i in c:\n            print(i)\n    return c\n",
     "def f(c):\n    if c:\n        pass\n    return c\n"),
    ("conditional_removal",
     "def f(c):\n    if c: x = 1\n    else: x = 2\n    return x\n",
     "def f(c):\n    x = 2\n    return x\n"),
], ids=["pass", "inline-else"])
def test_replacement_lines_keep_the_files_line_ending(mutator, source, expected, ending):
    # A replacement `pass`, or an inline else statement spliced onto its own
    # line, ends as the statement's line did, so the file keeps one style.
    tree = PythonAstProvider().parse("f.py", source.replace("\n", ending))
    mutated, _ = inject_bug(tree, MutationSpec(mutator, seed=0))
    assert mutated.source == expected.replace("\n", ending)
