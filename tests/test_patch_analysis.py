import random

import pytest

from lego_forge.patch_analysis import (
    Patch,
    PatchApplyError,
    PatchParseError,
    apply_patch,
    changed_line_map,
    invert_patch,
    line_overlap,
    make_patch,
    mean_patch_stats,
    parse_patch,
    patch_stats,
    render_patch,
    split_lines,
)

from conftest import random_edit, random_file

ONE_HUNK_DIFF = """--- a/src/mod.py
+++ b/src/mod.py
@@ -1,3 +1,3 @@
 def f():
-    x = 1
-    y = 2
+    x = 10
+    y = 20
"""

TWO_FILE_DIFF = """--- a/src/alpha.py
+++ b/src/alpha.py
@@ -1,3 +1,3 @@
 a1
-a2
+A2
 a3
@@ -10,3 +10,4 @@
 a10
-a11
+A11
+A11b
 a12
--- a/src/beta.py
+++ b/src/beta.py
@@ -5,4 +5,4 @@
 b5
-b6
-b7
+B6
+B7
 b8
"""


def test_parse_empty_text():
    assert parse_patch("") == Patch(file_diffs=())
    assert parse_patch("   \n\n") == Patch(file_diffs=())


def test_parse_one_file_one_hunk():
    patch = parse_patch(ONE_HUNK_DIFF)
    stats = patch_stats(patch)
    assert stats.files == 1
    assert stats.hunks == 1
    assert stats.lines == 4  # 2 removed + 2 added
    fd = patch.file_diffs[0]
    assert fd.path == "src/mod.py"
    hunk = fd.hunks[0]
    assert [no for no, _ in hunk.removed_lines] == [2, 3]
    assert [no for no, _ in hunk.added_lines] == [2, 3]


def test_parse_corrupted_hunk_header_reports_line():
    corrupted = ONE_HUNK_DIFF.replace("@@ -1,3 +1,3 @@", "@@ -1,3 1,3 @@")
    with pytest.raises(PatchParseError) as err:
        parse_patch(corrupted)
    assert err.value.line_no == 3


def test_parse_count_mismatch_fails():
    # Declares 4 old lines but the body only holds 3.
    bad = "--- a/f.py\n+++ b/f.py\n@@ -1,4 +1,2 @@\n a\n-b\n-c\n"
    with pytest.raises(PatchParseError):
        parse_patch(bad)


def test_parse_overlapping_hunks_rejected():
    text = (
        "--- a/f.py\n+++ b/f.py\n"
        "@@ -1,3 +1,3 @@\n a\n-b\n+B\n c\n"
        "@@ -2,2 +2,2 @@\n-b\n+Z\n c\n"
    )
    with pytest.raises(PatchParseError):
        parse_patch(text)


def test_parse_binary_diff_rejected():
    with pytest.raises(PatchParseError):
        parse_patch("diff --git a/img.png b/img.png\nBinary files a/img.png and b/img.png differ\n")


def test_stats_empty_patch():
    assert patch_stats(Patch(file_diffs=())) == patch_stats(parse_patch(""))
    stats = patch_stats(parse_patch(""))
    assert (stats.files, stats.hunks, stats.lines) == (0, 0, 0)


def test_stats_two_files_three_hunks_nine_lines():
    # Hand count: alpha hunk1 = 1-1+, hunk2 = 1-2+; beta hunk = 2-2+.
    # removed = 4, added = 5, lines = 9.
    stats = patch_stats(parse_patch(TWO_FILE_DIFF))
    assert (stats.files, stats.hunks, stats.lines) == (2, 3, 9)


def test_stats_additive_over_file_diffs():
    patch = parse_patch(TWO_FILE_DIFF)
    total = patch_stats(patch)
    split = [patch_stats(Patch(file_diffs=(fd,))) for fd in patch.file_diffs]
    assert total.files == sum(s.files for s in split)
    assert total.hunks == sum(s.hunks for s in split)
    assert total.lines == sum(s.lines for s in split)


def test_rename_counts_in_files_only():
    rename = "diff --git a/old.py b/new.py\nrename from old.py\nrename to new.py\n"
    patch = parse_patch(rename)
    stats = patch_stats(patch)
    assert (stats.files, stats.hunks, stats.lines) == (1, 0, 0)
    assert patch.file_diffs[0].old_path == "old.py"
    assert patch.file_diffs[0].path == "new.py"


def test_apply_and_render_round_trip():
    old = "def f():\n    x = 1\n    y = 2\n"
    new = "def f():\n    x = 10\n    y = 20\n"
    patch = parse_patch(ONE_HUNK_DIFF)
    assert apply_patch(patch, {"src/mod.py": old}) == {"src/mod.py": new}
    # Re-rendered text applies identically.
    rendered = parse_patch(render_patch(patch))
    assert apply_patch(rendered, {"src/mod.py": old}) == {"src/mod.py": new}
    assert rendered == patch


def test_apply_context_mismatch_raises():
    patch = parse_patch(ONE_HUNK_DIFF)
    with pytest.raises(PatchApplyError):
        apply_patch(patch, {"src/mod.py": "totally\ndifferent\ncontent\nhere\n"})


def test_apply_file_creation_and_deletion():
    creation = "--- /dev/null\n+++ b/new.txt\n@@ -0,0 +1,2 @@\n+hello\n+world\n"
    patch = parse_patch(creation)
    assert apply_patch(patch, {}) == {"new.txt": "hello\nworld\n"}
    deletion = invert_patch(patch)
    assert apply_patch(deletion, {"new.txt": "hello\nworld\n"}) == {}


def test_no_newline_at_eof_round_trip():
    old = "a\nb"
    new = "a\nc"
    text = make_patch(old, new, "f.txt")
    assert "\\ No newline at end of file" in text
    patch = parse_patch(text)
    assert apply_patch(patch, {"f.txt": old}) == {"f.txt": new}
    assert parse_patch(render_patch(patch)) == patch
    assert apply_patch(invert_patch(patch), {"f.txt": new}) == {"f.txt": old}


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
def test_lines_break_only_where_python_source_lines_do(separator):
    # str.splitlines() would also break at the separator, cutting the
    # diff's context line in two.
    assert split_lines(f"a {separator} b\nc\r\nd\re{separator}") == [
        f"a {separator} b\n", "c\r\n", "d\r", f"e{separator}"
    ]
    assert split_lines(f"a {separator} b\nc\r\nd", keepends=False) == [f"a {separator} b", "c", "d"]
    old = f"def f(a):  # {separator} note\n    x = 1\n    return a\n"
    new = old.replace("x = 1", "x = 2")
    patch = parse_patch(make_patch(old, new, "f.py"))
    assert apply_patch(patch, {"f.py": old}) == {"f.py": new}
    assert apply_patch(invert_patch(patch), {"f.py": new}) == {"f.py": old}
    assert parse_patch(render_patch(patch)) == patch


def test_split_lines_without_other_separators_equals_splitlines():
    text = "a\nb\r\nc\rd"
    assert split_lines(text) == text.splitlines(keepends=True)
    assert split_lines(text, keepends=False) == text.splitlines()
    assert split_lines("") == []


def test_invert_involution_and_empty():
    assert invert_patch(Patch(file_diffs=())) == Patch(file_diffs=())
    patch = parse_patch(TWO_FILE_DIFF)
    assert invert_patch(invert_patch(patch)) == patch


def test_invert_restores_bytes_on_random_files():
    rng = random.Random(2024)
    for case in range(25):
        path = f"src/file{case}.py"
        old = random_file(rng)
        new = random_edit(rng, old)
        patch = parse_patch(make_patch(old, new, path))
        patched = apply_patch(patch, {path: old})
        assert patched[path] == new
        restored = apply_patch(invert_patch(patch), patched)
        assert restored[path] == old  # byte-exact oracle
        assert invert_patch(invert_patch(patch)) == patch


def test_invert_restores_multi_file_trees():
    rng = random.Random(31337)
    for _ in range(10):
        tree = {}
        for f in range(rng.randrange(2, 5)):
            tree[f"pkg/mod{f}.py"] = random_file(rng)
        new_tree = dict(tree)
        diff_parts = []
        # Edit some files, delete one, create one.
        for path in sorted(tree):
            roll = rng.random()
            if roll < 0.5:
                new_tree[path] = random_edit(rng, tree[path])
                diff_parts.append(make_patch(tree[path], new_tree[path], path))
            elif roll < 0.65:
                del new_tree[path]
                diff_parts.append(make_patch(tree[path], "", path))
        created = f"pkg/new{rng.randrange(100)}.py"
        new_tree[created] = random_file(rng)
        diff_parts.append(
            make_patch("", new_tree[created], created, old_path="/dev/null")
        )
        patch = parse_patch("".join(diff_parts))
        # A deletion via make_patch empties the file rather than removing it.
        patched = apply_patch(patch, tree)
        for path, content in new_tree.items():
            assert patched[path] == content
        restored = apply_patch(invert_patch(patch), patched)
        for path, content in tree.items():
            assert restored[path] == content
        assert invert_patch(invert_patch(patch)) == patch


def test_hunk_header_zero_start_with_length_rejected():
    bad = "--- a/f.py\n+++ b/f.py\n@@ -0,2 +1,2 @@\n-a\n-b\n+c\n+d\n"
    with pytest.raises(PatchParseError):
        parse_patch(bad)


def test_git_style_headers_parse():
    text = (
        "diff --git a/pkg/mod.py b/pkg/mod.py\n"
        "index 3d4cafe..9b2e1aa 100644\n"
        "--- a/pkg/mod.py\n"
        "+++ b/pkg/mod.py\n"
        "@@ -1,2 +1,2 @@\n"
        " keep\n"
        "-old\n"
        "+new\n"
    )
    patch = parse_patch(text)
    assert patch.file_diffs[0].path == "pkg/mod.py"
    assert apply_patch(patch, {"pkg/mod.py": "keep\nold\n"}) == {"pkg/mod.py": "keep\nnew\n"}


# -- line overlap


def test_overlap_self_is_full():
    golden = parse_patch(TWO_FILE_DIFF)
    report = line_overlap(golden, golden)
    changed = changed_line_map(golden)
    assert report.total_overlap == sum(len(v) for v in changed.values())
    assert report.golden_files_touched == report.golden_files_total == 2


def test_overlap_disjoint_files():
    golden = parse_patch(TWO_FILE_DIFF)
    edit = parse_patch(ONE_HUNK_DIFF)
    report = line_overlap(edit, golden)
    assert report.total_overlap == 0
    assert report.golden_files_touched == 0
    assert report.golden_files_total == 2


def test_overlap_one_of_two_files_three_lines():
    # Golden touches two files; the edit touches one of them on the same
    # three old lines (2, 3, 4 of src/alpha.py).
    golden_text = (
        "--- a/src/alpha.py\n+++ b/src/alpha.py\n@@ -1,5 +1,3 @@\n a1\n-a2\n-a3\n-a4\n+fixed\n a5\n"
        "--- a/src/beta.py\n+++ b/src/beta.py\n@@ -1,2 +1,2 @@\n b1\n-b2\n+B2\n"
    )
    edit_text = (
        "--- a/src/alpha.py\n+++ b/src/alpha.py\n@@ -2,3 +2,3 @@\n-a2\n-a3\n-a4\n+x\n+y\n+z\n"
    )
    report = line_overlap(parse_patch(edit_text), parse_patch(golden_text))
    assert report.golden_files_touched == 1
    assert report.golden_files_total == 2
    assert report.total_overlap == 3
    assert report.per_file["src/alpha.py"] == (2, 3, 4)


def test_overlap_count_symmetric():
    rng = random.Random(11)
    for _ in range(20):
        old = random_file(rng)
        a = parse_patch(make_patch(old, random_edit(rng, old), "m.py"))
        b = parse_patch(make_patch(old, random_edit(rng, old), "m.py"))
        forward = line_overlap(a, b)
        backward = line_overlap(b, a)
        assert forward.total_overlap == backward.total_overlap


def test_corpus_means_match_focused_fixture_shape():
    # Ten single-file patches shaped like a focused synthetic corpus:
    # mean files 1.0, mean hunks 1.3, mean lines 18.8.
    rng = random.Random(5)
    hunk_plan = [1] * 7 + [2] * 3
    line_plan = [19] * 8 + [18] * 2
    stats = []
    for hunks, lines in zip(hunk_plan, line_plan):
        old_lines = [f"l{i}\n" for i in range(60)]
        new_lines = list(old_lines)
        per_hunk = lines // hunks
        extra = lines - per_hunk * hunks
        for h in range(hunks):
            # Replace a run: per-hunk budget counts removed + added.
            budget = per_hunk + (extra if h == 0 else 0)
            removed = budget // 2
            added = budget - removed
            start = h * 30 + 2
            new_lines[start : start + removed] = [
                f"edit{h}-{i} {rng.randrange(99)}\n" for i in range(added)
            ]
        patch = parse_patch(make_patch("".join(old_lines), "".join(new_lines), "mod.py"))
        stats.append(patch_stats(patch))
    means = mean_patch_stats(stats)
    assert means["files"] == pytest.approx(1.0)
    assert means["hunks"] == pytest.approx(1.3)
    assert means["lines"] == pytest.approx(18.8)
