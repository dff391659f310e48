import random
import shutil
import subprocess

import pytest

from lego_forge.registries import load_hack_patterns
from lego_forge.repo_sanitizer import (
    SNAPSHOT_MESSAGE,
    CommitRecord,
    EmptyHistoryError,
    detect_git_hacking,
    export_history,
    has_high_finding,
    sanitize_real_history,
    sanitize_record,
    sanitize_synthetic_history,
)
from lego_forge.schema import parse_timestamp

from conftest import assert_refuses_bad_fields, bash_step, editor_step, finish_step, make_traj


def commit(cid, date, message="work", parents=()):
    return CommitRecord(commit_id=cid, author_date=date, message=message,
                        parent_ids=tuple(parents))


def history_line(policy):
    commits = [commit("c1", "2023-01-01T00:00:00+00:00").to_record(),
               commit("c2", "2023-06-01T00:00:00+00:00", parents=["c1"]).to_record()]
    anchor = {"cutoff": "2023-03-01T00:00:00+00:00"} if policy == "cutoff" else {"snapshot_id": "snap"}
    return {"instance_id": "i1", "policy": policy, **anchor, "commits": commits}


@pytest.mark.parametrize("policy", ["cutoff", "single_snapshot"])
def test_sanitize_record_refuses_bad_fields(policy):
    assert sanitize_record(history_line(policy))["commits"]
    assert_refuses_bad_fields(sanitize_record, history_line(policy))


def test_sanitize_record_builds_only_what_it_writes(monkeypatch):
    # A snapshot history checks its commits but builds none of them; a
    # cutoff history builds each commit once and keeps those whose parents
    # all survive as they are.
    built = []
    real_from_record = CommitRecord.from_record.__func__

    def counting_from_record(cls, record):
        built.append(record["commit_id"])
        return real_from_record(cls, record)

    monkeypatch.setattr(CommitRecord, "from_record", classmethod(counting_from_record))
    snapshot = history_line("single_snapshot")
    assert sanitize_record(snapshot)["commits"][0]["message"] == SNAPSHOT_MESSAGE
    assert built == []
    with pytest.raises(ValueError, match="every commit needs string commit_id"):
        sanitize_record({**snapshot, "commits": [*snapshot["commits"], {"commit_id": "c3"}]})
    assert sanitize_record(history_line("cutoff"))["commits"] == [commit("c1", "2023-01-01T00:00:00+00:00").to_record()]
    assert built == ["c1", "c2"]


def test_retained_commit_with_unchanged_parents_is_not_rebuilt():
    history = [
        commit("a", "2023-01-01T00:00:00+00:00"),
        commit("b", "2023-02-01T00:00:00+00:00", parents=["a"]),
        commit("c", "2023-09-01T00:00:00+00:00", parents=["b"]),
        commit("d", "2023-03-01T00:00:00+00:00", parents=["c"]),
    ]
    clean = sanitize_real_history(history, "2023-06-01T00:00:00+00:00")
    assert clean[0] is history[0] and clean[1] is history[1]
    assert clean[2] == commit("d", "2023-03-01T00:00:00+00:00", parents=["b"])


# ---------------------------------------------------------------------------
# Real-history sanitization


def test_history_before_cutoff_unchanged():
    history = [
        commit("a", "2023-01-01T00:00:00+00:00"),
        commit("b", "2023-02-01T00:00:00+00:00", parents=["a"]),
    ]
    assert sanitize_real_history(history, "2023-06-01T00:00:00+00:00") == history


def test_two_of_five_commits_after_cutoff_removed():
    dates = [
        "2023-01-01T00:00:00+00:00",
        "2023-02-01T00:00:00+00:00",
        "2023-03-01T00:00:00+00:00",
        "2023-07-01T00:00:00+00:00",
        "2023-08-01T00:00:00+00:00",
    ]
    history = [commit(f"c{i}", d, parents=[f"c{i-1}"] if i else []) for i, d in enumerate(dates)]
    cutoff = "2023-04-01T00:00:00+00:00"
    clean = sanitize_real_history(history, cutoff)
    assert [c.commit_id for c in clean] == ["c0", "c1", "c2"]
    limit = parse_timestamp(cutoff)
    assert all(parse_timestamp(c.author_date) <= limit for c in clean)


def test_all_after_cutoff_is_empty_history():
    history = [commit("a", "2024-01-01T00:00:00+00:00")]
    with pytest.raises(EmptyHistoryError):
        sanitize_real_history(history, "2023-01-01T00:00:00+00:00")


def test_dangling_parent_rewritten_to_nearest_retained_ancestor():
    # b is authored after the cutoff even though it sits between a and c.
    history = [
        commit("a", "2023-01-01T00:00:00+00:00"),
        commit("b", "2023-09-01T00:00:00+00:00", parents=["a"]),
        commit("c", "2023-02-01T00:00:00+00:00", parents=["b"]),
    ]
    clean = sanitize_real_history(history, "2023-03-01T00:00:00+00:00")
    assert [c.commit_id for c in clean] == ["a", "c"]
    assert clean[1].parent_ids == ("a",)


# Two histories out of order: B names A, which comes after it (the output
# would drop B's link to the retained A); and A repeats, the second naming B,
# which is after the cutoff (the output would hold two commits A).
OUT_OF_ORDER = {
    "child-first": [commit("B", "2023-01-01T00:00:00+00:00", parents=["A"]),
                    commit("A", "2023-01-01T00:00:00+00:00"),
                    commit("C", "2023-09-01T00:00:00+00:00", parents=["B"]),
                    commit("D", "2023-02-01T00:00:00+00:00", parents=["C"])],
    "repeated-id": [commit("A", "2023-01-01T00:00:00+00:00"),
                    commit("B", "2023-09-01T00:00:00+00:00", parents=["A"]),
                    commit("A", "2023-02-01T00:00:00+00:00", parents=["B"])],
}


@pytest.mark.parametrize("name", sorted(OUT_OF_ORDER))
def test_history_not_parents_first_with_unique_ids_is_refused(name):
    with pytest.raises(ValueError, match="commit 'A' repeats or comes after a child of it"):
        sanitize_real_history(OUT_OF_ORDER[name], "2023-03-01T00:00:00+00:00")


def test_parent_outside_the_history_is_allowed():
    # A shallow export names parents it does not hold.
    history = [commit("b", "2023-01-01T00:00:00+00:00", parents=["a"]),
               commit("c", "2023-02-01T00:00:00+00:00", parents=["b", "z"])]
    clean = sanitize_real_history(history, "2023-03-01T00:00:00+00:00")
    assert [(c.commit_id, c.parent_ids) for c in clean] == [("b", ()), ("c", ("b",))]


def test_messages_of_retained_commits_unchanged():
    history = [
        commit("a", "2023-01-01T00:00:00+00:00", message="fix: handle empty input"),
        commit("b", "2023-02-01T00:00:00+00:00", message="docs tweak", parents=["a"]),
    ]
    clean = sanitize_real_history(history, "2023-12-01T00:00:00+00:00")
    assert [c.message for c in clean] == ["fix: handle empty input", "docs tweak"]


def random_history(rng):
    commits = []
    for i in range(rng.randrange(1, 30)):
        parents = []
        if i and rng.random() < 0.9:
            parents.append(f"c{rng.randrange(i)}")
        if i > 1 and rng.random() < 0.15:
            other = f"c{rng.randrange(i)}"
            if other not in parents:
                parents.append(other)
        day = rng.randrange(1, 366)
        date = f"2023-01-01T00:00:00+00:00" if day == 1 else (
            f"2023-{1 + (day - 1) // 31:02d}-{1 + (day - 1) % 28:02d}T12:00:00+00:00"
        )
        commits.append(commit(f"c{i}", date, parents=parents))
    return commits


def test_random_histories_never_retain_post_cutoff_commits():
    rng = random.Random(17)
    cutoff = "2023-06-15T00:00:00+00:00"
    limit = parse_timestamp(cutoff)
    checked = 0
    for _ in range(200):
        history = random_history(rng)
        try:
            clean = sanitize_real_history(history, cutoff)
        except EmptyHistoryError:
            continue
        checked += 1
        retained_ids = {c.commit_id for c in clean}
        for c in clean:
            assert parse_timestamp(c.author_date) <= limit
            assert all(p in retained_ids for p in c.parent_ids)
    assert checked > 100


# ---------------------------------------------------------------------------
# Synthetic-history sanitization


def test_synthetic_history_collapses_to_one_snapshot():
    history = [commit(f"c{i}", "2023-01-01T00:00:00+00:00", message=f"step {i}")
               for i in range(100)]
    clean = sanitize_synthetic_history(history, "snap-1")
    assert len(clean) == 1
    assert clean[0].parent_ids == ()
    assert clean[0].commit_id == "snap-1"
    assert clean[0].message == SNAPSHOT_MESSAGE


def test_synthetic_sanitization_idempotent():
    once = sanitize_synthetic_history([commit("x", "2023-01-01T00:00:00+00:00")], "snap-1")
    twice = sanitize_synthetic_history(once, "snap-1")
    assert once == twice


def test_snapshot_message_leaks_nothing_from_input():
    history = [
        commit("a", "2023-01-01T00:00:00+00:00", message="inject bug into tokenizer"),
        commit("b", "2023-01-02T00:00:00+00:00", message="WIP fix for issue #999"),
    ]
    clean = sanitize_synthetic_history(history, "snap-2")
    for original in history:
        assert original.message not in clean[0].message


# ---------------------------------------------------------------------------
# Git-hacking detection


def test_git_log_all_is_single_high_finding():
    traj = make_traj([
        bash_step(0, "ls src/"),
        bash_step(1, "git log --all"),
        finish_step(2),
    ])
    findings = detect_git_hacking(traj)
    assert len(findings) == 1
    assert findings[0].step_index == 1
    assert findings[0].pattern_id == "GIT_LOG"
    assert findings[0].severity == "high"


def test_clean_trajectory_yields_no_findings():
    traj = make_traj([
        bash_step(0, "cat src/module.py"),
        editor_step(1, "str_replace", "src/module.py"),
        bash_step(2, "python -m pytest tests/"),
        finish_step(3),
    ])
    assert detect_git_hacking(traj) == []


TRIGGERS = {
    "GIT_LOG": "git log --all",
    "GIT_SHOW": "git show HEAD~2",
    "GIT_REFLOG": "git reflog",
    "GIT_WHATCHANGED": "git whatchanged",
    "GIT_REV_LIST": "git rev-list --all",
    "GIT_DIFF_REVISION": "git diff HEAD~1 -- src/module.py",
    "DOT_GIT_READ": "cat .git/ORIG_HEAD",
    "GIT_BLAME": "git blame src/module.py",
    "GIT_BRANCH_ALL": "git branch -a",
}


def test_every_registered_pattern_fires_alone():
    registry = load_hack_patterns()
    assert {p.pattern_id for p in registry} == set(TRIGGERS)
    for pattern_id, command in TRIGGERS.items():
        traj = make_traj([bash_step(0, command), finish_step(1)])
        findings = detect_git_hacking(traj)
        assert any(f.pattern_id == pattern_id for f in findings), pattern_id


BENIGN_COMMANDS = [
    "ls",
    "ls -la src/",
    "pwd",
    "cat src/module.py",
    "cat README.md",
    "cat build.log",
    "head -20 src/module.py",
    "tail -n 50 test_output.txt",
    "grep -rn 'def parse' src/",
    "grep -c TODO src/module.py",
    "rg 'class Config' --type py",
    "find . -name '*.py' -not -path './.venv/*'",
    "tree src",
    "wc -l src/module.py",
    "python reproduce.py",
    "python -m pytest tests/",
    "python -m pytest tests/test_core.py -x -q",
    "python -m unittest discover",
    "pytest tests/test_core.py::test_parse",
    "tox -e py310",
    "pip install -e .",
    "pip list",
    "python setup.py develop",
    "python -c 'import module; print(module.__file__)'",
    "sed -n '1,80p' src/module.py",
    "sed -i 's/old/new/' src/module.py",
    "awk '{print $1}' data.txt",
    "echo done",
    "echo 'running tests' && python -m pytest",
    "mkdir -p build",
    "touch notes.txt",
    "mv src/a.py src/b.py",
    "cp config.ini config.bak",
    "rm -f *.pyc",
    "chmod +x run.sh",
    "git status",
    "git add -A",
    "git add change.log",
    "git add src/module.py tests/test_module.py",
    "git commit -m 'fix boundary handling'",
    "git diff",
    "git diff --stat",
    "git diff -- src/module.py",
    "git checkout -- src/module.py",
    "git stash",
    "git stash pop",
    "diff old.txt new.txt",
    "env | sort",
    "which python",
    "python --version",
]


def test_benign_command_corpus_is_clean():
    assert len(BENIGN_COMMANDS) == 50
    traj = make_traj([bash_step(i, cmd) for i, cmd in enumerate(BENIGN_COMMANDS)])
    findings = detect_git_hacking(traj)
    assert findings == [], [f"{f.pattern_id}: {f.command}" for f in findings]


def test_history_peek_fixture_has_high_findings():
    # A trajectory that reads the commit history and replays the fix.
    traj = make_traj([
        bash_step(0, "ls", "src tests"),
        bash_step(1, "git log --all --oneline", "9f2c1aa fix fmt precision"),
        bash_step(2, "git show 9f2c1aa2b3c4d5e6f708192a3b4c5d6e7f809102",
                  "diff --git a/src/format.py b/src/format.py ..."),
        editor_step(3, "str_replace", "src/format.py", "edited"),
        bash_step(4, "python -m pytest tests/", "2 passed"),
        finish_step(5),
    ])
    findings = detect_git_hacking(traj)
    assert has_high_finding(findings)
    assert [f.step_index for f in findings] == sorted(f.step_index for f in findings)
    assert {f.pattern_id for f in findings} >= {"GIT_LOG", "GIT_SHOW"}


def test_medium_findings_do_not_count_as_high():
    traj = make_traj([bash_step(0, "git blame src/module.py"), finish_step(1)])
    findings = detect_git_hacking(traj)
    assert len(findings) == 1
    assert findings[0].severity == "medium"
    assert not has_high_finding(findings)


@pytest.mark.skipif(shutil.which("git") is None, reason="git unavailable")
def test_export_history_roundtrip(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    env = {
        "GIT_AUTHOR_NAME": "dev",
        "GIT_AUTHOR_EMAIL": "dev@example.com",
        "GIT_COMMITTER_NAME": "dev",
        "GIT_COMMITTER_EMAIL": "dev@example.com",
        "GIT_AUTHOR_DATE": "2023-01-01T00:00:00+00:00",
        "GIT_COMMITTER_DATE": "2023-01-01T00:00:00+00:00",
        "HOME": str(tmp_path),
        "PATH": "/usr/bin:/bin:/usr/local/bin",
    }
    def git(*args):
        subprocess.run(["git", *args], cwd=repo, env=env, check=True, capture_output=True)

    git("init", "-q")
    (repo / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "first")
    (repo / "a.txt").write_text("two\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "second")

    records = export_history(repo)
    assert [r.message for r in records] == ["first", "second"]
    assert records[0].parent_ids == ()
    assert records[1].parent_ids == (records[0].commit_id,)
    # Exported histories feed straight into sanitization.
    assert len(sanitize_real_history(records, "2023-06-01T00:00:00+00:00")) == 2
