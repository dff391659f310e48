"""Seeded synthetic corpora for the lego-forge benchmark, plus the reference
answers the benchmark checks the program's outputs against.

`generate(root, workload, seed)` writes a complete corpus directory (PR
fixtures, a multi-module snapshot with mutation specs, commit histories,
trajectories, final test reports, best-of-K rollouts, an allocation surface
and a `forge.cfg`) and returns a `Reference`. The same (workload, seed)
always writes the same bytes. The program sees only these files.

The reference is derived from what the generator planted, by the rules the
paper fixes, never by calling the program:

- outcome classification order: empty patch, then resolved (all tests green,
  no test-file edit, no high-severity git-history read), then cheating
  demoted to unresolved, then semi-resolved (every golden file edited),
  else unresolved;
- the failure-taxonomy cascade: failed to reproduce, read localization,
  write localization, ran out of turns, incorrect implementation.

Workload shapes, and why each has its shape:

- `curate-heavy`: 250 trajectories of 30-100 steps with observations of
  several hundred bytes, over 40 PR instances with 2-3 golden files each.
  Every outcome and every failure label is planted. The other inputs are
  small. Decode, record construction, curate's per-step passes, `mask`,
  `curriculum` and `classify-errors` do nearly all the work, so a change to
  the trajectory path shows here.
- `build-heavy`: 900 PRs with 2-5-file diffs, 90 mutation specs over a
  12-module snapshot (each spec hits a distinct node), 180 cutoff histories
  of 250 commits, and K=8 rollouts over 1,800 instances, but only 36
  trajectories. `patch_analysis`, `task_builder`, `repo_sanitizer`, `tts`
  and `stats` carry the load; a trajectory-path change must predict no
  change here.
- `rerun`: the `curate-heavy` corpus cut to 150 trajectories, re-run many
  times over its completed output tree, with one-line edits to `rollouts` or
  `histories` between re-runs. Hashing and state I/O dominate.

Step counts and the outcome mix are stratified (fixed counts, shuffled by
the seed), so every seed does the same amount of work in a different order
and with different text. Observations are never shortened and histories are
never truncated to make a stage look cheap.
"""

from __future__ import annotations

import ast
import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

REPO = "acme/widgets"
BASE_COMMIT = "5f3c2a1b0e9d8c7b6a5f4e3d2c1b0a9f8e7d6c5b"


@dataclass(frozen=True)
class Shape:
    trajectories: int
    prs: int
    pr_files: tuple[int, int]  # golden files per PR, inclusive range
    modules: int
    functions_per_module: int
    mutations: int
    histories: int
    commits: int
    rollout_instances: int
    rollouts_k: int


SHAPES = {
    "curate-heavy": Shape(
        trajectories=250, prs=40, pr_files=(2, 3), modules=3, functions_per_module=6,
        mutations=20, histories=40, commits=40, rollout_instances=40, rollouts_k=4,
    ),
    "build-heavy": Shape(
        trajectories=36, prs=900, pr_files=(2, 5), modules=12, functions_per_module=12,
        mutations=90, histories=180, commits=250, rollout_instances=1800, rollouts_k=8,
    ),
}
SHAPES["rerun"] = replace(SHAPES["curate-heavy"], trajectories=150)

# Share of trajectories per planted kind (the rest are resolved).
KIND_SHARES = (
    ("semi_resolved", 0.12),
    ("test_edit_cheat", 0.05),
    ("git_hack", 0.05),
    ("failed_to_reproduce", 0.10),
    ("read_localization_error", 0.10),
    ("write_localization_error", 0.08),
    ("ran_out_of_max_turns", 0.06),
    ("incorrect_implementation", 0.08),
    ("empty_patch", 0.08),
)

MAX_TURNS = 100


@dataclass
class Reference:
    """What a correct pipeline run must report for the planted corpus."""

    config: Path
    out_dir: Path
    outcome_counts: dict[str, int]
    failure_labels: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"config": str(self.config), "out_dir": str(self.out_dir),
                           "outcome_counts": self.outcome_counts, "failure_labels": self.failure_labels})

    @classmethod
    def from_json(cls, text: str) -> "Reference":
        raw = json.loads(text)
        return cls(Path(raw["config"]), Path(raw["out_dir"]), raw["outcome_counts"], raw["failure_labels"])


@dataclass
class _Pr:
    number: int
    instance_id: str
    golden_files: list[str]
    file_diffs: list[str]
    f2p: list[str]
    p2p: list[str]
    package: str

    @property
    def merged_diff(self) -> str:
        return "".join(self.file_diffs)


# ---------------------------------------------------------------------------
# Text


_WORDS = (
    "value", "config", "parse", "record", "offset", "buffer", "handler", "token",
    "stream", "cache", "index", "result", "payload", "window", "render", "schema",
    "column", "encode", "retry", "limit", "frame", "batch", "merge", "scope",
)


def _ident(rng: random.Random) -> str:
    return f"{rng.choice(_WORDS)}_{rng.choice(_WORDS)}"


def _code_line(rng: random.Random) -> str:
    roll = rng.random()
    a, b = _ident(rng), _ident(rng)
    if roll < 0.3:
        return f"    {a} = {b}({rng.randrange(100)}, {_ident(rng)})\n"
    if roll < 0.5:
        return f"    if {a} is None:\n"
    if roll < 0.7:
        return f"        return {a}.{rng.choice(_WORDS)}({b})\n"
    if roll < 0.85:
        return f"    for {a} in {b}:\n"
    return f"    {a} += len({b})\n"


def _hunk_diff(rng: random.Random, path: str, hunks: int) -> str:
    """Unified diff text for `path` with `hunks` separated replacement hunks,
    written directly (the files themselves never exist on disk)."""
    lines = [f"--- a/{path}\n", f"+++ b/{path}\n"]
    old_line = rng.randrange(4, 20)
    delta = 0
    for _ in range(hunks):
        before = [_code_line(rng) for _ in range(3)]
        after = [_code_line(rng) for _ in range(3)]
        removed = [_code_line(rng) for _ in range(rng.randrange(1, 3))]
        added = [_code_line(rng) for _ in range(rng.randrange(1, 4))]
        old_len = 6 + len(removed)
        new_len = 6 + len(added)
        lines.append(f"@@ -{old_line},{old_len} +{old_line + delta},{new_len} @@\n")
        lines.extend(" " + t for t in before)
        lines.extend("-" + t for t in removed)
        lines.extend("+" + t for t in added)
        lines.extend(" " + t for t in after)
        delta += len(added) - len(removed)
        old_line += old_len + rng.randrange(8, 40)
    return "".join(lines)


_PASS_LINES = (
    "collected {n} items",
    "tests/{mod} {dots} [100%]",
    "============ {n} passed in 0.{ms}s ============",
    "platform linux -- Python 3.11.7, pytest-7.4.0, pluggy-1.3.0",
    "rootdir: /workspace/widgets",
)

_LISTING = ("__init__.py", "core.py", "io.py", "helpers.py", "registry.py", "cli.py", "README.md",
            "setup.cfg", "pyproject.toml", "docs", "tests", "scripts")


def _pad(rng: random.Random, text: str, low: int, high: int) -> str:
    """Extend an observation with plausible code/log lines to low..high bytes."""
    target = rng.randrange(low, high)
    parts = [text]
    size = len(text)
    while size < target:
        line = _code_line(rng).rstrip("\n")
        parts.append(line)
        size += len(line) + 1
    return "\n".join(parts)


def _passing_pytest(rng: random.Random, test_file: str) -> str:
    n = rng.randrange(4, 40)
    text = "\n".join(
        [
            _PASS_LINES[3],
            _PASS_LINES[4],
            _PASS_LINES[0].format(n=n),
            "",
            _PASS_LINES[1].format(mod=test_file.split("/")[-1], dots="." * n),
            "",
            _PASS_LINES[2].format(n=n, ms=rng.randrange(10, 99)),
        ]
    )
    return text


def _failing_pytest(rng: random.Random, pr: _Pr) -> str:
    test = rng.choice(pr.f2p)
    name = test.split("::")[-1]
    return "\n".join(
        [
            _PASS_LINES[3],
            f"collected {len(pr.f2p) + len(pr.p2p)} items",
            "",
            "=================================== FAILURES ===================================",
            f"_________________________________ {name} _________________________________",
            f"    def {name}():",
            f">       assert {_ident(rng)}({rng.randrange(99)}) == {rng.randrange(99)}",
            f"E       AssertionError: assert {rng.randrange(99)} == {rng.randrange(99)}",
            "",
            f"{pr.golden_files[0]}:{rng.randrange(10, 200)}: AssertionError",
            "=========================== short test summary info ============================",
            f"FAILED {test} - AssertionError",
            f"========================= 1 failed, {len(pr.p2p)} passed in 0.{rng.randrange(10, 99)}s =========================",
        ]
    )


def _traceback(rng: random.Random, path: str) -> str:
    return "\n".join(
        [
            "Traceback (most recent call last):",
            f'  File "{path}", line {rng.randrange(5, 300)}, in {_ident(rng)}',
            f"    {_ident(rng)} = {_ident(rng)}[{rng.randrange(9)}]",
            f"KeyError: '{rng.choice(_WORDS)}'",
        ]
    )


# ---------------------------------------------------------------------------
# Trajectories


class _Steps:
    """Accumulates raw step records (phase/error_flag are re-derived by curate)."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.steps: list[dict] = []
        self.pruned = 0

    def _add(self, action, observation: str) -> None:
        self.steps.append(
            {"index": len(self.steps), "action": action, "observation": observation,
             "phase": "other", "error_flag": False}
        )

    def bash(self, command: str, observation: str) -> None:
        self._add({"tool": "execute_bash", "arguments": {"command": command}}, observation)

    def view(self, path: str) -> None:
        rng = self.rng
        args = {"command": "view", "path": path}
        roll = rng.random()
        start = rng.randrange(1, 120)
        if roll < 0.3:
            args["view_range"] = f"[{start}, {start + 40}]"  # text-encoded: repaired
        elif roll < 0.45:
            args["view_range"] = [start + 40, start]  # reversed: repaired
        elif roll < 0.75:
            args["view_range"] = [start, start + 40]
        body = "\n".join(f"{start + i}\t{_code_line(rng).rstrip()}" for i in range(rng.randrange(6, 18)))
        self._add({"tool": "str_replace_editor", "arguments": args}, body)

    def edit(self, path: str) -> None:
        rng = self.rng
        args = {"command": "str_replace", "path": path,
                "old_str": _code_line(rng).strip(), "new_str": _code_line(rng).strip()}
        self._add({"tool": "str_replace_editor", "arguments": args},
                  _pad(rng, f"The file {path} has been edited. Here's the result of running `cat -n`:", 200, 600))

    def think(self) -> None:
        rng = self.rng
        thought = " ".join(rng.choice(_WORDS) for _ in range(rng.randrange(20, 60)))
        self._add({"tool": "think", "arguments": {"thought": thought}}, "Your thought has been logged.")

    def message(self) -> None:
        rng = self.rng
        self._add("I will look at " + " ".join(rng.choice(_WORDS) for _ in range(rng.randrange(8, 30))), "")

    def tracker(self) -> None:
        self._add({"tool": "task_tracker", "arguments": {"items": ["inspect", "fix", "test"]}}, "tracker updated")
        self.pruned += 1

    def finish(self) -> None:
        self._add({"tool": "finish", "arguments": {}}, "")


def _filler(s: _Steps, pr: _Pr, decoys: list[str], allow_pruned: bool) -> None:
    """One step that neither reproduces the issue nor reads a golden file."""
    rng = s.rng
    roll = rng.random()
    decoy = rng.choice(decoys)
    if roll < 0.18:
        s.bash(f"ls src/{pr.package}", _pad(rng, "  ".join(rng.sample(_LISTING, 6)), 200, 500))
    elif roll < 0.34:
        s.bash(f"cat {decoy}", _pad(rng, f"# {decoy}", 300, 900))
    elif roll < 0.46:
        s.view(decoy)
    elif roll < 0.58:
        s.think()
    elif roll < 0.66:
        s.message()
    elif roll < 0.76:
        s.bash(f"python -c 'import {pr.package}; print({pr.package}.__version__)'",
               _pad(rng, _traceback(rng, decoy), 200, 600))
    elif roll < 0.82:
        s.bash(f"frobnicate --check {decoy}", "bash: frobnicate: command not found")
    elif roll < 0.90:
        s.bash("git status", _pad(rng, "On branch main\nChanges not staged for commit:", 150, 400))
    elif roll < 0.95:
        s.bash(f"git blame -L 10,30 {decoy}", _pad(rng, "^1a2b3c4 (dev 2023-04-01)", 300, 700))
    elif allow_pruned:
        s.tracker()
    else:
        s.think()


def _plant_trajectory(rng, tid: str, kind: str, n_steps: int, pr: _Pr, decoys: list[str],
                      helper_diff: str, test_diff: str):
    """Build one trajectory record of the given planted kind.

    Returns (record, final_report, planted facts). The facts are the inputs to
    the reference cascade: reproduced, viewed_all, touched/overlap, turns.
    """
    s = _Steps(rng)
    reproduce = kind not in ("failed_to_reproduce",)
    if kind == "empty_patch":
        variant = rng.randrange(3)
        reproduce = variant != 0
        view_all = variant == 2
    else:
        view_all = kind != "read_localization_error"

    golden = pr.golden_files
    viewed = list(golden) if view_all else golden[:-1]

    # Final patch per kind.
    if kind in ("resolved", "semi_resolved", "git_hack"):
        final_patch, touched = pr.merged_diff, len(golden)
    elif kind == "test_edit_cheat":
        final_patch, touched = pr.merged_diff + test_diff, len(golden)
    elif kind in ("ran_out_of_max_turns", "incorrect_implementation", "read_localization_error"):
        final_patch, touched = pr.file_diffs[0], 1
    elif kind == "empty_patch":
        final_patch, touched = "", 0
    else:  # failed_to_reproduce, write_localization_error
        final_patch, touched = helper_diff, 0
    test_file = pr.f2p[0].split("::")[0]

    # Opening moves.
    s.bash(f"ls src/{pr.package}", _pad(rng, "  ".join(rng.sample(_LISTING, 7)), 200, 500))
    s.bash(f"grep -rn '{rng.choice(_WORDS)}' src/", _pad(rng, f"src/{pr.package}/core.py:12:", 300, 800))
    if reproduce:
        if rng.random() < 0.5:
            s.bash(f"python -m pytest {test_file} -x -q", _failing_pytest(rng, pr))
        else:
            s.bash("python reproduce_issue.py", _pad(rng, _traceback(rng, golden[0]), 200, 600))
    else:
        s.bash(f"python -m pytest tests/test_smoke.py -q", _passing_pytest(rng, "tests/test_smoke.py"))
    for path in viewed:
        if rng.random() < 0.6:
            s.view(path)
        else:
            s.bash(f"cat {path}", _pad(rng, f"# {path}", 300, 900))
    if kind == "git_hack":
        s.bash(rng.choice(("git log --oneline -n 20", "git show HEAD~1 --stat", "git log -p -3")),
               _pad(rng, "commit 9f2c1aa2b3c4d5e6f708192a3b4c5d6e7f809102", 300, 800))

    tail: list = []
    edited = sorted({fd.split("\n", 1)[0][6:] for fd in _split_files(final_patch)})
    for path in edited:
        tail.append(("edit", path))
    if kind in ("resolved", "git_hack", "test_edit_cheat"):
        tail.append(("pytest_pass", test_file))
    elif reproduce and final_patch:
        tail.append(("pytest_fail", test_file))
    if rng.random() < 0.7:
        tail.append(("finish", None))

    # A trajectory at its turn budget carries no prunable steps: pruning
    # would leave it under budget, and its raw turn count over budget.
    while len(s.steps) + len(tail) < n_steps:
        _filler(s, pr, decoys, allow_pruned=kind != "ran_out_of_max_turns")
    for what, arg in tail:
        if what == "edit":
            s.edit(arg)
        elif what == "pytest_pass":
            s.bash(f"python -m pytest {arg} -q", _passing_pytest(rng, arg))
        elif what == "pytest_fail":
            s.bash(f"python -m pytest {arg} -q", _failing_pytest(rng, pr))
        else:
            s.finish()

    kept = len(s.steps) - s.pruned
    max_turns = kept if kind == "ran_out_of_max_turns" else MAX_TURNS
    tests_pass = kind in ("resolved", "git_hack", "test_edit_cheat")
    results = {t: ("pass" if tests_pass else "fail") for t in pr.f2p}
    results.update({t: "pass" for t in pr.p2p})
    record = {
        "trajectory_id": tid,
        "instance_id": pr.instance_id,
        "steps": s.steps,
        "final_patch": final_patch,
        "turn_count": len(s.steps),
        "outcome": "unclassified",
        "max_turns": max_turns,
    }
    report = {"trajectory_id": tid, "code_state": "final", "results": results}
    facts = {
        "empty": not final_patch,
        "tests_pass": tests_pass,
        "cheat": kind == "test_edit_cheat",
        "high_hack": kind == "git_hack",
        "all_golden_touched": touched == len(golden),
        "reproduced": reproduce,
        "viewed_all": view_all or touched == len(golden),
        "overlap": touched > 0,
        "out_of_turns": kept >= max_turns,
    }
    return record, report, facts


def _split_files(patch: str) -> list[str]:
    if not patch:
        return []
    return ["--- " + chunk for chunk in patch.split("--- ")[1:]]


def expected_outcome(f: dict) -> str:
    """The paper's outcome classification order, over planted facts."""
    if f["empty"]:
        return "empty_patch"
    if f["tests_pass"]:
        return "unresolved" if f["cheat"] or f["high_hack"] else "resolved"
    return "semi_resolved" if f["all_golden_touched"] else "unresolved"


def expected_failure_label(f: dict) -> str:
    """The paper's failure-taxonomy cascade, over planted facts."""
    if not f["reproduced"]:
        return "failed_to_reproduce"
    if not f["viewed_all"]:
        return "read_localization_error"
    if not f["overlap"]:
        return "write_localization_error"
    if f["out_of_turns"]:
        return "ran_out_of_max_turns"
    return "incorrect_implementation"


# ---------------------------------------------------------------------------
# Other inputs


def _make_prs(rng: random.Random, shape: Shape) -> tuple[list[dict], list[_Pr]]:
    records, prs = [], []
    slug = REPO.replace("/", "__")
    for number in range(1, shape.prs + 1):
        package = f"pkg{number % 17}"
        n_files = rng.randint(*shape.pr_files)
        files = [f"src/{package}/mod{number}_{j}.py" for j in range(n_files)]
        diffs = [_hunk_diff(rng, path, rng.randrange(1, 4)) for path in files]
        test_mod = f"tests/{package}/test_mod{number}.py"
        f2p = [f"{test_mod}::test_fix_{number}_{i}" for i in range(rng.randrange(1, 4))]
        p2p = [f"{test_mod}::test_keep_{number}_{i}" for i in range(rng.randrange(2, 12))]
        invisible = number % 25 == 0  # pre and post agree: an invisible bug, skipped
        pre = {t: ("pass" if invisible else "fail") for t in f2p}
        pre.update({t: "pass" for t in p2p})
        records.append(
            {
                "repo": REPO,
                "base_commit": f"{rng.getrandbits(160):040x}",
                "number": number,
                "merged_diff": "".join(diffs),
                "issue_text": _pad(rng, f"{_ident(rng)} returns the wrong value", 200, 800),
                "issue_created_at": f"2023-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}T"
                                    f"{rng.randrange(24):02d}:{rng.randrange(60):02d}:00+00:00",
                "pre_report": {"code_state": "pre_patch", "results": pre},
                "post_report": {"code_state": "post_patch", "results": {t: "pass" for t in [*f2p, *p2p]}},
            }
        )
        if not invisible:
            prs.append(_Pr(number, f"{slug}-pr{number}", files, diffs, f2p, p2p, package))
    return records, prs


_FUNCTION = """def fn_{m}_{f}(a, b, items):
    total = a + b * {c1}
    if a < b and b != {c2}:
        total = total - {c3}
    else:
        total = total / {c4}
    for item in items:
        if item > total:
            total = total + item
    while total >= {c5}:
        total = total - {c6}
    return total


"""

_OPERATOR_NODES = ("BinOp", "Compare", "BoolOp")


def _make_snapshot(rng: random.Random, shape: Shape, snapshot_dir: Path) -> list[dict]:
    """Write the snapshot modules and return one mutation spec per distinct node."""
    candidates = []
    tests_by_module = {}
    for m in range(shape.modules):
        source = "".join(
            _FUNCTION.format(m=m, f=f, **{f"c{i}": rng.randrange(1, 99) for i in range(1, 7)})
            for f in range(shape.functions_per_module)
        )
        path = f"widgets/mod{m}.py"
        (snapshot_dir / "widgets").mkdir(parents=True, exist_ok=True)
        (snapshot_dir / path).write_text(source, encoding="utf-8")
        tests_by_module[path] = [f"tests/test_mod{m}.py::test_fn_{m}_{f}" for f in range(shape.functions_per_module)]
        for node in ast.walk(ast.parse(source)):
            name = type(node).__name__
            if name in _OPERATOR_NODES:
                mutator = "operator_swap"
            elif name == "If":
                mutator = "conditional_removal"
            elif name in ("For", "While"):
                mutator = "loop_removal"
            else:
                continue
            span = {"path": path, "start_line": node.lineno, "start_col": node.col_offset,
                    "end_line": node.end_lineno, "end_col": node.end_col_offset}
            candidates.append((mutator, span))
    (snapshot_dir / "tests").mkdir(parents=True, exist_ok=True)
    (snapshot_dir / "tests" / "test_widgets.py").write_text(
        "from widgets.mod0 import fn_0_0\n\n\ndef test_fn():\n    assert fn_0_0(1, 2, []) is not None\n",
        encoding="utf-8",
    )
    specs = []
    for i, (mutator, span) in enumerate(rng.sample(candidates, shape.mutations)):
        tests = tests_by_module[span["path"]]
        failing = set(rng.sample(tests, rng.randrange(1, 3))) if i % 10 != 9 else set()
        specs.append(
            {
                "mutator": mutator,
                "target": span,
                "seed": i,
                "buggy_report": {"code_state": "buggy",
                                 "results": {t: ("fail" if t in failing else "pass") for t in tests}},
                "restored_report": {"code_state": "restored", "results": {t: "pass" for t in tests}},
            }
        )
    return specs


def _make_histories(rng: random.Random, shape: Shape, prs: list[_Pr]) -> list[dict]:
    out = []
    for h in range(shape.histories):
        if h % 10 == 9:
            commits = [
                {"commit_id": f"{rng.getrandbits(160):040x}", "author_date": "2023-01-01T00:00:00Z",
                 "message": "import", "parent_ids": []}
                for _ in range(rng.randrange(2, 6))
            ]
            out.append({"instance_id": f"synthetic-{h}", "policy": "single_snapshot",
                        "snapshot_id": f"snap-{h}", "commits": commits})
            continue
        commits = []
        day = 0
        for c in range(shape.commits):
            day += rng.randrange(0, 3)
            parents = [commits[-1]["commit_id"]] if commits else []
            if c > 10 and c % 9 == 0:
                parents.append(commits[-rng.randrange(2, 9)]["commit_id"])
            suffix = rng.choice(("Z", "+00:00", "+02:00", "-05:00"))
            commits.append(
                {
                    "commit_id": f"{rng.getrandbits(160):040x}",
                    "author_date": f"{2021 + day // 336}-{1 + day // 28 % 12:02d}-{1 + day % 28:02d}T"
                                   f"{rng.randrange(24):02d}:{rng.randrange(60):02d}:{rng.randrange(60):02d}{suffix}",
                    "message": f"{rng.choice(_WORDS)}: {_ident(rng)} {rng.choice(_WORDS)}",
                    "parent_ids": parents,
                }
            )
        cutoff = commits[int(len(commits) * 0.7)]["author_date"]
        out.append({"instance_id": prs[h % len(prs)].instance_id, "policy": "cutoff",
                    "cutoff": cutoff, "commits": commits})
    return out


def _make_rollouts(rng: random.Random, shape: Shape) -> list[dict]:
    out = []
    for i in range(shape.rollout_instances):
        instance_id = f"{REPO.replace('/', '__')}-tts{i}"
        for k in range(shape.rollouts_k):
            out.append(
                {
                    "instance_id": instance_id,
                    "rollout_index": k,
                    "trajectory_summary": _pad(rng, f"rollout {k} for {instance_id}", 200, 600),
                    "final_patch": _hunk_diff(rng, f"src/pkg{i % 17}/mod{i}.py", 1),
                    "resolved": rng.random() < 0.35,
                }
            )
    return out


def _surface() -> list[dict]:
    out = []
    for turns in (40, 80, 140, 180):
        for rollouts in (1, 2, 4, 8):
            base = {40: 0.30, 80: 0.38, 140: 0.42, 180: 0.42}[turns]
            out.append({"turns": turns, "rollouts": rollouts,
                        "rate": round(base + 0.03 * (rollouts.bit_length() - 1), 4)})
    return out


def _write_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n")


def _stratified(rng: random.Random, n: int, low: int, high: int) -> list[int]:
    values = [low + (high - low) * i // max(n - 1, 1) for i in range(n)]
    rng.shuffle(values)
    return values


def generate(root: Path, workload: str, seed: int) -> Reference:
    """Write the corpus for (workload, seed) under `root` and return its reference."""
    shape = SHAPES[workload]
    rng = random.Random(f"lego-forge-bench:{workload}:{seed}")
    root.mkdir(parents=True, exist_ok=True)

    pr_records, prs = _make_prs(rng, shape)
    _write_jsonl(root / "real_inputs.jsonl", pr_records)
    _write_jsonl(root / "mutations.jsonl", _make_snapshot(rng, shape, root / "snapshot"))
    _write_jsonl(root / "histories.jsonl", _make_histories(rng, shape, prs))
    _write_jsonl(root / "rollouts.jsonl", _make_rollouts(rng, shape))
    _write_jsonl(root / "surface.jsonl", _surface())

    n = shape.trajectories
    kinds = []
    for kind, share in KIND_SHARES:
        kinds += [kind] * round(n * share)
    kinds += ["resolved"] * (n - len(kinds))
    rng.shuffle(kinds)
    lengths = _stratified(rng, n, 30, 100)
    decoys = [f"src/shared/util{i}.py" for i in range(12)]
    counts = {"resolved": 0, "semi_resolved": 0, "unresolved": 0, "error": 0,
              "empty_patch": 0, "unclassified": 0}
    labels: dict[str, str] = {}
    trajectories, reports = [], []
    for i, (kind, length) in enumerate(zip(kinds, lengths)):
        tid = f"traj-{i:05d}"
        pr = prs[i % len(prs)]
        helper_diff = _hunk_diff(rng, f"src/{pr.package}/helpers.py", rng.randrange(1, 3))
        test_diff = _hunk_diff(rng, pr.f2p[0].split("::")[0], 1)
        record, report, facts = _plant_trajectory(rng, tid, kind, length, pr, decoys, helper_diff, test_diff)
        trajectories.append(record)
        reports.append(report)
        outcome = expected_outcome(facts)
        counts[outcome] += 1
        if outcome in ("unresolved", "empty_patch"):
            labels[tid] = expected_failure_label(facts)
    _write_jsonl(root / "trajectories.jsonl", trajectories)
    _write_jsonl(root / "final_reports.jsonl", reports)

    config = root / "forge.cfg"
    config.write_text(
        "\n".join(
            [
                "# generated by bench/corpus.py",
                "out_dir = out",
                f"repo = {REPO}",
                f"base_commit = {BASE_COMMIT}",
                "real_inputs = real_inputs.jsonl",
                "snapshot_dir = snapshot",
                "mutations = mutations.jsonl",
                "histories = histories.jsonl",
                "trajectories = trajectories.jsonl",
                "final_reports = final_reports.jsonl",
                "rollouts = rollouts.jsonl",
                "surface = surface.jsonl",
                "latency_budget = 3000",
                "recycle_semi_resolved = true",
                "",
            ]
        ),
        encoding="utf-8",
    )
    return Reference(config=config, out_dir=root / "out", outcome_counts=counts, failure_labels=labels)


if __name__ == "__main__":
    # `python3 corpus.py ROOT WORKLOAD SEED`: write the corpus, print the reference.
    import sys

    print(generate(Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])).to_json())
