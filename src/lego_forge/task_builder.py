"""Assembles task instances from real PRs and deterministic bug injection.

Test labels are derived by differencing pre/post test reports. Synthetic
bugs are injected through syntax-tree-guided source splicing: the tree
provider parses a file, enumerates eligible nodes, and the mutator rewrites
the exact character span of the chosen node. Splicing the original text
(rather than re-printing the tree) keeps the round-trip lossless and the
injection diff minimal. A provider parses each snapshot file once and keeps
that tree, with its target index, line table and operator tokens, for every
later mutation of the file. Spans are ast positions, whose columns count
UTF-8 bytes; they are converted to character offsets on lines broken where
the ast breaks them (at \\n, \\r\\n and \\r, not at form feeds or U+2028).
Snapshots are read with their line endings kept, and the injection diff is
made by git's line rule (see patch_analysis), so it applies to the files on
disk.

Mutators and their fixed rules:
- operator_swap: arithmetic + <-> -, * <-> /; comparison < <-> >=, > <-> <=,
  == <-> !=; boolean and <-> or.
- conditional_removal: an if-statement is replaced by its else branch when
  one exists, otherwise deleted (a lone statement becomes `pass` so the
  block stays parseable).
- loop_removal: the loop statement is deleted, post-loop code kept.

The seed selects among eligible targets when a MutationSpec carries no
explicit target; identical (tree, spec) inputs always produce identical
output.
"""

from __future__ import annotations

import ast
import hashlib
import random
import tokenize
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import accumulate
from pathlib import Path
from typing import Mapping, Sequence

from .errors import ForgeError
from .patch_analysis import (
    Patch,
    invert_patch,
    make_patch,
    parse_patch,
    patch_stats,
    render_patch,
)
from .schema import TaskInstance, TestReport, of_type, optional, parse_timestamp, require, validate_instance

SWAP_TABLE = {
    "+": "-",
    "-": "+",
    "*": "/",
    "/": "*",
    "<": ">=",
    ">=": "<",
    ">": "<=",
    "<=": ">",
    "==": "!=",
    "!=": "==",
    "and": "or",
    "or": "and",
}

SYNTHETIC_EPOCH = "1970-01-01T00:00:00+00:00"

_BINOP_SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_CMP_SYMBOLS = {ast.Lt: "<", ast.Gt: ">", ast.Eq: "==", ast.NotEq: "!=", ast.GtE: ">=", ast.LtE: "<="}
_BOOL_SYMBOLS = {ast.And: "and", ast.Or: "or"}


class MutationError(ForgeError):
    """The mutation could not be applied or produced no change."""


class LocatorError(MutationError):
    """The mutation target does not exist in the tree."""


class MutatorKindError(MutationError):
    """The target exists but is not the mutator's node kind."""


class InvisibleBugError(ForgeError, ValueError):
    """The injected or fixed bug changes no test outcome; the instance is unusable."""


@dataclass(frozen=True)
class NodeLocator:
    """File path plus the character span of one syntax-tree node."""

    path: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int
    kind: str = ""
    detail: str = ""

    def span(self) -> tuple[int, int, int, int]:
        return (self.start_line, self.start_col, self.end_line, self.end_col)

    @classmethod
    def from_record(cls, record: dict) -> "NodeLocator":
        """A mutations line's `target` object; raises ValueError unless it
        has a string path and integer span fields."""
        if not all(of_type(record.get(key), kind) for key, kind in _LOCATOR_FIELDS.items()):
            raise ValueError(f"field 'target' must be an object with {', '.join(_LOCATOR_FIELDS)}")
        return cls(**{key: record[key] for key in _LOCATOR_FIELDS})


_LOCATOR_FIELDS = {"path": str, "start_line": int, "start_col": int, "end_line": int, "end_col": int}


@dataclass(frozen=True)
class MutationSpec:
    """Which mutator to run and where. A None target is a wildcard resolved
    by the seed; `path` optionally narrows a wildcard to one file."""

    mutator: str
    target: NodeLocator | None = None
    seed: int = 0
    path: str | None = None

    @classmethod
    def from_record(
        cls, record: dict, default_seed: int
    ) -> tuple["MutationSpec", tuple[TestReport, TestReport]]:
        """One mutations line: the spec and its (buggy, restored) test
        reports. A line without `seed` takes `default_seed`, and a null or
        absent `target` is a wildcard. Raises ValueError when a field is
        missing or has the wrong type."""
        mutator = require(record, "mutator", str)
        if mutator not in MUTATORS:
            raise ValueError(f"unknown mutator {mutator!r}")
        target = optional(record, "target", (dict, type(None)))
        spec = cls(
            mutator=mutator,
            target=None if target is None else NodeLocator.from_record(target),
            seed=optional(record, "seed", int, default_seed),
            path=optional(record, "path", (str, type(None))),
        )
        return spec, _reports(record, "buggy_report", "restored_report")


def _reports(record: dict, *keys: str) -> tuple[TestReport, ...]:
    return tuple(TestReport.from_record(require(record, key, dict)) for key in keys)


# ---------------------------------------------------------------------------
# Test-label derivation


def derive_test_labels(pre: TestReport, post: TestReport) -> tuple[list[str], list[str]]:
    """Difference two test reports into (fail_to_pass, pass_to_pass).

    A test is fail_to_pass when it fails or errors before and passes after;
    pass_to_pass when it passes in both states. "error" counts as a failure.
    Tests absent from either report are excluded. Both lists come back
    sorted, and no test can appear in both.
    """
    if pre.code_state not in ("pre_patch", "buggy"):
        raise ValueError(f"pre report has code_state {pre.code_state!r}")
    if post.code_state not in ("post_patch", "restored"):
        raise ValueError(f"post report has code_state {post.code_state!r}")
    shared = set(pre.results) & set(post.results)
    fail_to_pass = sorted(
        t for t in shared if pre.results[t] in ("fail", "error") and post.results[t] == "pass"
    )
    pass_to_pass = sorted(
        t for t in shared if pre.results[t] == "pass" and post.results[t] == "pass"
    )
    return fail_to_pass, pass_to_pass


# ---------------------------------------------------------------------------
# Python syntax trees


@dataclass(frozen=True)
class PythonSyntaxTree:
    """A parsed Python file that keeps its exact source text, so rendering
    an unmutated tree is byte-identical to the input. The lines, targets and
    operator tokens a mutation looks up are derived once, on first use."""

    path: str
    source: str
    root: ast.Module = field(repr=False, compare=False, default=None)

    @cached_property
    def lines(self) -> list[str]:
        """Source lines with their endings, broken where the ast breaks them
        (not at form feeds or U+2028, which would shift every later span)."""
        lines: list[str] = []
        pending = ""
        for piece in self.source.splitlines(keepends=True):
            pending += piece
            if piece.endswith(("\n", "\r")):
                lines.append(pending)
                pending = ""
        if pending:
            lines.append(pending)
        return lines

    @cached_property
    def line_starts(self) -> list[int]:
        return list(accumulate(map(len, self.lines), initial=0))

    def column(self, lineno: int, col: int) -> int:
        """The character column of an ast column, which counts UTF-8 bytes."""
        return len(self.lines[lineno - 1].encode("utf-8")[:col].decode("utf-8"))

    def offset(self, lineno: int, col: int) -> int:
        """The character offset in `source` of an ast (line, column)."""
        return self.line_starts[lineno - 1] + self.column(lineno, col)

    @cached_property
    def targets(self) -> dict[tuple[int, int, int, int], list[tuple[str, ast.AST]]]:
        """Every mutable node as (kind, node), keyed by span, in ast.walk order."""
        targets: dict[tuple[int, int, int, int], list[tuple[str, ast.AST]]] = {}
        for node in ast.walk(self.root):
            kind = _kind_of(self, node)
            if kind is not None:
                span = (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset)
                targets.setdefault(span, []).append((kind, node))
        return targets

    @cached_property
    def operator_tokens(self) -> tuple[list[int], list[str]]:
        """Start offsets and strings of the tokens a swap can rewrite, in
        source order. Token positions never point inside comments or strings."""
        starts: list[int] = []
        strings: list[str] = []
        for tok in tokenize.generate_tokens(partial(next, iter(self.lines), "")):
            if tok.string in SWAP_TABLE and tok.type in (tokenize.OP, tokenize.NAME):
                starts.append(self.line_starts[tok.start[0] - 1] + tok.start[1])
                strings.append(tok.string)
        return starts, strings


class PythonAstProvider:
    """Tree provider backed by the stdlib ast module with source splicing.

    The provider keeps the first tree it parses for each path and returns it
    again while the source is equal, so a snapshot file is parsed, indexed
    and tokenized once however many mutations target it. Later trees of a
    path (the mutated sources) are returned but never kept."""

    def __init__(self) -> None:
        self._first: dict[str, PythonSyntaxTree] = {}

    def parse(self, path: str, source: str) -> PythonSyntaxTree:
        kept = self._first.get(path)
        if kept is not None and kept.source == source:
            return kept
        try:
            root = ast.parse(source)
        except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:  # NUL byte on 3.10; too deep
            raise MutationError(f"{path}: cannot parse: {str(exc) or type(exc).__name__}") from exc
        tree = PythonSyntaxTree(path=path, source=source, root=root)
        self._first.setdefault(path, tree)
        return tree

    def enumerate(self, tree: PythonSyntaxTree, kind: str) -> list[NodeLocator]:
        """List mutable nodes of one kind: operator, conditional, or loop."""
        locators = [
            _make_locator(tree.path, node, kind, _operator_symbol(node) or "")
            for found in tree.targets.values()
            for node_kind, node in found
            if node_kind == kind
        ]
        locators.sort(key=lambda loc: loc.span())
        return locators


def _kind_of(tree: PythonSyntaxTree, node: ast.AST) -> str | None:
    if _operator_symbol(node) is not None:
        return "operator"
    if isinstance(node, ast.If):
        return None if _is_elif(tree, node) else "conditional"
    if isinstance(node, (ast.For, ast.While, ast.AsyncFor)):
        return "loop"
    return None


def _operator_symbol(node: ast.AST) -> str | None:
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOP_SYMBOLS:
        return _BINOP_SYMBOLS[type(node.op)]
    if isinstance(node, ast.Compare) and len(node.ops) == 1 and type(node.ops[0]) in _CMP_SYMBOLS:
        return _CMP_SYMBOLS[type(node.ops[0])]
    if isinstance(node, ast.BoolOp) and type(node.op) in _BOOL_SYMBOLS:
        return _BOOL_SYMBOLS[type(node.op)]
    return None


def _make_locator(path: str, node: ast.AST, kind: str, detail: str = "") -> NodeLocator:
    return NodeLocator(
        path=path,
        start_line=node.lineno,
        start_col=node.col_offset,
        end_line=node.end_lineno,
        end_col=node.end_col_offset,
        kind=kind,
        detail=detail,
    )


def _is_elif(tree: PythonSyntaxTree, node: ast.If) -> bool:
    return tree.source.startswith("elif", tree.offset(node.lineno, node.col_offset))


_KIND_FOR_MUTATOR = {
    "operator_swap": "operator",
    "conditional_removal": "conditional",
    "loop_removal": "loop",
}
MUTATORS = tuple(_KIND_FOR_MUTATOR)


# ---------------------------------------------------------------------------
# Mutation application


def _operator_token_start(tree: PythonSyntaxTree, window: tuple[int, int], symbol: str) -> int:
    # A token, unlike a raw text search over the operand gap, is never inside
    # a comment or a string.
    starts, strings = tree.operator_tokens
    i = bisect_left(starts, window[0])
    while i < len(starts) and starts[i] < window[1]:
        if strings[i] == symbol:
            return starts[i]
        i += 1
    return -1


def _swap_operator(tree: PythonSyntaxTree, node: ast.AST) -> str:
    symbol = _operator_symbol(node)
    if isinstance(node, ast.BinOp):
        left, right = node.left, node.right
    elif isinstance(node, ast.Compare):
        left, right = node.left, node.comparators[0]
    else:
        left, right = node.values[0], node.values[1]
    window = (
        tree.offset(left.end_lineno, left.end_col_offset),
        tree.offset(right.lineno, right.col_offset),
    )
    start = _operator_token_start(tree, window, symbol)
    if start < 0:
        raise MutationError(f"{tree.path}: operator {symbol!r} not found in its expression")
    source = tree.source
    return source[:start] + SWAP_TABLE[symbol] + source[start + len(symbol):]


def _containing_block(root: ast.Module, node: ast.AST) -> tuple[ast.AST, list] | None:
    for parent in ast.walk(root):
        for _, value in ast.iter_fields(parent):
            if isinstance(value, list) and any(child is node for child in value):
                return parent, value
    return None


def _remove_statement(tree: PythonSyntaxTree, node: ast.AST) -> str:
    lines = tree.lines
    replacement: list[str] = []
    if isinstance(node, ast.If) and node.orelse:
        replacement = _else_branch_lines(tree, node)
    else:
        found = _containing_block(tree.root, node)
        if found is not None:
            parent, block = found
            if len(block) == 1 and not isinstance(parent, ast.Module):
                replacement = [f"{_indent(tree, node)}pass{_line_ending(tree, node.end_lineno)}"]
    return "".join(lines[: node.lineno - 1] + replacement + lines[node.end_lineno:])


def _indent(tree: PythonSyntaxTree, node: ast.AST) -> str:
    """The indentation text of the line a statement starts, tabs included."""
    return tree.lines[node.lineno - 1][: node.col_offset]


def _line_ending(tree: PythonSyntaxTree, lineno: int) -> str:
    """The ending of a source line: \\n, \\r\\n, \\r, or none on a last line without one."""
    line = tree.lines[lineno - 1]
    return line[len(line.rstrip("\r\n")):]


def _else_branch_lines(tree: PythonSyntaxTree, node: ast.If) -> list[str]:
    lines = tree.lines
    first = node.orelse[0]
    last = node.orelse[-1]
    col = tree.column(first.lineno, first.col_offset)
    if isinstance(first, ast.If) and _is_elif(tree, first):
        # Keep the elif chain, promoting its head to a plain if.
        out = lines[first.lineno - 1 : node.end_lineno]
        out[0] = out[0][:col] + "if" + out[0][col + len("elif"):]
        return out
    if lines[first.lineno - 1][:col].strip():
        # Inline else ("else: stmt"): splice the statement text onto its own line.
        start = tree.offset(first.lineno, first.col_offset)
        end = tree.offset(last.end_lineno, last.end_col_offset)
        return [_indent(tree, node) + tree.source[start:end] + _line_ending(tree, last.end_lineno)]
    dedent = first.col_offset - node.col_offset
    out = []
    for line in lines[first.lineno - 1 : last.end_lineno]:
        if line.strip() and line[:dedent].isspace():
            out.append(line[dedent:])
        else:
            out.append(line)
    return out


def inject_bug(
    tree: PythonSyntaxTree,
    spec: MutationSpec,
    provider: PythonAstProvider | None = None,
) -> tuple[PythonSyntaxTree, Patch]:
    """Apply one mutation to a parsed file and return the mutated tree plus
    the injection diff. Deterministic given (tree, spec)."""
    provider = provider or PythonAstProvider()
    if spec.mutator not in MUTATORS:
        raise MutationError(f"unknown mutator {spec.mutator!r}")
    kind = _KIND_FOR_MUTATOR[spec.mutator]
    span = resolve_target({tree.path: tree.source}, spec, provider)[1].span()

    # The first node in walk order of the mutator's kind at that span.
    found = tree.targets.get(span, [])
    kinds = [node_kind for node_kind, _ in found]
    if kind not in kinds:
        if kinds:
            raise MutatorKindError(f"target at {span} is a {kinds[0]}, not a {kind} ({spec.mutator})")
        raise LocatorError(f"{tree.path}: no node at span {span}")
    node = found[kinds.index(kind)][1]
    if spec.mutator == "operator_swap":
        mutated_source = _swap_operator(tree, node)
    else:
        mutated_source = _remove_statement(tree, node)
    if mutated_source == tree.source:
        raise MutationError(f"{tree.path}: mutation produced no change")
    mutated_tree = provider.parse(tree.path, mutated_source)
    injection = parse_patch(make_patch(tree.source, mutated_source, tree.path))
    return mutated_tree, injection


def resolve_target(
    snapshot: Mapping[str, str],
    spec: MutationSpec,
    provider: PythonAstProvider | None = None,
) -> tuple[str, NodeLocator]:
    """Pick the concrete (path, locator) for a spec against a whole snapshot.

    Explicit targets are returned as-is after existence checks; wildcards
    enumerate eligible nodes across the snapshot's Python files (or the one
    file named by spec.path) and select by seed.
    """
    provider = provider or PythonAstProvider()
    kind = _KIND_FOR_MUTATOR[spec.mutator]
    if spec.target is not None:
        if spec.target.path not in snapshot:
            raise LocatorError(f"target file {spec.target.path!r} not in snapshot")
        return spec.target.path, spec.target
    if spec.path is not None:
        paths = [spec.path]
        if spec.path not in snapshot:
            raise LocatorError(f"file {spec.path!r} not in snapshot")
    else:
        paths = sorted(p for p in snapshot if p.endswith(".py"))
    candidates: list[tuple[str, NodeLocator]] = []
    for path in paths:
        try:
            tree = provider.parse(path, snapshot[path])
        except MutationError:
            continue
        candidates.extend((path, loc) for loc in provider.enumerate(tree, kind))
    if not candidates:
        raise LocatorError(f"no eligible {kind} targets in snapshot")
    return random.Random(spec.seed).choice(candidates)


# ---------------------------------------------------------------------------
# Problem statements


class TemplateStatementProvider:
    """Deterministic statement generator: first failing test as the title,
    then a fixed template listing the observed failures. Never includes any
    diff text, so the golden fix cannot leak into the statement."""

    def generate(self, failing_tests: Sequence[str], logs: Sequence[str]) -> str:
        if not failing_tests:
            raise ValueError("at least one failing test is required")
        title = failing_tests[0].split("::")[-1].split(".")[-1]
        lines = [f"{title} fails", ""]
        lines.append("The following tests fail on the current revision:")
        lines.extend(f"- {t}" for t in failing_tests)
        lines.append("")
        lines.append("Observed output:")
        if logs:
            lines.extend(f"    {entry}" for entry in logs)
        else:
            lines.append("    (no captured output)")
        lines.append("")
        lines.append(
            "The failures are reproducible on a clean checkout. A fix should make "
            "these tests pass without breaking the rest of the suite."
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Instance assembly


def _repo_slug(repo: str) -> str:
    return repo.replace("/", "__")


def shared_image_name(repo: str, base_commit: str) -> str:
    """Sandbox id shared by every synthetic instance of one (repo, commit)."""
    return f"sandbox.{_repo_slug(repo)}.{base_commit[:12]}"


def build_synthetic_instance(
    repo_snapshot: Mapping[str, str],
    spec: MutationSpec,
    reports: tuple[TestReport, TestReport],
    statements: TemplateStatementProvider,
    *,
    repo: str,
    base_commit: str,
    provider: PythonAstProvider | None = None,
) -> TaskInstance:
    """Build one synthetic instance by injecting a bug into the snapshot.

    `reports` is (buggy, restored): the suite run on the mutated tree and on
    the clean tree. The golden patch is the inverse of the injection diff,
    so applying it to the buggy snapshot restores the clean snapshot
    byte-exactly. Raises InvisibleBugError when no test changes status.
    """
    provider = provider or PythonAstProvider()
    buggy_report, restored_report = reports
    fail_to_pass, pass_to_pass = derive_test_labels(buggy_report, restored_report)
    if not fail_to_pass:
        raise InvisibleBugError(
            f"{spec.mutator} mutation (seed {spec.seed}) changes no test outcome"
        )

    path, locator = resolve_target(repo_snapshot, spec, provider)
    tree = provider.parse(path, repo_snapshot[path])
    _, injection = inject_bug(tree, replace(spec, target=locator, path=None), provider)
    injection_text = render_patch(injection)
    golden_patch = render_patch(invert_patch(injection))

    logs = [f"{t}: {buggy_report.results[t]}" for t in fail_to_pass]
    statement = statements.generate(fail_to_pass, logs)

    digest = hashlib.sha256(
        f"{path}:{locator.span()}:{spec.mutator}".encode("utf-8")
    ).hexdigest()[:8]
    instance = TaskInstance(
        instance_id=f"{_repo_slug(repo)}-{base_commit[:8]}-{spec.mutator}-{spec.seed:04d}-{digest}",
        repo=repo,
        base_commit=base_commit,
        origin="synthetic",
        problem_statement=statement,
        golden_patch=golden_patch,
        fail_to_pass=tuple(fail_to_pass),
        pass_to_pass=tuple(pass_to_pass),
        image_name=shared_image_name(repo, base_commit),
        created_at=SYNTHETIC_EPOCH,
        extra={
            "history_policy": "single_snapshot",
            "injection_patch": injection_text,
            "target_path": path,
        },
    )
    violations = validate_instance(instance)
    if violations:
        raise ForgeError(f"built instance fails validation: {violations}")
    return instance


def build_real_instance(record: dict) -> TaskInstance:
    """Build one real instance from one real_inputs line: a merged PR
    (repo, base_commit, merged_diff, issue_text, issue_created_at, optionally
    number) with its pre_report and post_report. The merged diff is the
    golden patch and the linked issue is the problem statement. Raises
    ValueError for a missing or mistyped field, PatchParseError for a diff
    that does not parse and InvisibleBugError when no test changes status.
    """
    repo, base_commit, merged_diff, issue_text, created_at = (
        require(record, key, str)
        for key in ("repo", "base_commit", "merged_diff", "issue_text", "issue_created_at")
    )
    parse_timestamp(created_at)
    number = optional(record, "number", (int, type(None)))
    pre, post = _reports(record, "pre_report", "post_report")
    if not issue_text.strip():
        raise ValueError("issue text is empty")
    golden_stats = patch_stats(parse_patch(merged_diff))  # unparseable diffs fail here

    fail_to_pass, pass_to_pass = derive_test_labels(pre, post)
    if not fail_to_pass:
        raise InvisibleBugError("PR changes no test outcome")

    suffix = f"pr{number}" if number is not None else base_commit[:12]
    instance_id = f"{_repo_slug(repo)}-{suffix}"
    instance = TaskInstance(
        instance_id=instance_id,
        repo=repo,
        base_commit=base_commit,
        origin="real",
        problem_statement=issue_text,
        golden_patch=merged_diff,
        fail_to_pass=tuple(fail_to_pass),
        pass_to_pass=tuple(pass_to_pass),
        image_name=f"sandbox.{instance_id}",
        created_at=created_at,
        extra={
            "history_policy": "cutoff",
            "history_cutoff": created_at,
        },
    )
    object.__setattr__(instance, "golden_stats", golden_stats)
    violations = validate_instance(instance)
    if violations:
        raise ForgeError(f"built instance fails validation: {violations}")
    return instance


def read_snapshot(snapshot_dir: Path) -> dict[str, str]:
    """A clean repository snapshot: each UTF-8 text file's text by its
    posix path relative to `snapshot_dir`, line endings kept as on disk."""
    snapshot: dict[str, str] = {}
    for file_path in sorted(snapshot_dir.rglob("*")):
        if not file_path.is_file():
            continue
        rel = file_path.relative_to(snapshot_dir).as_posix()
        try:
            snapshot[rel] = file_path.read_bytes().decode("utf-8")
        except UnicodeDecodeError:
            continue  # binary assets play no part in mutation
    return snapshot
