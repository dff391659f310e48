"""Unified diff parsing, application, inversion, and overlap metrics.

A Patch is an immutable value: a list of FileDiffs, each holding hunks whose
lines carry a tag (' ', '-', '+') and the line text including its newline.
Parsing accepts diffs as emitted by git and difflib ("---/+++/@@" markers,
optional "diff --git"/"index"/mode lines, rename headers, and the
"\\ No newline at end of file" marker). Re-rendering a parsed patch applies
identically to the source tree.

Conventions used by the corpus statistics and overlap checks:
- "lines" counts added + removed, so a modified line counts twice;
- pure renames/mode changes are a FileDiff with zero hunks, counted in
  files but not hunks or lines;
- overlap coordinates are old-file line numbers, and context lines do not
  count as edited.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import ForgeError

DEV_NULL = "/dev/null"

_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")
_GIT_HEADER_RE = re.compile(r"^diff --git (?:a/)?(\S+) (?:b/)?(\S+)")
_NO_NEWLINE = "\\ No newline at end of file"
# Besides \n, \r\n and \r, str.splitlines() breaks at these, which a
# Python file may hold in a comment or a string. The ast does not.
_OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_SKIP_PREFIXES = (
    "index ",
    "old mode ",
    "new mode ",
    "new file mode ",
    "deleted file mode ",
    "similarity index ",
    "dissimilarity index ",
    "copy from ",
    "copy to ",
)


class PatchParseError(ForgeError):
    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


class PatchApplyError(ForgeError):
    pass


@dataclass(frozen=True)
class Hunk:
    """One contiguous change region. `lines` holds (tag, text-with-newline)."""

    old_start: int
    old_len: int
    new_start: int
    new_len: int
    lines: tuple[tuple[str, str], ...]

    @property
    def removed_lines(self) -> tuple[tuple[int, str], ...]:
        """Removed lines with their old-file line numbers."""
        out = []
        old_no = self.old_start
        for tag, text in self.lines:
            if tag == "-":
                out.append((old_no, text))
            if tag in (" ", "-"):
                old_no += 1
        return tuple(out)

    @property
    def added_lines(self) -> tuple[tuple[int, str], ...]:
        """Added lines with their new-file line numbers."""
        out = []
        new_no = self.new_start
        for tag, text in self.lines:
            if tag == "+":
                out.append((new_no, text))
            if tag in (" ", "+"):
                new_no += 1
        return tuple(out)


@dataclass(frozen=True)
class FileDiff:
    """Changes to one file. `old_path` is set when the old side differs
    (renames, creations from /dev/null, deletions to /dev/null)."""

    path: str
    hunks: tuple[Hunk, ...]
    old_path: str | None = None

    @property
    def source_path(self) -> str | None:
        """Old-side filesystem path, or None for file creations."""
        old = self.old_path if self.old_path is not None else self.path
        return None if old == DEV_NULL else old

    @property
    def target_path(self) -> str | None:
        """New-side filesystem path, or None for file deletions."""
        return None if self.path == DEV_NULL else self.path

    @property
    def display_path(self) -> str:
        """The path used for statistics and overlap keys."""
        if self.path != DEV_NULL:
            return self.path
        return self.old_path if self.old_path is not None else self.path


@dataclass(frozen=True)
class Patch:
    file_diffs: tuple[FileDiff, ...]


@dataclass(frozen=True)
class PatchStats:
    files: int
    hunks: int
    lines: int


# ---------------------------------------------------------------------------
# Parsing


def _strip_prefix(path: str) -> str:
    if path == DEV_NULL:
        return path
    if path.startswith(("a/", "b/")):
        return path[2:]
    return path


def _header_path(line: str, line_no: int) -> str:
    # "--- a/path<TAB>timestamp" is legal; take the first whitespace-delimited token.
    body = line[4:].rstrip("\n")
    token = body.split("\t")[0].strip()
    if not token:
        raise PatchParseError("empty path in file header", line_no)
    return _strip_prefix(token)


class _FileBuilder:
    def __init__(self):
        self.git_old: str | None = None
        self.git_new: str | None = None
        self.rename_from: str | None = None
        self.rename_to: str | None = None
        self.old_path: str | None = None
        self.new_path: str | None = None
        self.hunks: list[Hunk] = []

    def has_content(self) -> bool:
        return any(
            v is not None
            for v in (self.git_old, self.rename_from, self.old_path, self.new_path)
        ) or bool(self.hunks)

    def finish(self, line_no: int) -> FileDiff:
        old = self.old_path or self.rename_from or self.git_old
        new = self.new_path or self.rename_to or self.git_new
        if old is None and new is None:
            raise PatchParseError("file block with no paths", line_no)
        if old is None:
            old = new
        if new is None:
            new = old
        path = new if new != DEV_NULL else old
        old_field = old if old != path else None
        hunks = tuple(self.hunks)
        prev_end = 0
        for hunk in hunks:
            start = hunk.old_start if hunk.old_len else hunk.old_start + 1
            if start <= prev_end:
                raise PatchParseError(f"hunks overlap or are unsorted in {path}", line_no)
            prev_end = hunk.old_start + hunk.old_len - 1 if hunk.old_len else hunk.old_start
        return FileDiff(path=path, hunks=hunks, old_path=old_field)


def split_lines(text: str, keepends: bool = True) -> list[str]:
    """`text.splitlines(keepends)`, but broken only at \\n, \\r\\n and \\r,
    where the ast breaks Python source lines."""
    if not any(ch in text for ch in _OTHER_LINE_BREAKS):
        return text.splitlines(keepends)
    lines: list[str] = []
    pending = ""
    for piece in text.splitlines(keepends=True):
        pending += piece
        if piece.endswith(("\n", "\r")):
            lines.append(pending)
            pending = ""
    if pending:
        lines.append(pending)
    return lines if keepends else [line.rstrip("\r\n") for line in lines]


def parse_patch(text: str) -> Patch:
    """Parse unified diff text into a Patch.

    Empty input yields a Patch with no file diffs. Malformed hunk headers and
    hunk bodies that disagree with their declared counts raise PatchParseError
    with the offending line number.
    """
    lines = split_lines(text, keepends=False)
    file_diffs: list[FileDiff] = []
    builder: _FileBuilder | None = None
    preamble = True
    i = 0

    def flush(line_no: int):
        nonlocal builder
        if builder is not None and builder.has_content():
            file_diffs.append(builder.finish(line_no))
        builder = None

    while i < len(lines):
        line = lines[i]
        line_no = i + 1
        if line.startswith("diff --git"):
            flush(line_no)
            builder = _FileBuilder()
            match = _GIT_HEADER_RE.match(line)
            if match:
                builder.git_old = _strip_prefix(match.group(1))
                builder.git_new = _strip_prefix(match.group(2))
            preamble = False
            i += 1
        elif line.startswith("rename from "):
            if builder is None:
                builder = _FileBuilder()
            builder.rename_from = line[len("rename from "):].strip()
            i += 1
        elif line.startswith("rename to "):
            if builder is None:
                builder = _FileBuilder()
            builder.rename_to = line[len("rename to "):].strip()
            i += 1
        elif line.startswith("--- "):
            if builder is None or builder.old_path is not None or builder.hunks:
                flush(line_no)
                builder = _FileBuilder()
            builder.old_path = _header_path(line, line_no)
            preamble = False
            i += 1
        elif line.startswith("+++ "):
            if builder is None:
                raise PatchParseError("'+++' header without matching '---'", line_no)
            builder.new_path = _header_path(line, line_no)
            i += 1
        elif line.startswith("@@"):
            if builder is None:
                raise PatchParseError("hunk header outside any file block", line_no)
            match = _HUNK_RE.match(line)
            if not match:
                raise PatchParseError(f"malformed hunk header {line!r}", line_no)
            old_start = int(match.group(1))
            old_len = int(match.group(2)) if match.group(2) is not None else 1
            new_start = int(match.group(3))
            new_len = int(match.group(4)) if match.group(4) is not None else 1
            if (old_len and old_start < 1) or (new_len and new_start < 1):
                raise PatchParseError(
                    f"hunk header {line!r} has a zero start for a non-empty range", line_no
                )
            i += 1
            body: list[tuple[str, str]] = []
            old_done = new_done = 0
            while old_done < old_len or new_done < new_len:
                if i >= len(lines):
                    raise PatchParseError(
                        f"hunk body ends early: declared -{old_len}/+{new_len}, "
                        f"got {old_done}/{new_done}",
                        line_no,
                    )
                raw = lines[i]
                if raw.startswith("\\"):
                    if not body:
                        raise PatchParseError("dangling no-newline marker", i + 1)
                    tag, prev = body[-1]
                    body[-1] = (tag, prev.rstrip("\n"))
                    i += 1
                    continue
                tag, content = (raw[0], raw[1:]) if raw else (" ", "")
                if tag == " ":
                    old_done += 1
                    new_done += 1
                elif tag == "-":
                    old_done += 1
                elif tag == "+":
                    new_done += 1
                else:
                    raise PatchParseError(f"unexpected line in hunk body: {raw!r}", i + 1)
                if old_done > old_len or new_done > new_len:
                    raise PatchParseError(
                        f"hunk body exceeds declared counts -{old_len}/+{new_len}", i + 1
                    )
                body.append((tag, content + "\n"))
                i += 1
            if i < len(lines) and lines[i].startswith("\\"):
                tag, prev = body[-1]
                body[-1] = (tag, prev.rstrip("\n"))
                i += 1
            builder.hunks.append(
                Hunk(
                    old_start=old_start,
                    old_len=old_len,
                    new_start=new_start,
                    new_len=new_len,
                    lines=tuple(body),
                )
            )
        elif line.startswith("Binary files"):
            raise PatchParseError("binary diffs are not supported", line_no)
        elif line.startswith(_SKIP_PREFIXES):
            i += 1
        elif builder is not None and builder.hunks and line and line[0] in "+- ":
            raise PatchParseError(f"diff content outside any hunk: {line!r}", line_no)
        elif preamble or not line.strip():
            i += 1
        elif builder is None:
            # Commit-message style prose between file blocks.
            i += 1
        else:
            i += 1
    flush(len(lines))
    return Patch(file_diffs=tuple(file_diffs))


# ---------------------------------------------------------------------------
# Rendering and generation


def _format_header_path(path: str, side: str) -> str:
    return path if path == DEV_NULL else f"{side}/{path}"


def render_patch(patch: Patch) -> str:
    """Render a Patch back to unified diff text."""
    parts: list[str] = []
    for fd in patch.file_diffs:
        old = fd.old_path if fd.old_path is not None else fd.path
        if not fd.hunks:
            if old != fd.path:
                parts.append(f"diff --git a/{old} b/{fd.path}\n")
                parts.append(f"rename from {old}\n")
                parts.append(f"rename to {fd.path}\n")
            else:
                parts.append(f"diff --git a/{old} b/{fd.path}\n")
            continue
        parts.append(f"--- {_format_header_path(old, 'a')}\n")
        parts.append(f"+++ {_format_header_path(fd.path, 'b')}\n")
        for hunk in fd.hunks:
            parts.append(
                f"@@ -{hunk.old_start},{hunk.old_len} +{hunk.new_start},{hunk.new_len} @@\n"
            )
            for tag, text in hunk.lines:
                if text.endswith("\n"):
                    parts.append(f"{tag}{text}")
                else:
                    parts.append(f"{tag}{text}\n{_NO_NEWLINE}\n")
    return "".join(parts)


def make_patch(
    old_text: str,
    new_text: str,
    path: str,
    context: int = 3,
    old_path: str | None = None,
) -> str:
    """Produce unified diff text between two file contents."""
    a = split_lines(old_text)
    b = split_lines(new_text)
    from_path = old_path if old_path is not None else path
    raw = difflib.unified_diff(
        a,
        b,
        fromfile=_format_header_path(from_path, "a"),
        tofile=_format_header_path(path, "b"),
        n=context,
    )
    out = []
    for line in raw:
        if line.endswith("\n"):
            out.append(line)
        else:
            out.append(f"{line}\n{_NO_NEWLINE}\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Application


def _apply_hunks(fd: FileDiff, text: str) -> str:
    src = split_lines(text)
    out: list[str] = []
    pos = 0  # 0-based index into src
    for hunk in fd.hunks:
        anchor = hunk.old_start - 1 if hunk.old_len else hunk.old_start
        if anchor < pos:
            raise PatchApplyError(f"{fd.display_path}: overlapping hunks")
        if anchor > len(src):
            raise PatchApplyError(
                f"{fd.display_path}: hunk starts at line {hunk.old_start} "
                f"but file has {len(src)} lines"
            )
        out.extend(src[pos:anchor])
        pos = anchor
        for tag, content in hunk.lines:
            if tag == "+":
                out.append(content)
                continue
            if pos >= len(src):
                raise PatchApplyError(f"{fd.display_path}: hunk runs past end of file")
            if src[pos] != content:
                raise PatchApplyError(
                    f"{fd.display_path}:{pos + 1}: expected {content!r}, found {src[pos]!r}"
                )
            if tag == " ":
                out.append(content)
            pos += 1
    out.extend(src[pos:])
    return "".join(out)


def apply_patch(patch: Patch, files: Mapping[str, str]) -> dict[str, str]:
    """Apply a patch to a file map (path -> content), returning the new map.

    Handles modifications, creations, deletions, and renames. Context or
    removed lines that do not match raise PatchApplyError.
    """
    result = dict(files)
    for fd in patch.file_diffs:
        src = fd.source_path
        dst = fd.target_path
        if src is None:
            if dst in result:
                raise PatchApplyError(f"{dst}: file to create already exists")
            base = ""
        else:
            if src not in result:
                raise PatchApplyError(f"{src}: file not found")
            base = result.pop(src)
        new_text = _apply_hunks(fd, base)
        if dst is not None:
            result[dst] = new_text
        elif new_text:
            raise PatchApplyError(f"{src}: deletion leaves residual content")
    return result


# ---------------------------------------------------------------------------
# Inversion


def _invert_tag(tag: str) -> str:
    if tag == "+":
        return "-"
    if tag == "-":
        return "+"
    return tag


def invert_patch(patch: Patch) -> Patch:
    """Exchange added and removed roles so the inverse undoes the patch.

    Applying invert_patch(p) to a tree patched with p restores the original
    tree byte-exactly; invert_patch is an involution on the Patch value.
    """
    inverted_files = []
    for fd in patch.file_diffs:
        old = fd.old_path if fd.old_path is not None else fd.path
        new_path = old
        new_old = fd.path if fd.path != old else None
        hunks = tuple(
            Hunk(
                old_start=h.new_start,
                old_len=h.new_len,
                new_start=h.old_start,
                new_len=h.old_len,
                lines=tuple((_invert_tag(tag), text) for tag, text in h.lines),
            )
            for h in fd.hunks
        )
        inverted_files.append(FileDiff(path=new_path, hunks=hunks, old_path=new_old))
    return Patch(file_diffs=tuple(inverted_files))


# ---------------------------------------------------------------------------
# Statistics and overlap


def patch_stats(patch: Patch) -> PatchStats:
    """Count files, hunks, and changed lines (added + removed)."""
    hunk_count = sum(len(fd.hunks) for fd in patch.file_diffs)
    line_count = sum(
        len(h.removed_lines) + len(h.added_lines)
        for fd in patch.file_diffs
        for h in fd.hunks
    )
    return PatchStats(files=len(patch.file_diffs), hunks=hunk_count, lines=line_count)


def mean_patch_stats(stats: Sequence[PatchStats]) -> dict[str, float]:
    """Corpus-level averages of per-patch stats."""
    if not stats:
        return {"files": 0.0, "hunks": 0.0, "lines": 0.0}
    n = len(stats)
    return {
        "files": sum(s.files for s in stats) / n,
        "hunks": sum(s.hunks for s in stats) / n,
        "lines": sum(s.lines for s in stats) / n,
    }


def changed_line_map(patch: Patch) -> dict[str, set[int]]:
    """Edited line numbers per file, in old-file coordinates.

    Removed lines contribute their own old line number; added lines anchor
    at the old line they follow, so a remove-then-add replacement block
    counts each replaced line once. Context lines contribute nothing.
    """
    out: dict[str, set[int]] = {}
    for fd in patch.file_diffs:
        changed = out.setdefault(fd.display_path, set())
        for hunk in fd.hunks:
            # old_no is the next old line to consume; for pure insertions
            # old_start names the line before the insertion point.
            old_no = hunk.old_start if hunk.old_len else hunk.old_start + 1
            for tag, _ in hunk.lines:
                if tag == " ":
                    old_no += 1
                elif tag == "-":
                    changed.add(old_no)
                    old_no += 1
                else:
                    changed.add(old_no - 1)
    return out


@dataclass(frozen=True)
class OverlapReport:
    per_file: dict[str, tuple[int, ...]]
    total_overlap: int
    golden_files_touched: int
    golden_files_total: int


def line_overlap(edit: Patch, golden: Patch) -> OverlapReport:
    """Measure how an edit patch overlaps a golden patch.

    total_overlap is zero exactly when no edited line coincides with any
    golden-changed line; golden_files_touched counts golden files the edit
    also modifies.
    """
    edit_map = changed_line_map(edit)
    golden_map = changed_line_map(golden)
    per_file: dict[str, tuple[int, ...]] = {}
    total = 0
    touched = 0
    for path, golden_lines in golden_map.items():
        if path in edit_map:
            touched += 1
        shared = tuple(sorted(golden_lines & edit_map.get(path, set())))
        per_file[path] = shared
        total += len(shared)
    return OverlapReport(
        per_file=per_file,
        total_overlap=total,
        golden_files_touched=touched,
        golden_files_total=len(golden_map),
    )
