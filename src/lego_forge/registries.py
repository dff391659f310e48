"""Loaders for the versioned pattern registries shipped with the toolkit.

Registries are plain text files, one entry per line, with `#` comments and
blank lines ignored. Shipping them as data rather than code keeps the
pattern sets auditable and lets a corpus directory pin its own copies.

Error patterns are matched through `ErrorPattern.search`, which first
checks for the literals every match must contain (`required_literals`, the
prefilter RE2 and ripgrep use) and runs the regex only when one is
present. It runs for every pattern on every observation, so the guard
check is a plain loop with no generator. The guards are derived
automatically from the parsed regex, so a registry entry is written as a
plain regex. `IGNORECASE` (global or inline), an empty alternative, or a
construct the derivation does not know disables the guard for that entry,
which then always runs its regex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

try:  # Python 3.11+; importing sre_parse there warns that it is deprecated.
    from re import _parser as _sre
except ImportError:  # Python 3.10
    import sre_parse as _sre

from .errors import ForgeError

_DATA_DIR = Path(__file__).parent / "data"

DEFAULT_HACK_PATTERNS = _DATA_DIR / "hack_patterns.txt"
DEFAULT_ERROR_PATTERNS = _DATA_DIR / "error_patterns.txt"
DEFAULT_PHASE_PATTERNS = _DATA_DIR / "phase_patterns.txt"

HACK_SEVERITIES = ("high", "medium")


class RegistryError(ForgeError):
    """Malformed registry file or invalid pattern."""


@dataclass(frozen=True)
class HackPattern:
    pattern_id: str
    severity: str
    regex: re.Pattern


@dataclass(frozen=True)
class ErrorPattern:
    pattern_id: str
    regex: re.Pattern

    @cached_property
    def guards(self) -> tuple[str, ...] | None:
        """Literals one of which every match contains; None means unguarded."""
        return required_literals(self.regex)

    def search(self, text: str) -> re.Match | None:
        """`regex.search(text)`, skipped when `text` holds no guard literal."""
        guards = self.guards
        if guards is not None:
            # No any(): its generator costs more than the scan itself.
            for lit in guards:
                if lit in text:
                    break
            else:
                return None
        return self.regex.search(text)


@dataclass(frozen=True)
class PhaseRule:
    phase: str
    regex: re.Pattern


# Ops that consume text the walk cannot turn into a literal: they end a
# literal run. AT ops (`\b`, `^`, `$`) are zero-width and do not.
_RUN_BREAKERS = frozenset({_sre.ANY, _sre.IN, _sre.NOT_LITERAL, _sre.MAX_REPEAT, _sre.MIN_REPEAT})


class _NoGuard(Exception):
    """The walk met a construct under which no literal is required."""


def required_literals(regex: re.Pattern) -> tuple[str, ...] | None:
    """Literals such that every match of `regex` contains at least one.

    Returns None when no such set is found: under IGNORECASE (global or
    inline), when the only literals sit in a branch with an empty or
    literal-free alternative, for any construct the walk does not handle,
    and for groups nested too deep to parse again where it is called.
    """
    if regex.flags & re.IGNORECASE:
        return None
    try:
        return _guards(_sre.parse(regex.pattern, regex.flags))
    except (_NoGuard, RecursionError):
        return None


def _guards(items) -> tuple[str, ...] | None:
    """Best guard of one sequence: a literal run, a branch, or a group."""
    candidates: list[tuple[str, ...]] = []
    run: list[str] = []
    for op, av in items:
        if op is _sre.LITERAL:
            run.append(chr(av))
            continue
        if op is _sre.AT:
            continue
        if run:
            candidates.append(("".join(run),))
            run = []
        if op is _sre.BRANCH:
            alternatives = [_guards(alt) for alt in av[1]]
            if None not in alternatives:
                candidates.append(_minimal([lit for alt in alternatives for lit in alt]))
        elif op is _sre.SUBPATTERN:
            if av[1] & _sre.SRE_FLAG_IGNORECASE:
                raise _NoGuard
            inner = _guards(av[-1])
            if inner is not None:
                candidates.append(inner)
        elif op not in _RUN_BREAKERS:
            raise _NoGuard
    if run:
        candidates.append(("".join(run),))
    return max(candidates, key=lambda g: min(map(len, g)), default=None)


def _minimal(literals: list[str]) -> tuple[str, ...]:
    """Drop duplicates and any literal that contains another one."""
    unique = list(dict.fromkeys(literals))
    return tuple(lit for lit in unique if not any(o != lit and o in lit for o in unique))


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line of a registry or config
    text that is neither blank nor a `#` comment. Lines end at "\n", "\r\n"
    or "\r" only, so a form feed or U+2028 is text within its line."""
    for line_no, line in enumerate(re.split(r"\r\n?|\n", text), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield line_no, stripped


def _registry_entries(
    path: str | Path | None, default: Path, usage: str
) -> Iterator[tuple[Path, int, list[str]]]:
    """(file, line number, fields) for each entry of a registry whose lines
    read `usage`, in file order; comments and blank lines are skipped.
    Raises RegistryError for an unreadable or empty file and for a line
    with too few fields."""
    file_path = Path(path) if path else default
    try:
        text = file_path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise RegistryError(f"cannot read registry {file_path}: {exc}") from exc
    width = usage.count("<")
    empty = True
    for line_no, stripped in content_lines(text):
        parts = stripped.split(None, width - 1)
        if len(parts) != width:
            raise RegistryError(f"{file_path}:{line_no}: expected '{usage}'")
        empty = False
        yield file_path, line_no, parts
    if empty:
        raise RegistryError(f"{file_path}: registry is empty")


def _compile(pattern: str, path: str | Path, line_no: int, flags: int = 0) -> re.Pattern:
    try:
        return re.compile(pattern, flags)
    except (re.error, RecursionError, OverflowError) as exc:  # nested past the limit; a huge repeat count
        raise RegistryError(f"{path}:{line_no}: bad regex {pattern!r}: {exc}") from exc


def load_hack_patterns(path: str | Path | None = None) -> list[HackPattern]:
    """Load `<id> <severity> <regex>` lines; registry order is preserved."""
    patterns = []
    for file_path, line_no, (pattern_id, severity, regex) in _registry_entries(
        path, DEFAULT_HACK_PATTERNS, "<id> <severity> <regex>"
    ):
        if severity not in HACK_SEVERITIES:
            raise RegistryError(f"{file_path}:{line_no}: unknown severity {severity!r}")
        patterns.append(HackPattern(pattern_id, severity, _compile(regex, file_path, line_no)))
    return patterns


def load_error_patterns(path: str | Path | None = None) -> list[ErrorPattern]:
    """Load `<id> <regex>` lines used for step-level error detection."""
    return [
        ErrorPattern(pattern_id, _compile(regex, file_path, line_no, re.MULTILINE))
        for file_path, line_no, (pattern_id, regex) in _registry_entries(
            path, DEFAULT_ERROR_PATTERNS, "<id> <regex>"
        )
    ]


def load_phase_patterns(path: str | Path | None = None) -> list[PhaseRule]:
    """Load `<phase> <regex>` lines that map bash commands to phases."""
    from .schema import PHASES

    rules = []
    for file_path, line_no, (phase, regex) in _registry_entries(
        path, DEFAULT_PHASE_PATTERNS, "<phase> <regex>"
    ):
        if phase not in PHASES:
            raise RegistryError(f"{file_path}:{line_no}: unknown phase {phase!r}")
        rules.append(PhaseRule(phase, _compile(regex, file_path, line_no)))
    return rules
