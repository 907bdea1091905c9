"""Pass 0 — inline suppression pragmas.

A finding is suppressed by a trailing comment on its line::

    t = size / bandwidth  # flowcheck: ignore[div-guard] -- guarded upstream

``ignore[rule-a,rule-b]`` suppresses the listed rules (several on one
line, matched case-insensitively — ``ignore[UNIT-MISMATCH,AMBIENT-RNG]``
works). A pragma must name its rules: a bare ``# flowcheck: ignore``
suppresses nothing. The text after ``--`` is the justification; it is
not parsed, but every accepted finding should carry one.

Pragmas are attributed by *logical* line: a statement that spans several
physical lines (parenthesized call, continuation) is suppressed by a
pragma on **any** of its lines, because rules report at the statement's
first line while style guides often force the comment onto the last.
Attribution uses the token stream, so a pragma inside a string literal
never suppresses anything.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

_PRAGMA = re.compile(
    r"#\s*flowcheck:\s*ignore\[(?P<rules>[A-Za-z0-9_\-, ]+)\]"
)


def _parse_pragma(comment: str) -> Optional[FrozenSet[str]]:
    match = _PRAGMA.search(comment)
    if not match:
        return None
    names = frozenset(
        name.strip().lower()
        for name in match.group("rules").split(",")
        if name.strip()
    )
    return names or None


def _pragma_comments(
    source: str,
) -> Iterator[Tuple[int, int, int, FrozenSet[str]]]:
    """Yield (comment_line, stmt_start, stmt_end, rules) per pragma.

    ``stmt_start``..``stmt_end`` is the physical line range of the
    logical statement the comment is attached to (both equal to
    ``comment_line`` for a standalone comment). Falls back to a plain
    line scan if the source does not tokenize — the engine parses files
    before suppressing, so that only happens for sources that already
    carry a ``syntax`` finding.
    """
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for lineno, line in enumerate(source.splitlines(), start=1):
            rules = _parse_pragma(line)
            if rules is not None:
                yield lineno, lineno, lineno, rules
        return
    stmt_start: Optional[int] = None
    stmt_end: Optional[int] = None
    pending: List[Tuple[int, FrozenSet[str]]] = []
    _boring = {
        tokenize.NEWLINE,
        tokenize.NL,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.COMMENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
    for token in tokens:
        if token.type == tokenize.COMMENT:
            rules = _parse_pragma(token.string)
            if rules is not None:
                pending.append((token.start[0], rules))
        elif token.type == tokenize.NEWLINE:
            for comment_line, rules in pending:
                yield (
                    comment_line,
                    stmt_start or comment_line,
                    stmt_end or comment_line,
                    rules,
                )
            pending = []
            stmt_start = None
            stmt_end = None
        elif token.type not in _boring:
            if stmt_start is None:
                stmt_start = token.start[0]
            stmt_end = max(stmt_end or 0, token.end[0])
    for comment_line, rules in pending:  # trailing comments at EOF
        yield (
            comment_line,
            stmt_start or comment_line,
            stmt_end or comment_line,
            rules,
        )


def collect_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line numbers to the rule ids suppressed on that line.

    Each pragma registers on its own physical line *and* on every line
    of its logical statement, so multi-line statements are covered
    wherever the rule anchors its finding — the statement's first line,
    or the operand's own line inside a parenthesized expression.
    """
    suppressions: Dict[int, FrozenSet[str]] = {}
    for comment_line, stmt_start, stmt_end, rules in _pragma_comments(source):
        for line in {comment_line, *range(stmt_start, stmt_end + 1)}:
            suppressions[line] = suppressions.get(line, frozenset()) | rules
    return suppressions


def is_suppressed(
    suppressions: Dict[int, FrozenSet[str]], line: int, rule: str
) -> bool:
    return rule.lower() in suppressions.get(line, frozenset())
