"""``# repro-lint:`` pragma comments: suppressions and scope markers.

The linter reads control comments out of the token stream (so they
work anywhere Python allows a comment) with this grammar::

    # repro-lint: disable=DET003            suppress rule(s) on this line
    # repro-lint: disable=DET003,CONC001    several rules at once
    # repro-lint: disable=all               everything on this line
    # repro-lint: disable-file=DET003       suppress rule(s) in the whole file
    # repro-lint: module=repro.sim.fake     lint this file *as if* it were
                                            that module (test fixtures)
    # repro-lint: locked                    on a ``def`` line: the caller
                                            must hold the engine lock, so
                                            CONC001 treats the body as a
                                            lock-held scope
    # repro-lint: safe=CONC001              on a ``def`` line: the function
                                            is designated safe for the
                                            listed rule(s) (e.g. it runs
                                            before the object is shared
                                            between threads)
    # repro-lint: boundary=FLOW001          on a ``def`` line: the function
                                            is a declared nondeterminism
                                            boundary — the whole-program
                                            flow analysis does not
                                            propagate taint through it
                                            (e.g. the live WallClock,
                                            whose reads replay reproduces
                                            from logged timestamps)

Every suppression should carry a short justification after the pragma
(``# repro-lint: disable=DET003  exact tie-break, not a tolerance``);
the parser ignores trailing prose, humans should not.  A directive
outside this grammar is recorded in :attr:`Suppressions.errors`, and
every rule id a directive names in :attr:`Suppressions.rule_refs`, so
the engine can fail the run on a pragma that would silently do nothing.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Optional, Union

_PRAGMA = re.compile(r"#\s*repro-lint:\s*(?P<body>.*)$")

#: Directives whose value is a rule list.
_RULE_LIST_DIRECTIVES = ("disable", "disable-file", "safe", "boundary")


@dataclass
class ScopeMarker:
    """A ``def``-line marker granting the function body an exemption."""

    #: True for ``locked`` — the enclosing function documents that its
    #: caller holds the relevant lock.
    locked: bool = False
    #: Rules the function is designated safe for (``safe=...``).
    safe: set[str] = field(default_factory=set)
    #: Flow rules for which the function is a declared analysis
    #: boundary (``boundary=...``): taint/protocol propagation stops at
    #: its call edge instead of descending into the body.
    boundary: set[str] = field(default_factory=set)


@dataclass
class Suppressions:
    """Everything the pragma comments of one file say."""

    #: line -> rule ids disabled on that line ("all" disables everything).
    line_disables: dict[int, set[str]] = field(default_factory=dict)
    #: Rules disabled for the entire file ("all" disables everything).
    file_disables: set[str] = field(default_factory=set)
    #: ``module=`` override, or ``None`` to derive the module from the path.
    module_override: Optional[str] = None
    #: line -> scope marker (looked up by the ``def`` statement's line).
    scope_markers: dict[int, ScopeMarker] = field(default_factory=dict)
    #: (line, directive, rule id) for every rule a directive names.
    rule_refs: list[tuple[int, str, str]] = field(default_factory=list)
    #: Malformed or unknown directives, one message each.
    errors: list[str] = field(default_factory=list)

    def is_line_suppressed(self, line: int, rule: str) -> bool:
        rules = self.line_disables.get(line)
        return rules is not None and (rule in rules or "all" in rules)

    def is_file_suppressed(self, rule: str) -> bool:
        return rule in self.file_disables or "all" in self.file_disables

    def is_suppressed(self, line: int, rule: str) -> bool:
        return self.is_file_suppressed(rule) or self.is_line_suppressed(line, rule)


def marker_for_def(
    sup: Suppressions, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
) -> Optional[ScopeMarker]:
    """The scope marker governing ``node``, if any.

    Decorated functions put the pragma wherever it reads best — on the
    ``def`` line or on any decorator line above it — so the lookup
    accepts both.  When several lines carry markers the union applies.
    """
    lines = [node.lineno]
    lines.extend(dec.lineno for dec in node.decorator_list)
    merged: Optional[ScopeMarker] = None
    for line in lines:
        marker = sup.scope_markers.get(line)
        if marker is None:
            continue
        if merged is None:
            merged = ScopeMarker()
        merged.locked = merged.locked or marker.locked
        merged.safe |= marker.safe
        merged.boundary |= marker.boundary
    return merged


def _parse_rules(value: str) -> set[str]:
    return {part.strip() for part in value.split(",") if part.strip()}


def _marker_for(sup: Suppressions, line: int) -> ScopeMarker:
    marker = sup.scope_markers.get(line)
    if marker is None:
        marker = ScopeMarker()
        sup.scope_markers[line] = marker
    return marker


def parse_suppressions(source: str) -> Suppressions:
    """Extract every ``# repro-lint:`` pragma from ``source``.

    Unreadable sources (tokenize errors) yield an empty
    :class:`Suppressions` — the parse error will surface as a lint
    engine error anyway, and pragmas in a broken file are moot.
    """
    sup = Suppressions()
    if "repro-lint" not in source:
        return sup
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return sup
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA.search(token.string)
        if match is None:
            continue
        line = token.start[0]
        body = match.group("body").strip()
        # The directive is the first whitespace-delimited word; trailing
        # prose is the human justification and is ignored.
        directive = body.split()[0] if body.split() else ""
        key, _, value = directive.partition("=")
        if directive == "locked":
            _marker_for(sup, line).locked = True
        elif key == "module" and value:
            sup.module_override = value
        elif key in _RULE_LIST_DIRECTIVES and value:
            rules = _parse_rules(value)
            sup.rule_refs.extend((line, key, rule) for rule in sorted(rules))
            if key == "disable":
                sup.line_disables.setdefault(line, set()).update(rules)
            elif key == "disable-file":
                sup.file_disables.update(rules)
            elif key == "safe":
                _marker_for(sup, line).safe.update(rules)
            else:
                _marker_for(sup, line).boundary.update(rules)
        else:
            sup.errors.append(
                f"line {line}: unknown repro-lint directive {directive!r}"
            )
    return sup


__all__ = ["ScopeMarker", "Suppressions", "marker_for_def", "parse_suppressions"]
