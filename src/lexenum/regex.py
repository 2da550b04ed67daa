"""Small regex frontend: literals, concatenation, ``|``, ``*``, ``+``, ``?``,
parentheses.

Patterns compile straight to their position automaton (Glushkov 1961,
with the first/last/follow sets of Berry & Sethi 1986): state 0 is the
initial state and state i is the i-th literal of the pattern, so there are
no epsilon moves and the :class:`Nfa` has one state per literal plus one.
The alphabet is the set of literals that occur in the pattern, ordered by
code point. Stacked quantifiers collapse (``a+?`` means ``a*``), and
parentheses nest at most :data:`MAX_GROUP_DEPTH` deep.
"""

from __future__ import annotations

from .automaton import Nfa, build_nfa


class RegexSyntaxError(ValueError):
    """Pattern rejected; ``position`` is the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} at position {position}")


# Parentheses may nest at most this deep, which bounds the recursion depth
# of the parser and of the position pass.
MAX_GROUP_DEPTH = 100

_QUANTIFIERS = {"*": "star", "+": "plus", "?": "opt"}

# AST nodes are tuples tagged by their first element:
# ("eps",) ("lit", ch) ("cat", a, b, ...) ("alt", a, b, ...) ("star", a)
# ("plus", a) ("opt", a). A quantifier never wraps another quantifier.


class _Parser:
    def __init__(self, pattern: str):
        self.pattern = pattern
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.pattern[self.pos] if self.pos < len(self.pattern) else None

    def parse(self):
        node = self.alternation()
        if self.pos < len(self.pattern):
            raise RegexSyntaxError(f"unexpected {self.pattern[self.pos]!r}", self.pos)
        return node

    def alternation(self):
        branches = [self.concatenation()]
        while self.peek() == "|":
            self.pos += 1
            branches.append(self.concatenation())
        return branches[0] if len(branches) == 1 else ("alt", *branches)

    def concatenation(self):
        parts = []
        while True:
            ch = self.peek()
            if ch is None or ch in "|)":
                break
            parts.append(self.repetition())
        if not parts:
            return ("eps",)
        return parts[0] if len(parts) == 1 else ("cat", *parts)

    def repetition(self):
        node = self.atom()
        while (tag := _QUANTIFIERS.get(self.peek())) is not None:
            # Stacked quantifiers collapse: x** x*+ x+? ... all mean x*,
            # while x++ means x+ and x?? means x?.
            if node[0] in ("star", "plus", "opt"):
                if node[0] != tag:
                    tag = "star"
                node = node[1]
            node = (tag, node)
            self.pos += 1
        return node

    def atom(self):
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_GROUP_DEPTH:
                raise RegexSyntaxError(
                    f"parentheses nested deeper than {MAX_GROUP_DEPTH}", self.pos
                )
            self.depth += 1
            self.pos += 1
            node = self.alternation()
            if self.peek() != ")":
                raise RegexSyntaxError("unbalanced '('", self.pos)
            self.pos += 1
            self.depth -= 1
            return node
        if ch in _QUANTIFIERS:
            raise RegexSyntaxError(f"nothing to repeat with {ch!r}", self.pos)
        # ')' and '|' terminate concatenation and never reach here; anything
        # else is a literal.
        self.pos += 1
        return ("lit", ch)


def _positions(node, glyphs: list, follow: list) -> tuple[bool, list, list]:
    """Return ``(nullable, first, last)`` of ``node``.

    Each literal becomes the next position p: its glyph is appended to
    ``glyphs`` and an empty set to ``follow``, so both are indexed by p.
    Positions that may come after position p inside ``node`` are added to
    ``follow[p]``.
    """
    tag = node[0]
    if tag == "eps":
        return True, [], []
    if tag == "lit":
        glyphs.append(node[1])
        follow.append(set())
        p = len(follow) - 1
        return False, [p], [p]
    if tag == "cat":
        nullable, first, last = True, [], []
        for part in node[1:]:
            part_nullable, part_first, part_last = _positions(part, glyphs, follow)
            for p in last:
                follow[p].update(part_first)
            if nullable:
                first += part_first
            last = last + part_last if part_nullable else part_last
            nullable = nullable and part_nullable
        return nullable, first, last
    if tag == "alt":
        nullable, first, last = False, [], []
        for branch in node[1:]:
            branch_nullable, branch_first, branch_last = _positions(branch, glyphs, follow)
            nullable = nullable or branch_nullable
            first += branch_first
            last += branch_last
        return nullable, first, last
    nullable, first, last = _positions(node[1], glyphs, follow)
    if tag in ("star", "plus"):
        for p in last:
            follow[p].update(first)
    return nullable or tag in ("star", "opt"), first, last


def compile_regex(pattern: str) -> Nfa:
    """Compile ``pattern`` into its position automaton.

    State 0 is the initial state and state i is the i-th literal of the
    pattern, entered only on that literal's symbol; there are no epsilon
    moves. The transitions leaving a state are ordered by (symbol, target).
    Raises :class:`RegexSyntaxError` with the offending position. The empty
    pattern (and empty branches such as ``a|``) match the empty word.
    """
    ast = _Parser(pattern).parse()
    glyphs: list = [None]
    follow: list[set[int]] = [set()]
    nullable, first, last = _positions(ast, glyphs, follow)
    follow[0].update(first)
    transitions = [
        (p, a, q)
        for p, targets in enumerate(follow)
        for a, q in sorted((glyphs[q], q) for q in targets)
    ]
    alphabet = sorted(set(glyphs[1:]))
    return build_nfa(alphabet, len(follow), [0], last + [0] if nullable else last, transitions)
