"""Small regex frontend: literals, concatenation, ``|``, ``*``, ``+``, ``?``,
parentheses.

Patterns compile straight to their position automaton (Glushkov 1961,
with the first/last/follow sets of Berry & Sethi 1986): state 0 is the
initial state and state i is the i-th literal of the pattern, so there are
no epsilon moves and the :class:`Nfa` has one state per literal plus one.
The alphabet is the set of literals that occur in the pattern, ordered by
code point. Stacked quantifiers collapse (``a+?`` means ``a*``),
parentheses nest at most :data:`MAX_GROUP_DEPTH` deep, and a pattern may
need at most :data:`MAX_TRANSITIONS` transitions.
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

# The position pass keeps a running upper bound on the transition count:
# each follow-set update, the initial state's included, adds
# |last| * |first|. A pattern is rejected once the bound passes this, which
# caps the pass's time and the automaton's memory. A starred alternation of
# n literals needs n * n + n, so n <= 499.
MAX_TRANSITIONS = 250_000

_QUANTIFIERS = {"*": "star", "+": "plus", "?": "opt"}

# AST nodes are tuples tagged by their first element:
# ("eps",) ("lit", offset) ("cat", a, b, ...) ("alt", a, b, ...) ("star", a)
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
        return ("lit", self.pos - 1)


class _Positions:
    """The position pass over an AST: first, last and follow sets.

    Each literal becomes the next position p: its pattern offset is appended
    to ``offsets`` and an empty set to ``follow``, so both are indexed by p;
    position 0, the initial state, has no literal. ``bound`` is a running
    upper bound on the number of follow pairs linked so far.
    """

    def __init__(self):
        self.offsets: list = [None]
        self.follow: list[set[int]] = [set()]
        self.bound = 0

    def visit(self, node) -> tuple[bool, list, list]:
        """Return ``(nullable, first, last)`` of ``node``, linking each
        position that may come after position p inside ``node`` into
        ``follow[p]``."""
        tag = node[0]
        if tag == "eps":
            return True, [], []
        if tag == "lit":
            self.offsets.append(node[1])
            self.follow.append(set())
            p = len(self.follow) - 1
            return False, [p], [p]
        if tag == "cat":
            nullable, first, last = True, [], []
            for part in node[1:]:
                part_nullable, part_first, part_last = self.visit(part)
                self.link(last, part_first)
                if nullable:
                    first += part_first
                last = last + part_last if part_nullable else part_last
                nullable = nullable and part_nullable
            return nullable, first, last
        if tag == "alt":
            nullable, first, last = False, [], []
            for branch in node[1:]:
                branch_nullable, branch_first, branch_last = self.visit(branch)
                nullable = nullable or branch_nullable
                first += branch_first
                last += branch_last
            return nullable, first, last
        nullable, first, last = self.visit(node[1])
        if tag in ("star", "plus"):
            self.link(last, first)
        return nullable or tag in ("star", "opt"), first, last

    def link(self, last: list, first: list) -> None:
        """Add ``first`` to the follow set of each position in ``last``.

        Adds ``|last| * |first|`` to ``bound`` first, and raises
        :class:`RegexSyntaxError` at the latest literal once ``bound``
        passes :data:`MAX_TRANSITIONS`.
        """
        self.bound += len(last) * len(first)
        if self.bound > MAX_TRANSITIONS:
            raise RegexSyntaxError(
                f"pattern may need more than {MAX_TRANSITIONS} transitions", self.offsets[-1]
            )
        for p in last:
            self.follow[p].update(first)


def compile_regex(pattern: str) -> Nfa:
    """Compile ``pattern`` into its position automaton.

    State 0 is the initial state and state i is the i-th literal of the
    pattern, entered only on that literal's symbol; there are no epsilon
    moves. The transitions leaving a state are ordered by (symbol, target).
    Raises :class:`RegexSyntaxError` with the offending position, also for
    a pattern that may need more than :data:`MAX_TRANSITIONS` transitions
    (at the literal where the bound passed it). The empty pattern (and
    empty branches such as ``a|``) match the empty word.
    """
    ast = _Parser(pattern).parse()
    positions = _Positions()
    nullable, first, last = positions.visit(ast)
    positions.link([0], first)
    offsets, follow = positions.offsets, positions.follow
    transitions = (
        (p, a, q)
        for p, targets in enumerate(follow)
        for a, q in sorted((pattern[offsets[q]], q) for q in targets)
    )
    alphabet = sorted({pattern[i] for i in offsets[1:]})
    return build_nfa(alphabet, len(follow), [0], last + [0] if nullable else last, transitions)
