"""Small regex frontend: literals, concatenation, ``|``, ``*``, ``+``, ``?``,
parentheses.

Patterns compile straight to their position automaton (Glushkov 1961,
with the first/last/follow sets of Berry & Sethi 1986): state 0 is the
initial state and state i is the i-th literal of the pattern, so there are
no epsilon moves and the :class:`Nfa` has one state per literal plus one.
The position sets are computed during the parse: one recursive-descent
pass builds no syntax tree, and each rule returns the sets of the part it
parsed and links its follow sets as it returns. The alphabet is the set of
literals that occur in the pattern, ordered by code point. Stacked
quantifiers collapse (``a+?`` means ``a*``), parentheses nest at most
:data:`MAX_GROUP_DEPTH` deep, and a pattern may need at most
:data:`MAX_TRANSITIONS` transitions.
"""

from __future__ import annotations

from .automaton import Nfa, build_nfa


class RegexSyntaxError(ValueError):
    """Pattern rejected; ``position`` is the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} at position {position}")


# Parentheses may nest at most this deep, which bounds the recursion depth
# of the parser.
MAX_GROUP_DEPTH = 100

# The parser keeps a running upper bound on the transition count: each
# follow-set update, the initial state's included, adds |last| * |first|. A
# pattern is rejected once the bound passes this, which caps the follow-set
# work and the automaton's memory. A starred alternation of n literals needs
# n * n + n, so n <= 499.
MAX_TRANSITIONS = 250_000


class _PositionParser:
    """One pass over a pattern that computes its first, last and follow sets.

    Each rule parses its part of the pattern and returns ``(nullable, first,
    last, looped)``. ``first`` and ``last`` are fresh lists of positions
    that the caller may extend. ``looped`` says that the part is a
    repetition, possibly inside groups, whose ``last`` already follows into
    its ``first``; a quantifier stacked on it links nothing more, so
    ``(x*)+`` adds to the bound what ``x*`` does. Each literal becomes the
    next position p: its pattern offset is appended to ``offsets`` and an
    empty set to ``follow``, so both are indexed by p; position 0, the
    initial state, has no literal.
    """

    def __init__(self, pattern: str):
        # None marks the end, so the rules read one character ahead freely.
        self.chars = [*pattern, None]
        self.pos = 0
        self.depth = 0
        self.offsets: list = [None]
        self.follow: list[set[int]] = [set()]
        self.bound = 0
        # Offset of the latest literal when the bound passed the cap. The
        # parse goes on, linking nothing more, so that a syntax error
        # anywhere in the pattern is reported ahead of the cap.
        self.capped_at = None

    def alternation(self):
        nullable, first, last, looped = self.concatenation()
        while self.chars[self.pos] == "|":
            self.pos += 1
            branch_nullable, branch_first, branch_last, _ = self.concatenation()
            nullable = nullable or branch_nullable
            first += branch_first
            last += branch_last
            looped = False
        return nullable, first, last, looped

    def concatenation(self):
        nullable, first, last, looped = True, [], [], None
        while self.chars[self.pos] not in (None, "|", ")"):
            part_nullable, part_first, part_last, part_looped = self.repetition()
            self.link(last, part_first)
            if nullable:
                first += part_first
            last = last if part_nullable else []
            last += part_last
            nullable = nullable and part_nullable
            # Only a lone part passes its looped fact out.
            looped = part_looped if looped is None else False
        return nullable, first, last, bool(looped)

    def repetition(self):
        # Stacked quantifiers collapse: x** x*+ x+? ... all mean x*, while
        # x++ means x+ and x?? means x?. So a run links once if it has a *
        # or a +, and is nullable if it has a * or a ?.
        nullable, first, last, looped = self.atom()
        while (ch := self.chars[self.pos]) in ("*", "+", "?"):
            self.pos += 1
            if ch != "?" and not looped:
                self.link(last, first)
                looped = True
            nullable = nullable or ch != "+"
        return nullable, first, last, looped

    def atom(self):
        ch = self.chars[self.pos]
        if ch == "(":
            if self.depth == MAX_GROUP_DEPTH:
                raise RegexSyntaxError(
                    f"parentheses nested deeper than {MAX_GROUP_DEPTH}", self.pos
                )
            self.depth += 1
            self.pos += 1
            result = self.alternation()
            if self.chars[self.pos] != ")":
                raise RegexSyntaxError("unbalanced '('", self.pos)
            self.pos += 1
            self.depth -= 1
            return result
        if ch in ("*", "+", "?"):
            raise RegexSyntaxError(f"nothing to repeat with {ch!r}", self.pos)
        # The end, ')' and '|' end a concatenation and never reach here;
        # anything else is a literal.
        self.offsets.append(self.pos)
        self.follow.append(set())
        self.pos += 1
        p = len(self.follow) - 1
        return False, [p], [p], False

    def link(self, last: list, first: list) -> None:
        """Add ``first`` to the follow set of each position in ``last``.

        Adds ``|last| * |first|`` to ``bound`` first. Once ``bound`` passes
        :data:`MAX_TRANSITIONS`, links nothing more and leaves the latest
        literal's offset in ``capped_at``. An empty ``first`` costs O(1),
        so ``(a|b|...)()()...`` stays linear.
        """
        self.bound += len(last) * len(first)
        if self.bound <= MAX_TRANSITIONS:
            for p in last if first else ():
                self.follow[p].update(first)
        elif self.capped_at is None:
            self.capped_at = self.offsets[-1]


def compile_regex(pattern: str) -> Nfa:
    """Compile ``pattern`` into its position automaton.

    State 0 is the initial state and state i is the i-th literal of the
    pattern, entered only on that literal's symbol; there are no epsilon
    moves. The transitions leaving a state are ordered by (symbol, target),
    the order in which :func:`build_nfa` lays out every automaton.
    Raises :class:`RegexSyntaxError` with the offending position, also for
    a pattern that may need more than :data:`MAX_TRANSITIONS` transitions
    (at the literal where the bound passed it; any syntax error in the
    pattern is reported first). The empty pattern (and empty branches such
    as ``a|``) match the empty word.
    """
    parser = _PositionParser(pattern)
    nullable, first, last, _ = parser.alternation()
    if parser.pos < len(pattern):
        raise RegexSyntaxError(f"unexpected {pattern[parser.pos]!r}", parser.pos)
    parser.link([0], first)
    if parser.capped_at is not None:
        raise RegexSyntaxError(
            f"pattern may need more than {MAX_TRANSITIONS} transitions", parser.capped_at
        )
    offsets, follow = parser.offsets, parser.follow
    transitions = (
        (p, pattern[offsets[q]], q) for p, targets in enumerate(follow) for q in targets
    )
    alphabet = sorted({pattern[i] for i in offsets[1:]})
    return build_nfa(alphabet, len(follow), [0], last + [0] if nullable else last, transitions)
