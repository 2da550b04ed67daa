"""Small regex frontend: literals, concatenation, ``|``, ``*``, ``+``, ``?``,
parentheses.

Patterns compile straight to their position automaton (Glushkov 1961,
with the first/last/follow sets of Berry & Sethi 1986): state 0 is the
initial state and state i is the i-th literal of the pattern, so there are
no epsilon moves and the :class:`Nfa` has one state per literal plus one.
The position sets are computed during the parse: one recursive-descent
pass builds no syntax tree, and each rule returns the sets of the part it
parsed and links its follow sets as it returns. A maximal run of plain
literals is one step: its positions form a chain, appended in bulk, and a
quantifier after a run takes only its last literal. The alphabet is the
set of literals that occur in the pattern, ordered by code point. Stacked
quantifiers collapse (``a+?`` means ``a*``), parentheses nest at most
:data:`MAX_GROUP_DEPTH` deep, and a pattern may need at most
:data:`MAX_TRANSITIONS` transitions.
"""

from __future__ import annotations

import re

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

# A run of plain literals.
_RUN = re.compile(r"[^()|*+?]+")


class _PositionParser:
    """One pass over a pattern that computes its first, last and follow sets.

    Each rule parses its part of the pattern and returns ``(nullable, first,
    last, looped)``. ``first`` and ``last`` are fresh lists of positions
    that the caller may extend. ``looped`` says that the part is a
    repetition, possibly inside groups, whose ``last`` already follows into
    its ``first``; a quantifier stacked on it links nothing more, so
    ``(x*)+`` adds to the bound what ``x*`` does. A run of n literals
    becomes the next positions p .. p+n-1, a chain: their glyphs are
    appended to ``glyphs`` and the follow sets (p+1,) .. (p+n-1,) and an
    empty set to ``follow``, so both are indexed by position; position 0,
    the initial state, has no literal.
    """

    def __init__(self, pattern: str):
        self.pattern = pattern
        # None marks the end, so the rules read one character ahead freely.
        self.chars = [*pattern, None]
        self.pos = 0
        self.depth = 0
        self.glyphs: list = [None]
        self.follow: list = [set()]
        self.bound = 0
        # The latest run's end offset, and its chain links until the link
        # into the run, which places the cap (see link).
        self.run_end = 0
        self.chain = 0
        # Offset of the literal at which the bound passed the cap. The
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
        # anything else starts a run of literals, positions p .. q. A
        # quantifier after the run takes its last literal alone.
        start = self.pos
        end = _RUN.match(self.pattern, start).end()
        if end - start > 1 and self.chars[end] in ("*", "+", "?"):
            end -= 1
        follow = self.follow
        p = len(follow)
        q = p + end - start - 1
        self.pos = self.run_end = end
        self.chain = q - p
        self.bound += q - p
        self.glyphs += self.pattern[start:end]
        # No link reaches a literal inside a run, so its follow set stays
        # the next literal: a 1-tuple, which zip makes in bulk.
        follow += zip(range(p + 1, q + 1))
        follow.append(set())
        return False, [p], [q], False

    def link(self, last: list, first: list) -> None:
        """Add ``first`` to the follow set of each position in ``last``.

        Adds ``|last| * |first|`` to ``bound`` first. Once ``bound`` passes
        :data:`MAX_TRANSITIONS`, links nothing more and leaves in
        ``capped_at`` the offset of the literal at which it passed, taking
        the link into a run before the run's chain links, one unit each. An
        empty ``first`` costs O(1), so ``(a|b|...)()()...`` stays linear.
        """
        self.bound += len(last) * len(first)
        if self.bound <= MAX_TRANSITIONS:
            for p in last if first else ():
                self.follow[p].update(first)
        elif self.capped_at is None:
            self.capped_at = self.run_end - 1 - min(self.chain, self.bound - MAX_TRANSITIONS - 1)
        self.chain = 0


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
    glyphs, follow = parser.glyphs, parser.follow
    transitions = ((p, glyphs[q], q) for p, targets in enumerate(follow) for q in targets)
    alphabet = sorted(set(glyphs[1:]))
    return build_nfa(alphabet, len(follow), [0], last + [0] if nullable else last, transitions)
