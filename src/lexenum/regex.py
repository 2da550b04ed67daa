"""Small regex frontend: literals, concatenation, ``|``, ``*``, ``+``, ``?``,
parentheses.

Patterns compile through the classic construction with epsilon moves, which
are then eliminated so the resulting :class:`Nfa` satisfies the plain
transition model used everywhere else. The alphabet is the set of literals
that occur in the pattern, ordered by code point. Stacked quantifiers
collapse (``a+?`` means ``a*``), and parentheses nest at most
:data:`MAX_GROUP_DEPTH` deep.
"""

from __future__ import annotations

from .automaton import Nfa, build_nfa

_SPECIAL = "|*+?()"


class RegexSyntaxError(ValueError):
    """Pattern rejected; ``position`` is the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} at position {position}")


# Parentheses may nest at most this deep, which bounds the recursion depth
# of the parser and of the fragment builder.
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


class _Builder:
    """Fragment-by-fragment automaton assembly with epsilon edges."""

    def __init__(self, symbol_ids: dict):
        self.symbol_ids = symbol_ids
        self.eps: list[list[int]] = []
        self.sym: list[list[tuple[int, int]]] = []

    def state(self) -> int:
        self.eps.append([])
        self.sym.append([])
        return len(self.eps) - 1

    def build(self, node) -> tuple[int, int]:
        tag = node[0]
        if tag == "eps":
            s = self.state()
            return s, s
        if tag == "lit":
            s, t = self.state(), self.state()
            self.sym[s].append((self.symbol_ids[node[1]], t))
            return s, t
        if tag == "cat":
            s, t = self.build(node[1])
            for part in node[2:]:
                s2, t2 = self.build(part)
                self.eps[t].append(s2)
                t = t2
            return s, t
        if tag == "alt":
            ends = [self.build(branch) for branch in node[1:]]
            s, t = self.state(), self.state()
            for s1, t1 in ends:
                self.eps[s].append(s1)
                self.eps[t1].append(t)
            return s, t
        s1, t1 = self.build(node[1])
        s, t = self.state(), self.state()
        self.eps[s].append(s1)
        self.eps[t1].append(t)
        if tag in ("star", "plus"):
            self.eps[t1].append(s1)
        if tag in ("star", "opt"):
            self.eps[s].append(t)
        return s, t


def _closure(eps: list[list[int]], start: int) -> set[int]:
    seen = {start}
    todo = [start]
    while todo:
        for nxt in eps[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def compile_regex(pattern: str) -> Nfa:
    """Compile ``pattern`` into an epsilon-free :class:`Nfa`.

    Raises :class:`RegexSyntaxError` with the offending position. The empty
    pattern (and empty branches such as ``a|``) match the empty word.
    """
    ast = _Parser(pattern).parse()
    # Every character that parsed and is not an operator is a literal.
    alphabet = sorted(set(pattern) - set(_SPECIAL))
    symbol_ids = {ch: i for i, ch in enumerate(alphabet)}

    builder = _Builder(symbol_ids)
    start, accept = builder.build(ast)
    eps, sym = builder.eps, builder.sym

    # Epsilon elimination: each state inherits the symbol transitions of its
    # closure; it is final iff its closure reaches the accepting state.
    closures = [_closure(eps, q) for q in range(len(eps))]
    arcs: list[set[tuple[int, int]]] = []
    finals = []
    for q in range(len(eps)):
        merged = set()
        for p in closures[q]:
            merged.update(sym[p])
        arcs.append(merged)
        if accept in closures[q]:
            finals.append(q)

    # Keep only states reachable from the start, renumbered densely in
    # discovery order.
    order = [start]
    number = {start: 0}
    for q in order:
        for _, t in sorted(arcs[q]):
            if t not in number:
                number[t] = len(order)
                order.append(t)

    transitions = [
        (number[q], a, number[t]) for q in order for a, t in sorted(arcs[q])
    ]
    final_states = [number[q] for q in finals if q in number]
    return build_nfa(alphabet, len(order), [0], final_states, transitions)
