"""Automaton data model: alphabet, dense states, adjacency rows.

The alphabet is a string of distinct single-character glyphs; the glyph at
index ``a`` is symbol ``a``, and that index order is the lexicographic order.
States are exactly the integers ``0 .. state_count-1``. The transitions are
stored once, as read-only per-state adjacency rows built by
:func:`build_nfa`: the row of ``q`` lists ``(symbol_id, targets)`` pairs,
strictly increasing in symbol id, with non-empty duplicate-free target
tuples. The tables and the successor search walk a row in symbol order; the
list kernel's subset step finds one symbol in it by binary search. Automata
on the bit kernel also get chunk image tables (see :func:`chunk_images`),
derived from the rows.

Two kernels run the subset step. The list kernel holds a state set as a
set of states: :func:`replay` runs the step over a whole word and returns a
new list of sets, one per prefix, and :func:`delta_step` is its one-symbol
case. The bit kernel holds a state set as an int mask, bit ``q`` for state
``q``, and takes the image of a mask on a symbol as an OR of table lookups,
two per non-zero byte of the mask, however many states it holds (the "Four
Russians" table trick of Arlazarov, Dinic, Kronrod and Faradzev, 1970, as
used for NFA simulation by Navarro and Raffinot, 2001); :func:`replay_masks`
is its replay. An automaton is on the bit kernel when
``4 * |alphabet| * ceil(|Q|/8) * ceil(|Q|/64) <= #transitions``
(:func:`fits_bit_kernel`): a retried successor position then costs about
#transitions either way. The :class:`Nfa` constructor makes the choice; no
option does.

``Nfa`` instances are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from typing import Collection, Iterable, Optional, Sequence

from .instrument import ops as _ops

# A word is a tuple of symbol ids, first letter first.
Word = tuple[int, ...]

# One symbol's chunk image tables: per byte of a mask, the 16-entry tables of
# its low and of its high nibble.
ChunkTables = list[tuple[list[int], list[int]]]

# The bit positions set in each byte value, lowest first.
_BYTE_BITS = [tuple(j for j in range(8) if b >> j & 1) for b in range(256)]


class AutomatonError(ValueError):
    """Raw automaton input failed validation."""


class Nfa:
    """Immutable nondeterministic finite automaton without epsilon moves.

    Build instances through :func:`build_nfa` (or the text/regex frontends);
    the constructor trusts its arguments. ``alphabet`` is the glyph string;
    ``initial`` and ``final_states`` are duplicate-free tuples of states in
    first-occurrence order. The constructor chooses the kernel: on the bit
    kernel ``images`` holds the chunk image tables and ``initial_mask`` the
    initial set as a mask; on the list kernel they are None and 0.
    """

    __slots__ = (
        "alphabet",
        "state_count",
        "initial",
        "final_states",
        "adjacency",
        "transition_count",
        "images",
        "initial_mask",
        "_glyph_ids",
    )

    def __init__(
        self,
        alphabet: str,
        state_count: int,
        initial: tuple[int, ...],
        final_states: tuple[int, ...],
        adjacency: list[list[tuple[int, tuple[int, ...]]]],
        transition_count: int,
    ):
        self.alphabet = alphabet
        self.state_count = state_count
        self.initial = initial
        self.final_states = final_states
        self.adjacency = adjacency
        self.transition_count = transition_count
        self._glyph_ids = {glyph: a for a, glyph in enumerate(alphabet)}
        bit = fits_bit_kernel(len(alphabet), state_count, transition_count)
        self.images: Optional[list[ChunkTables]] = chunk_images(self) if bit else None
        self.initial_mask = state_mask(initial) if bit else 0

    @property
    def symbol_count(self) -> int:
        return len(self.alphabet)

    @property
    def kernel(self) -> str:
        """``"bit"`` when state sets are int masks, else ``"list"``."""
        return "list" if self.images is None else "bit"

    def targets(self, state: int, symbol_id: int) -> tuple[int, ...]:
        """Target states of ``state`` on ``symbol_id``; () when none.

        A binary search of the state's row: O(log |row|) comparisons, which
        are not charged to the operation counter.
        """
        row = self.adjacency[state]
        i = bisect_left(row, (symbol_id,))
        return row[i][1] if i < len(row) and row[i][0] == symbol_id else ()

    def symbol_id(self, glyph: str) -> int:
        try:
            return self._glyph_ids[glyph]
        except KeyError:
            raise AutomatonError(f"unknown symbol {glyph!r}") from None

    def format_word(self, word: Iterable[int]) -> str:
        alphabet = self.alphabet
        # A list comprehension joins faster than a generator expression.
        return "".join([alphabet[a] for a in word])

    def word_from_str(self, text: str) -> Word:
        return tuple(self.symbol_id(ch) for ch in text)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Nfa):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.state_count == other.state_count
            and set(self.initial) == set(other.initial)
            and set(self.final_states) == set(other.final_states)
            and self.adjacency == other.adjacency
        )

    def __repr__(self) -> str:
        return (
            f"Nfa(|Q|={self.state_count}, sigma={self.alphabet!r}, "
            f"|delta|={self.transition_count}, I={list(self.initial)}, "
            f"F={list(self.final_states)})"
        )


def _check_state(value, state_count: int, what: str) -> int:
    if type(value) is not int or not 0 <= value < state_count:
        raise AutomatonError(f"{what} {value!r} out of range for {state_count} states")
    return value


def _distinct_states(values: Iterable, state_count: int, what: str) -> tuple[int, ...]:
    """The distinct checked states in first-occurrence order."""
    return tuple(dict.fromkeys(_check_state(q, state_count, what) for q in values))


def build_nfa(
    alphabet: Sequence[str],
    state_count: int,
    initial: Iterable[int],
    final: Iterable[int],
    transitions: Iterable[tuple],
) -> Nfa:
    """Validate raw automaton pieces and lay them out as an :class:`Nfa`.

    This is the one validator: the text and regex frontends stream their
    pieces straight into it. ``alphabet`` lists single-character glyphs (a
    string or a sequence of strings) whose *declaration order* is the
    lexicographic order; it is stored as one string. Transitions are
    ``(state, symbol, state)`` triples where the symbol may be a glyph or a
    symbol id. Each (state, symbol) bucket is deduplicated when it is frozen,
    so target order within a pair is first-occurrence order and repeated
    triples count once. ``state_count`` is checked first; then each other
    argument, which may be any iterable, is read once, in parameter order.
    States, the state count and symbol ids must be ints proper: a bool, or
    any other subclass of int, is rejected.

    Buckets exist only for the (state, symbol) pairs that occur, grouped by
    symbol, so freezing them symbol by symbol appends each row's pairs in
    increasing symbol order without a sort. The layout costs
    O(#raw transitions + |alphabet| + state_count) time and memory, charged
    one unit per raw transition, per symbol, per state and per distinct
    transition, plus the chunk image tables when the automaton is on the bit
    kernel.

    Raises :class:`AutomatonError` for a state count beyond ``sys.maxsize``
    (no buffer can be indexed that far), for alphabet entries that are not
    single characters or repeat, and for out-of-range state or symbol
    references. A 0-state automaton with empty initial/final/transitions is
    legal and accepts nothing.
    """
    if type(state_count) is not int or not 0 <= state_count <= sys.maxsize:
        raise AutomatonError(f"state count must be an int in 0..{sys.maxsize}, got {state_count!r}")

    glyph_ids: dict[str, int] = {}
    for glyph in alphabet:
        if not isinstance(glyph, str) or len(glyph) != 1:
            raise AutomatonError(f"alphabet entry {glyph!r} is not a single character")
        if glyph in glyph_ids:
            raise AutomatonError(f"duplicate symbol {glyph!r} in alphabet")
        glyph_ids[glyph] = len(glyph_ids)
    sigma = len(glyph_ids)

    init_states = _distinct_states(initial, state_count, "initial state")
    final_states = _distinct_states(final, state_count, "final state")

    # Per symbol, the target bucket of each source state that has one.
    buckets: list[dict[int, list[int]]] = [{} for _ in range(sigma)]
    raw_count = 0
    for entry in transitions:
        raw_count += 1
        try:
            src, sym, dst = entry
        except (TypeError, ValueError):
            raise AutomatonError(f"transition {entry!r} is not a (state, symbol, state) triple") from None
        if isinstance(sym, str):
            if sym not in glyph_ids:
                raise AutomatonError(f"unknown symbol {sym!r} in transition {entry!r}")
            a = glyph_ids[sym]
        elif type(sym) is int and 0 <= sym < sigma:
            a = sym
        else:
            raise AutomatonError(f"unknown symbol {sym!r} in transition {entry!r}")
        _check_state(src, state_count, "transition source")
        _check_state(dst, state_count, "transition target")
        buckets[a].setdefault(src, []).append(dst)

    transition_count = 0
    adjacency: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(state_count)]
    for a, column in enumerate(buckets):
        for src, bucket in column.items():
            targets = tuple(dict.fromkeys(bucket))
            transition_count += len(targets)
            adjacency[src].append((a, targets))

    if _ops.enabled:
        _ops.ops += raw_count + sigma + state_count + transition_count

    return Nfa("".join(glyph_ids), state_count, init_states, final_states, adjacency, transition_count)


def fits_bit_kernel(symbol_count: int, state_count: int, transition_count: int) -> bool:
    """The kernel choice: True when ``4 * symbol_count * ceil(state_count/8)
    * ceil(state_count/64) <= transition_count``.

    A retried successor position takes up to ``symbol_count`` images, and an
    image makes at most four lookups or ORs of ``ceil(state_count/64)``
    machine words per byte of the mask. Under this test they cost at most
    #transitions, the most the list kernel's search examines at a position,
    so a gap stays within the same constant times ``length * #transitions``.
    """
    return 4 * symbol_count * -(-state_count // 8) * -(-state_count // 64) <= transition_count


def chunk_images(nfa: Nfa) -> list[ChunkTables]:
    """The bit kernel's chunk image tables of ``nfa``, one entry per symbol.

    For symbol ``a`` and byte ``c`` of a mask, ``images[a][c]`` is a pair of
    16-entry tables, for the states ``8c .. 8c+3`` (low nibble) and
    ``8c+4 .. 8c+7`` (high nibble). Entry ``x`` of a nibble's table is the
    union of the ``a``-successors of the states whose bits are set in ``x``,
    as a mask. The successor masks are read from the adjacency rows into a
    scratch of ``|alphabet| * 8 * ceil(|Q|/8)`` masks, which the kernel test
    keeps within ``2 * #transitions``. Charged one unit per transition plus
    ``ceil(|Q|/64)`` per table entry: ``32 * |alphabet| * ceil(|Q|/8)``
    entries in all.
    """
    n = nfa.state_count
    nbytes = -(-n // 8)
    # The a-successors of each state as a mask; padding states have none.
    successors = [[0] * (8 * nbytes) for _ in nfa.alphabet]
    for q, row in enumerate(nfa.adjacency):
        for a, targets in row:
            successors[a][q] = state_mask(targets)
    images = []
    for succ in successors:
        tables = []
        for s0, s1, s2, s3 in zip(*[iter(succ)] * 4):
            # Entry x is the union over the bits of x: each state doubles
            # the table built so far.
            table = [0, s0]
            table += [x | s1 for x in table]
            table += [x | s2 for x in table]
            table += [x | s3 for x in table]
            tables.append(table)
        images.append(list(zip(tables[::2], tables[1::2])))
    if _ops.enabled:
        _ops.ops += nfa.transition_count + 32 * len(images) * nbytes * -(-n // 64)
    return images


def state_mask(states: Iterable[int]) -> int:
    """The mask of a duplicate-free collection of states: bit ``q`` set for
    each state ``q``."""
    return sum(map((1).__lshift__, states))


def mask_states(mask: int) -> list[int]:
    """The states of ``mask``, increasing."""
    out = []
    for c, b in enumerate(mask.to_bytes(-(-mask.bit_length() // 8), "little")):
        if b:
            base = 8 * c
            out += [base + j for j in _BYTE_BITS[b]]
    return out


def replay(nfa: Nfa, word: Sequence[int], start: Collection[int]) -> list[Collection[int]]:
    """The state sets reached from ``start``, a duplicate-free collection of
    states, after each prefix of ``word``.

    Returns a new list of ``len(word) + 1`` entries: entry 0 is ``start``
    itself, and entry ``i`` a new set of the states reached after reading
    ``word[:i]``. Each source state finds the letter in its adjacency row, a
    row of one pair by one comparison and a longer row by binary search. The
    call is charged once, after the loop: per position, the size of the
    source set plus the targets visited, which is the work up to the
    O(log |row|) comparisons of each search.
    """
    adjacency = nfa.adjacency
    stack = [start]
    sources = start
    for a in word:
        probe = (a,)
        reached: set[int] = set()
        # This loop is the per-output hot path.
        for q in sources:
            row = adjacency[q]
            # Most rows hold one pair; a search only pays off beyond that.
            if len(row) > 1:
                i = bisect_left(row, probe)
                if i == len(row):
                    continue
                b, targets = row[i]
            elif row:
                b, targets = row[0]
            else:
                continue
            if b == a:
                reached.update(targets)
        stack.append(reached)
        sources = reached
    if _ops.enabled:
        _ops.ops += sum(
            len(s) + sum(len(nfa.targets(q, a)) for q in s) for s, a in zip(stack, word)
        )
    return stack


def replay_masks(images: list[ChunkTables], word: Sequence[int], start: int) -> list[int]:
    """The bit kernel's :func:`replay`: the masks reached from the mask
    ``start`` after each prefix of ``word``, under the tables ``images``
    from :func:`chunk_images`.

    Returns a new list of ``len(word) + 1`` masks, ``start`` first. The image
    of a mask is the OR, over its non-zero bytes, of the two nibble tables'
    entries. The call is charged once, after the loop: per position, one
    unit per byte of the source mask, plus ``ceil(|Q|/64)`` per lookup or
    OR, two of each per non-zero byte.
    """
    stack = [start]
    if not word:
        return stack
    nbytes = len(images[0])
    source = start
    if nbytes == 1:
        # A one-byte mask needs no byte string and no chunk loop; a zero
        # byte's lookups read entry 0.
        for a in word:
            ((low, high),) = images[a]
            source = low[source & 15] | high[source >> 4]
            stack.append(source)
    else:
        for a in word:
            image = 0
            # This loop is the per-output hot path.
            for (low, high), b in zip(images[a], source.to_bytes(nbytes, "little")):
                if b:
                    image |= low[b & 15] | high[b >> 4]
            stack.append(image)
            source = image
    if _ops.enabled:
        per_byte = 4 * -(-nbytes // 8)
        _ops.ops += sum(
            nbytes + per_byte * (nbytes - m.to_bytes(nbytes, "little").count(0)) for m in stack[:-1]
        )
    return stack


def delta_step(nfa: Nfa, source: Collection[int], symbol: int) -> set[int]:
    """Every target reachable from ``source`` on ``symbol``, as a new set.

    The one-symbol case of :func:`replay`, charged ``len(source)`` plus the
    number of targets visited.
    """
    return replay(nfa, (symbol,), source)[1]
