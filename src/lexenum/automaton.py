"""Automaton data model: alphabet, dense states, adjacency rows.

The alphabet is a string of distinct single-character glyphs; the glyph at
index ``a`` is symbol ``a``, and that index order is the lexicographic order.
States are exactly the integers ``0 .. state_count-1``. The transitions are
stored once, as read-only per-state adjacency rows built by
:func:`build_nfa`: the row of ``q`` lists ``(symbol_id, targets)`` pairs,
strictly increasing in symbol id, with non-empty target tuples strictly
increasing in state. The initial and final states are strictly increasing
tuples too, so each automaton has one canonical layout, whatever order its
pieces were listed in. Every reader of the rows walks them in symbol order
from their first pair: the tables, the successor search, the chunk image
tables and the list kernel's subset step, which stops at the first pair at
or above its symbol. Automata on the bit kernel also get those chunk image
tables (see :func:`chunk_images`), derived from the rows.

Two kernels run the subset step, and each is exactly one step, from one
state set on one symbol. The list kernel holds a state set as a set of
states, and its step is :func:`delta_step`. The bit kernel holds a state set
as an int mask, bit ``q`` for state ``q``. Its step is :func:`mask_image`,
which takes the image of a mask on a symbol as an OR of table lookups, two
per non-zero byte of the mask, however many states it holds (the "Four
Russians" table trick of Arlazarov, Dinic, Kronrod and Faradzev, 1970, as
used for NFA simulation by Navarro and Raffinot, 2001). The replay loop,
:func:`lexenum.enumeration.build_run_stack`, takes a kernel's step once per
letter; the successor search inlines the list kernel's. The bit kernel
chooses a letter with no image: it ANDs a run's mask with the tables'
per-symbol predecessor masks, and steps only the letter chosen. An automaton is on the bit kernel when ``4 * |alphabet| *
ceil(|Q|/8) * ceil(|Q|/64) <= #transitions`` (:func:`fits_bit_kernel`): a
stepped or retried position then costs at most about #transitions either
way. The :class:`Nfa` constructor makes the choice; no
option does.

``Nfa`` is a frozen dataclass: rebinding a field of an instance raises
:class:`dataclasses.FrozenInstanceError`, so instances are immutable after
construction and safe to share across threads. The dataclass generates its
equality and repr; an ``Nfa`` is unhashable.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Collection, Iterable, Optional, Sequence

from .instrument import ops as _ops

# A word is a tuple of symbol ids, first letter first.
Word = tuple[int, ...]

# One symbol's chunk image tables: per byte of a mask, the 16-entry tables of
# its low and of its high nibble.
ChunkTables = list[tuple[list[int], list[int]]]

class AutomatonError(ValueError):
    """Raw automaton input failed validation."""


@dataclass(frozen=True, slots=True)
class Nfa:
    """Immutable nondeterministic finite automaton without epsilon moves.

    Build instances through :func:`build_nfa` (or the text/regex frontends);
    the constructor trusts its arguments. ``alphabet`` is the glyph string;
    ``initial`` and ``final_states`` are strictly increasing tuples of
    states. The constructor chooses the kernel: on the bit kernel ``images``
    holds the chunk image tables; on the list kernel it is None. The
    dataclass is frozen: rebinding any field, ``images`` included, raises
    :class:`dataclasses.FrozenInstanceError`. Its generated ``__eq__``
    compares every field but ``images``, which the others determine;
    :func:`build_nfa` lays each automaton out in one canonical order, so two
    automata compare by value whatever order their pieces were listed in.
    Its generated repr shows ``alphabet``, ``state_count``, ``initial``,
    ``final_states`` and ``transition_count``. It is unhashable.
    """

    alphabet: str
    state_count: int
    initial: tuple[int, ...]
    final_states: tuple[int, ...]
    adjacency: list[list[tuple[int, tuple[int, ...]]]] = field(repr=False)
    transition_count: int
    images: Optional[list[ChunkTables]] = field(init=False, compare=False, repr=False)

    __hash__ = None

    def __post_init__(self) -> None:
        bit = fits_bit_kernel(len(self.alphabet), self.state_count, self.transition_count)
        object.__setattr__(self, "images", chunk_images(self) if bit else None)

    @property
    def symbol_count(self) -> int:
        return len(self.alphabet)

    @property
    def kernel(self) -> str:
        """``"bit"`` when state sets are int masks, else ``"list"``."""
        return "list" if self.images is None else "bit"

    def format_word(self, word: Iterable[int]) -> str:
        alphabet = self.alphabet
        # A list comprehension joins faster than a generator expression.
        return "".join([alphabet[a] for a in word])


def _check_state(value, state_count: int, what: str) -> int:
    if type(value) is not int or not 0 <= value < state_count:
        raise AutomatonError(f"{what} {value!r} out of range for {state_count} states")
    return value


def _distinct_states(values: Iterable, state_count: int, what: str) -> tuple[int, ...]:
    """The distinct checked states in ascending order. They are checked in
    input order, so the first bad state is the one reported."""
    return tuple(sorted({_check_state(q, state_count, what) for q in values}))


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
    symbol id. Each (state, symbol) bucket is frozen as its distinct targets
    in ascending order, so repeated triples count once; the initial and
    final states are likewise kept distinct and ascending. So the layout
    does not depend on the order in which the pieces are listed, and pieces
    listed in any order give equal automata. ``state_count`` is checked
    first; then each other argument, which may be any iterable, is read
    once, in parameter order. States, the state count and symbol ids must be
    ints proper: a bool, or any other subclass of int, is rejected.

    Buckets exist only for the (state, symbol) pairs that occur, grouped by
    symbol, so freezing them symbol by symbol appends each row's pairs in
    increasing symbol order without a sort. The layout costs
    O(#raw transitions + |alphabet| + state_count) memory and that time plus
    the sorts of the state sets and the buckets, O(k log k) for k distinct
    states in one. It is charged one unit per raw transition, per symbol,
    per state and per distinct transition, plus the chunk image tables when
    the automaton is on the bit kernel.

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
    for raw_count, entry in enumerate(transitions, 1):
        try:
            src, sym, dst = entry
        except (TypeError, ValueError):
            raise AutomatonError(f"transition {entry!r} is not a (state, symbol, state) triple") from None
        if isinstance(sym, str):
            a = glyph_ids.get(sym)
            if a is None:
                raise AutomatonError(f"unknown symbol {sym!r} in transition {entry!r}")
        elif type(sym) is int and 0 <= sym < sigma:
            a = sym
        else:
            raise AutomatonError(f"unknown symbol {sym!r} in transition {entry!r}")
        if not (type(src) is int and type(dst) is int and 0 <= src < state_count and 0 <= dst < state_count):
            # Raises the diagnostic of the first bad state.
            _check_state(src, state_count, "transition source")
            _check_state(dst, state_count, "transition target")
        column = buckets[a]
        bucket = column.get(src)
        if bucket is None:
            column[src] = [dst]
        else:
            bucket.append(dst)

    transition_count = 0
    adjacency: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(state_count)]
    for a, column in enumerate(buckets):
        for src, bucket in column.items():
            # A one-target bucket, 1625 of dict-radix's 1633 pairs, skips the
            # set and the sort: without this its setup_s rose 11.5 %, worse in
            # 10 of 10 perfbench pairs (3 s runs at seed 1).
            targets = (bucket[0],) if len(bucket) == 1 else tuple(sorted(set(bucket)))
            transition_count += len(targets)
            adjacency[src].append((a, targets))

    if _ops.enabled:
        _ops.ops += raw_count + sigma + state_count + transition_count

    return Nfa("".join(glyph_ids), state_count, init_states, final_states, adjacency, transition_count)


def fits_bit_kernel(symbol_count: int, state_count: int, transition_count: int) -> bool:
    """The kernel choice: True when ``4 * symbol_count * ceil(state_count/8)
    * ceil(state_count/64) <= transition_count``.

    An image makes at most four lookups or ORs of ``ceil(state_count/64)``
    machine words per byte of the mask, so under this test a stepped
    position costs at most #transitions / ``symbol_count``. Choosing a
    letter, in the successor search or in a completion, makes up to
    ``symbol_count`` ANDs of ``ceil(state_count/64)`` words, within
    #transitions as well, the most the list kernel's walks examine at a
    position; so a gap stays within the same constant times ``length *
    #transitions``. The test also keeps the tables' per-symbol masks of a
    level, and the ORs that build them, within a multiple of #transitions
    (see :mod:`lexenum.tables`).
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
    keeps within ``2 * #transitions``; each is an OR of one ``1 << t`` per
    target, with no call per (state, symbol) pair. Each nibble's table is
    one list of the ORs of its four successor masks, 11 ORs in all, so no
    table is built by doubling copies. Charged one unit per transition plus
    ``ceil(|Q|/64)`` per table entry: ``32 * |alphabet| * ceil(|Q|/8)``
    entries in all.
    """
    n = nfa.state_count
    nbytes = -(-n // 8)
    # The a-successors of each state as a mask; padding states have none.
    successors = [[0] * (8 * nbytes) for _ in nfa.alphabet]
    for q, row in enumerate(nfa.adjacency):
        for a, targets in row:
            mask = 0
            for t in targets:
                mask |= 1 << t
            successors[a][q] = mask
    images = []
    for succ in successors:
        tables = []
        for s0, s1, s2, s3 in zip(*[iter(succ)] * 4):
            # Entry x is the union over the bits of x.
            s01, s02, s12 = s0 | s1, s0 | s2, s1 | s2
            s012 = s01 | s2
            tables.append([
                0, s0, s1, s01, s2, s02, s12, s012,
                s3, s0 | s3, s1 | s3, s01 | s3, s2 | s3, s02 | s3, s12 | s3, s012 | s3,
            ])
        images.append(list(zip(tables[::2], tables[1::2])))
    if _ops.enabled:
        _ops.ops += nfa.transition_count + 32 * len(images) * nbytes * -(-n // 64)
    return images


def state_mask(states: Iterable[int]) -> int:
    """The mask of a duplicate-free collection of states: bit ``q`` set for
    each state ``q``."""
    return sum(map((1).__lshift__, states))


def delta_step(nfa: Nfa, source: Collection[int], symbol: int) -> set[int]:
    """The list kernel's subset step: every target reachable on ``symbol``
    from ``source``, a duplicate-free collection of states, as a new set.

    Each source state walks its adjacency row from the first pair, skips
    the pairs below ``symbol`` and stops at the first pair at or above it;
    rows strictly increase in symbol id, so that pair holds the symbol's
    targets or the row has none. Charged ``len(source)`` plus the targets
    visited, which is the work up to the comparisons of each walk: at most
    the state's row length, which its transitions bound, so a step stays
    within O(len(source) + #transitions).
    """
    adjacency = nfa.adjacency
    reached: set[int] = set()
    visited = 0
    # This loop is the per-output hot path.
    for q in source:
        for a, targets in adjacency[q]:
            if a >= symbol:
                if a == symbol:
                    reached.update(targets)
                    visited += len(targets)
                break
    if _ops.enabled:
        _ops.ops += len(source) + visited
    return reached


def mask_image(images: list[ChunkTables], mask: int, symbol: int) -> int:
    """The bit kernel's subset step: the image of the mask ``mask`` on
    ``symbol`` under the tables ``images`` from :func:`chunk_images`.

    The image is the OR, over the mask's non-zero bytes, of the two nibble
    tables' entries. Each image is charged as it is taken: one unit per byte
    of the mask, plus ``ceil(|Q|/64)`` per lookup or OR, two of each per
    non-zero byte.
    """
    tables = images[symbol]
    nbytes = len(tables)
    if nbytes == 1:
        # A one-byte mask needs no byte string and no chunk loop; a zero
        # byte's lookups read entry 0. Kept because it pays on automata of
        # up to 8 states: tiny-stream takes 2631 one-byte images per 5000
        # words, in the 1731 successors that pivot before the last letter.
        # Without this path its delay_p99_us rose from 4.15 to 5.52 us and
        # its words_per_s fell 8.5 %, worse in 10 of 10 perfbench pairs (3 s
        # runs at seed 1, Python 3.11.7, 2-vCPU Linux container); its
        # delay_p50_us did not move, as the median word takes no image.
        ((low, high),) = tables
        image = low[mask & 15] | high[mask >> 4]
    else:
        image = 0
        # This loop is the per-output hot path.
        for (low, high), b in zip(tables, mask.to_bytes(nbytes, "little")):
            if b:
                image |= low[b & 15] | high[b >> 4]
    if _ops.enabled:
        _ops.ops += nbytes + 4 * -(-nbytes // 8) * (nbytes - mask.to_bytes(nbytes, "little").count(0))
    return image
