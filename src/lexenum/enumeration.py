"""Cross-section enumeration: least word, successor search, pull cursors.

The cursor produces the words of one length accepted by an automaton in
strictly increasing lexicographic order. Between two outputs it does a
bounded amount of work, O(length * #transitions). Besides tables it only
reads, it keeps the last output word and that word's run: the length + 1
state sets reached after each of its prefixes (O(length * |Q|) bytes), of
which a prefix is still valid. A successor keeps the previous word up to the
position the search changed, the pivot, so the next call replays only from
there (Ackerman and Shallit, *Efficient enumeration of words in regular
languages*, TCS 2009). The held run never grows, so memory stays flat no
matter how many words are produced. The tables carry the automaton they were
built for, and a cursor refuses tables of another automaton.

The automaton's kernel (see :mod:`lexenum.automaton`) sets the form of the
run: a set of states per position on the list kernel, an int mask on the bit
kernel. :func:`build_run_stack` and :func:`next_word` pass each automaton to
its kernel's replay and successor search, :func:`next_word_lists` or
:func:`next_word_masks`. Both searches take the least (symbol, rank) pair
above the retried letter, ranked by the tables' ranks alone, the key
``MinWordTables.add_level`` ranks states by, so both give the same successor
and the same pivot.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import count
from typing import Collection, Iterator, Optional, Union

# delta_step stays importable from here for callers that wrap this module's names.
from .automaton import (  # noqa: F401
    ChunkTables,
    Nfa,
    Word,
    delta_step,
    mask_states,
    replay,
    replay_masks,
)
from .instrument import ops as _ops
from .tables import MinWordTables, check_length, precompute


class _ExhaustedType:
    __slots__ = ()

    def __repr__(self) -> str:
        return "EXHAUSTED"


#: Sticky end-of-enumeration marker returned by :meth:`CrossSectionCursor.next`.
EXHAUSTED = _ExhaustedType()


def min_word(k: int, states: Collection[int], tables: MinWordTables) -> Optional[Word]:
    """Least length-k word accepted from any state in ``states``, or None.

    An argmin over the level-k ranks finds the best starting state; the
    sentinel rank means no state accepts. The word is then spelled by
    following first_step entries. A miss costs O(|states|), a hit
    O(k + |states|).
    """
    if not states:
        return None
    rank = tables.rank[k]
    q_min = min(states, key=rank.__getitem__)
    if _ops.enabled:
        _ops.ops += len(states)
    if rank[q_min] == tables.state_count:
        return None
    if _ops.enabled:
        _ops.ops += k
    return tables.min_word_from(k, q_min)


def build_run_stack(word: Word, nfa: Nfa, start: Union[Collection[int], int, None] = None) -> list:
    """State sets reachable from ``start`` after each prefix of a word.

    Returns a new list whose entry ``i`` holds the states reached after
    reading ``word[:i]``: a set of states on the list kernel, an int mask on
    the bit kernel. Entry 0 is ``start`` itself, by default the initial set
    in the kernel's form, ``nfa.initial`` or ``nfa.initial_mask``. The word
    need not be accepted; trailing entries may be empty. The charge is that
    of the ``len(word)`` positions replayed.
    """
    if nfa.images is None:
        return replay(nfa, word, nfa.initial if start is None else start)
    return replay_masks(nfa.images, word, nfa.initial_mask if start is None else start)


def next_word(
    word: Word, length: int, stack: list, tables: MinWordTables
) -> Optional[tuple[Word, int]]:
    """Immediate lexicographic successor of ``word`` in the cross-section.

    ``stack`` must hold ``build_run_stack(word, tables.nfa)``; the search
    reads its entries ``0 .. length - 1`` and writes none. Returns the
    successor with its pivot, the first position at which it differs from
    ``word``, or None when ``word`` is the maximum. Runs the successor search
    of the automaton's kernel.
    """
    if tables.live is None:
        return next_word_lists(word, length, stack, tables)
    return next_word_masks(word, length, stack, tables, tables.nfa.images, tables.live)


def next_word_lists(
    word: Word,
    length: int,
    stack: list[Collection[int]],
    tables: MinWordTables,
) -> Optional[tuple[Word, int]]:
    """The list kernel's successor search; ``stack`` holds state sets.

    Positions are retried from the last to the first. At position ``i``,
    with ``k = length - i - 1``, each state of ``stack[i]`` walks its
    adjacency list from the first symbol above ``word[i]`` with
    :meth:`MinWordTables.add_level`'s rule: the target of least level-k rank
    stands for the pair, and the first pair whose target is live ends the
    walk, as does a symbol above the best one found so far. The least
    (symbol, rank) pair over the states gives the successor: ``word[:i]``,
    that symbol, then the target's least length-k word; ``i`` is the pivot.
    A retried position is charged one unit per state of ``stack[i]``, 1 plus
    its target count per adjacency pair examined, and ``k`` for spelling the
    suffix.
    """
    nfa = tables.nfa
    adjacency = nfa.adjacency
    n = tables.state_count
    counting = _ops.enabled
    for i in range(length - 1, -1, -1):
        k = length - i - 1
        key = tables.rank[k].__getitem__
        cur = stack[i]
        wi = word[i]
        best_a, best_r, best_targets = len(nfa.alphabet), n, ()
        examined = len(cur)
        for q in cur:
            row = adjacency[q]
            for a, targets in row[bisect_left(row, (wi + 1,)) :]:
                if a > best_a:
                    break
                examined += 1 + len(targets)
                r = min(map(key, targets))
                if r < n:
                    if a < best_a or r < best_r:
                        best_a, best_r, best_targets = a, r, targets
                    break
        if counting:
            _ops.ops += examined
        if best_targets:
            if counting:
                _ops.ops += k
            suffix = tables.min_word_from(k, min(best_targets, key=key))
            return word[:i] + (best_a,) + suffix, i
    return None


def next_word_masks(
    word: Word,
    length: int,
    stack: list[int],
    tables: MinWordTables,
    images: list[ChunkTables],
    live: list[int],
) -> Optional[tuple[Word, int]]:
    """The bit kernel's successor search; ``stack`` holds masks.

    ``images`` are the automaton's chunk image tables
    (:func:`~lexenum.automaton.chunk_images`) and ``live[k]`` the mask of
    the states whose level-k rank is live. Positions are retried from the
    last to the first. At position ``i``, with ``k = length - i - 1``, each
    symbol above ``word[i]`` is tried in order: the first whose image of
    ``stack[i]``, intersected with ``live[k]``, is not empty is the successor
    symbol, and the member of least level-k rank spells the suffix. That is
    the least (symbol, rank) pair, as in :func:`next_word_lists`. Each symbol
    tried is charged as a replay position (its image comes from
    :func:`~lexenum.automaton.replay_masks`) plus ``ceil(|Q|/64)`` for the
    intersection; the hit is charged one unit per byte of the mask and per
    member decoded, and ``k`` for spelling the suffix.
    """
    sigma = len(images)
    nbytes = len(images[0]) if images else 0
    words = -(-nbytes // 8)
    counting = _ops.enabled
    for i in range(length - 1, -1, -1):
        source = stack[i]
        if not source:
            continue
        k = length - i - 1
        for a in range(word[i] + 1, sigma):
            image = replay_masks(images, (a,), source)[1] & live[k]
            if counting:
                _ops.ops += words
            if image:
                members = mask_states(image)
                if counting:
                    _ops.ops += nbytes + len(members) + k
                target = min(members, key=tables.rank[k].__getitem__)
                return word[:i] + (a,) + tables.min_word_from(k, target), i
    return None


class CrossSectionCursor:
    """Pull-based enumerator of one cross-section, least word first.

    Every call to :meth:`next` returns the next accepted word of length
    ``length`` or :data:`EXHAUSTED` (sticky once returned). The first call
    costs one least-word lookup; each later call brings the run of the
    previous output up to date and searches it for the successor, so
    per-output work is O(length * #transitions) regardless of history.

    The cursor keeps the last output's run, its ``length + 1`` state sets
    (O(length * |Q|) bytes), together with the length ``v`` of the prefix
    whose sets are still valid. A call replays only ``last[v:]``, from
    ``stack[v]``, and the successor search's pivot becomes the new ``v``:
    the successor keeps the previous word before it. The replay happens at
    the start of the call, so the worst gap is still one full replay plus
    one search, and a word nobody asks for is never replayed. The first
    call after the least word, and the first after :meth:`seek`, which drops
    the held run, replay from ``v = 0``.

    ``tables`` must be built for ``nfa`` itself (``tables.nfa is nfa``) and
    cover ``length``; otherwise :class:`ValueError` is raised. The automaton
    and tables are shared, and cursors never write to them;
    any number of cursors may run over them concurrently. The owner of the
    tables may append levels meanwhile (:meth:`MinWordTables.add_level`),
    which leaves every level a cursor reads unchanged. A single cursor is not
    thread-safe but may be moved between threads between calls.
    """

    __slots__ = ("nfa", "length", "tables", "_last", "_exhausted", "_stack", "_valid")

    def __init__(self, nfa: Nfa, length: int, tables: Optional[MinWordTables] = None):
        check_length(length)
        if tables is None:
            tables = precompute(nfa, length)
        elif tables.nfa is not nfa:
            raise ValueError("tables were built for another automaton")
        elif tables.length < length:
            raise ValueError(
                f"tables cover lengths up to {tables.length}, need {length}"
            )
        self.nfa = nfa
        self.length = length
        self.tables = tables
        self._last: Optional[Word] = None
        self._exhausted = False
        # The run of _last; entries 0 .. _valid hold for the current _last.
        self._stack = build_run_stack((), nfa)
        self._valid = 0

    @property
    def current(self) -> Optional[Word]:
        """The last word produced, or None before the first call."""
        return self._last

    def next(self) -> Union[Word, _ExhaustedType]:
        if self._exhausted:
            return EXHAUSTED
        if self._last is None:
            word = min_word(self.length, self.nfa.initial, self.tables)
        else:
            v, stack = self._valid, self._stack
            stack[v + 1 :] = build_run_stack(self._last[v:], self.nfa, stack[v])[1:]
            found = next_word(self._last, self.length, stack, self.tables)
            word, self._valid = found or (None, 0)
        if word is None:
            self._exhausted = True
            return EXHAUSTED
        self._last = word
        return word

    def seek(self, word) -> None:
        """Resume the enumeration just after ``word``.

        ``word`` must have the cursor's length and valid symbol ids, ints
        (not bools or other int subclasses) in ``0 .. |alphabet| - 1``, but
        need not be accepted: the following :meth:`next` yields the least
        member of the cross-section greater than ``word``, or
        :data:`EXHAUSTED` when there is none. The held run is dropped; that
        call replays ``word`` in full.
        """
        word = tuple(word)
        if len(word) != self.length:
            raise ValueError(f"expected a word of length {self.length}, got {len(word)}")
        sigma = len(self.nfa.alphabet)
        for a in word:
            if type(a) is not int:
                raise ValueError(f"symbol id {a!r} is not an int")
            if not 0 <= a < sigma:
                raise ValueError(f"symbol id {a!r} out of range")
        self._last = word
        self._exhausted = False
        self._valid = 0

    def __iter__(self) -> Iterator[Word]:
        while True:
            word = self.next()
            if word is EXHAUSTED:
                return
            yield word


def cross_section(nfa: Nfa, length: int, tables: Optional[MinWordTables] = None) -> Iterator[Word]:
    """Yield the accepted words of exactly ``length``, lexicographically."""
    return iter(CrossSectionCursor(nfa, length, tables))


def radix_words(nfa: Nfa, max_length: Optional[int] = None) -> Iterator[Word]:
    """Yield the language in radix order: shorter first, ties lexicographic.

    Chains one cross-section cursor per length over a single table that gains
    one level per length. A prefix of the run is :func:`itertools.islice` of
    it, which builds no level beyond the last word taken. Besides
    ``max_length``, the run stops by itself at the first length k at which no
    state reachable from the initial set accepts a length-k word; the
    reachable states are collected once, in O(|Q| + #transitions). That rule
    is exact: a reachable state accepting a longer word reaches, after the
    extra letters, a reachable state accepting a length-k word, so no longer
    word exists; and every accepted word of length >= k runs through a
    reachable state accepting a length-k word, so the rule fires on a finite
    language just after its longest word and never on an infinite one. At
    each length the check reads reachable states' ranks up to the first live
    one and is charged one unit per rank read. ``max_length``, when given,
    must be a non-negative int (not a bool); since this is a generator, a
    bad one raises :class:`ValueError` on the first ``next``.
    """
    if max_length is not None:
        check_length(max_length)
    n = nfa.state_count
    tables = precompute(nfa, 0)
    # One pass over the adjacency lists; iterating the list also visits the
    # states appended while it runs.
    reachable = list(nfa.initial)
    seen = set(reachable)
    visited = 0
    for q in reachable:
        for _, targets in nfa.adjacency[q]:
            visited += 1 + len(targets)
            for t in targets:
                if t not in seen:
                    seen.add(t)
                    reachable.append(t)
    if _ops.enabled:
        _ops.ops += n + visited
    for length in count() if max_length is None else range(max_length + 1):
        if length:
            tables.add_level()
        rank = tables.rank[length]
        # 1-based position of the first live reachable state; 0 when none is.
        live_at = next((j for j, q in enumerate(reachable, 1) if rank[q] < n), 0)
        if _ops.enabled:
            _ops.ops += live_at or len(reachable)
        if not live_at:
            return
        yield from CrossSectionCursor(nfa, length, tables)
