"""Cross-section enumeration: least word, successor search, pull cursors.

The cursor produces the words of one length accepted by an automaton in
strictly increasing lexicographic order. Between two outputs it does a
bounded amount of work, O(length * #transitions). Besides tables it only
reads, it keeps the last output word and a prefix of that word's run, the
state sets reached after each of its proper prefixes (O(length * |Q|)
bytes), which the successor search reads. A successor keeps the previous
word up to the position the search changed, the pivot, so the cursor keeps
the sets up to the pivot and the next call replays only from there
(Ackerman and Shallit, *Efficient enumeration of words in regular
languages*, TCS 2009). The held run never grows beyond ``length`` sets, so
memory stays flat no matter how many words are produced. The tables carry
the automaton they were built for, and a cursor refuses tables of another
automaton.

The automaton's kernel (see :mod:`lexenum.automaton`) sets the form of the
run: a set of states per position on the list kernel, an int mask on the bit
kernel. :func:`build_run_stack`, the one replay loop, takes the kernel's
subset step once per letter. On the list kernel a cursor's run is trimmed:
entry i keeps only the states that accept a word of the remaining length
``length - i``, read off the tables' rank row of that level, since the
search can finish the word from no other state. The bit kernel's run holds
whole masks, which its search ANDs at a cost that does not depend on how
many states they hold. :func:`next_word` runs the kernel's
successor search, :func:`next_word_lists` or :func:`next_word_masks`. The
list search walks adjacency rows; the bit search takes no subset step, and
instead ANDs the run's mask with the tables' per-symbol prefix predecessor
masks. Both searches take the least (symbol, rank) pair above the retried
letter, ranked by the tables' ranks alone, the key
``MinWordTables.add_level`` ranks states by, so both give the same successor
and the same pivot. A rank stands for one word, so every least word, the
cursor's first and each suffix, is spelled from its rank alone by
:func:`min_word`, which is also the only reader of the tables' first steps.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, count
from typing import Collection, Iterator, Optional, Union

from .automaton import Nfa, Word, delta_step, mask_image, state_mask
from .instrument import ops as _ops
from .tables import MinWordTables, check_length, precompute


class _ExhaustedType:
    __slots__ = ()

    def __repr__(self) -> str:
        return "EXHAUSTED"


#: Sticky end-of-enumeration marker returned by :meth:`CrossSectionCursor.next`.
EXHAUSTED = _ExhaustedType()


def min_word(k: int, r: int, tables: MinWordTables) -> Optional[Word]:
    """The length-k word of level-k rank ``r``, or None for the sentinel.

    The only path that spells a least word: the cursor's first word and both
    successor searches' suffixes come through here, each from the least rank
    its caller found. A rank ``r >= |Q|`` is the sentinel of states that
    accept no length-k word, and gives None at no charge. Otherwise the word
    is read off the first steps of levels ``k .. 1``, each step a letter and
    the rank of the rest one level down, and charged ``k``, one unit per
    first step read.
    """
    if r >= tables.nfa.state_count:
        return None
    if _ops.enabled:
        _ops.ops += k
    out = []
    for first_step in tables.first_step[k:0:-1]:
        a, r = first_step[r]
        out.append(a)
    return tuple(out)


def build_run_stack(
    word: Word, nfa: Nfa, run: Optional[list] = None, ranks: Optional[list] = None
) -> list:
    """Extend ``run`` by the state sets reached after each prefix of a word.

    The one replay loop: entry ``i`` of a run holds the states reached after
    reading the first ``i`` letters, a set of states on the list kernel and
    an int mask on the bit kernel. Each letter of ``word`` takes one subset
    step of the automaton's kernel, :func:`delta_step` or :func:`mask_image`,
    from the last entry of ``run``, and appends its result; ``run`` itself is
    returned, longer by ``len(word)`` entries, and an empty word leaves it
    unchanged. By default ``run`` is a new list holding the initial set in
    the kernel's form, ``nfa.initial`` or its mask. The word need not be
    accepted; trailing entries may be empty. The charge is that of the
    ``len(word)`` steps taken, plus that of the trims below.

    ``ranks``, given on the list kernel only, trims the run: entry ``i``
    keeps the states ``q`` with ``ranks[i][q] < |Q|``, and so does the
    default entry 0. A cursor of length l passes ``rank[l - i]`` as
    ``ranks[i]``, so entry i keeps the states that accept a word of length
    ``l - i``. Trimming loses no successor (see :func:`next_word`), and a
    step from a trimmed entry reaches every state that a step from the full
    entry reaches and that survives the next trim, since a state with a
    transition into a state live at level k - 1 is live at level k. Each
    trim is charged one unit per state it tests.
    """
    if nfa.images is None:
        step, layout = delta_step, nfa
    else:
        step, layout = mask_image, nfa.images
    if run is None:
        run = [nfa.initial if nfa.images is None else state_mask(nfa.initial)]
        if ranks is not None:
            run[0] = _live(run[0], ranks[0], nfa.state_count)
    source = run[-1]
    for a in word:
        source = step(layout, source, a)
        if ranks is not None:
            source = _live(source, ranks[len(run)], nfa.state_count)
        run.append(source)
    return run


def _live(states: Collection[int], rank: list[int], n: int) -> set[int]:
    """The states of ``states`` live at ``rank``'s level, charged one unit
    per state tested."""
    if _ops.enabled:
        _ops.ops += len(states)
    return {q for q in states if rank[q] < n}


def next_word(word: Word, stack: list, tables: MinWordTables) -> Optional[tuple[Word, int]]:
    """Immediate lexicographic successor of ``word`` in the cross-section.

    ``stack`` must hold entries ``0 .. len(word) - 1`` of
    ``build_run_stack(word, tables.nfa)``; the search reads those, no later
    one, and writes none. On the list kernel the entries may also be
    trimmed, as a cursor's are, to the states live at level
    ``len(word) - i``, with the same result: a state of entry ``i`` with a
    live pair above ``word[i]`` accepts a word of length ``len(word) - i``,
    so the trim keeps every state the search can use. Returns the successor
    with its pivot, the first position at which it differs from ``word``, or
    None when ``word`` is the maximum. Runs the successor search of the
    automaton's kernel.
    """
    if tables.pred_masks is None:
        return next_word_lists(word, stack, tables)
    return next_word_masks(word, stack, tables, tables.pred_masks)


def next_word_lists(
    word: Word, stack: list[Collection[int]], tables: MinWordTables
) -> Optional[tuple[Word, int]]:
    """The list kernel's successor search; ``stack`` holds state sets, full
    or trimmed (see :func:`next_word`).

    Positions are retried from the last to the first. At position ``i``,
    with ``k = len(word) - i - 1``, each state of ``stack[i]`` walks its
    adjacency list to its own first live pair: :meth:`MinWordTables.add_level`'s
    rule, started at the first symbol above ``word[i]``. The least level-k
    rank among a pair's targets ranks the pair, and the pair is live when
    that rank is. The least (symbol, rank) pair over the states gives the
    successor: ``word[:i]``, that symbol, then the length-k word of that
    rank, which :func:`min_word` spells from the rank alone; ``i`` is the
    pivot. A retried position is charged one unit per state of ``stack[i]``
    and 1 plus its target count per adjacency pair examined. No walk depends
    on another state's, so the charge depends on the set and not on the
    order in which it is iterated.
    """
    nfa = tables.nfa
    adjacency = nfa.adjacency
    n = nfa.state_count
    counting = _ops.enabled
    length = len(word)
    for i in range(length - 1, -1, -1):
        k = length - i - 1
        key = tables.rank[k].__getitem__
        cur = stack[i]
        wi = word[i]
        best_a, best_r = len(nfa.alphabet), n
        examined = len(cur)
        for q in cur:
            row = adjacency[q]
            for a, targets in row[bisect_left(row, (wi + 1,)) :]:
                examined += 1 + len(targets)
                r = min(map(key, targets))
                if r < n:
                    if a < best_a or (a == best_a and r < best_r):
                        best_a, best_r = a, r
                    break
        if counting:
            _ops.ops += examined
        if best_r < n:
            return word[:i] + (best_a,) + min_word(k, best_r, tables), i
    return None


def next_word_masks(
    word: Word, stack: list[int], tables: MinWordTables, pred_masks: list[list[list[int]]]
) -> Optional[tuple[Word, int]]:
    """The bit kernel's successor search; ``stack`` holds masks.

    ``pred_masks[k][a]`` is level k's prefix predecessor masks of symbol
    ``a``, as the tables hold them (see :mod:`lexenum.tables`): entry ``r``
    holds the states with an ``a``-transition into a state of level-k rank
    ``<= r``. Positions are retried from the last to the first. At position
    ``i``, with ``k = len(word) - i - 1``, each symbol above ``word[i]`` is
    tried in order: the first whose last entry meets ``stack[i]`` is the
    successor symbol, since some state of ``stack[i]`` has a transition on
    it into a live state. A binary search over that symbol's entries then
    finds the least rank ``r`` whose entry meets ``stack[i]``, the least
    rank the symbol reaches, and :func:`min_word` spells the suffix from
    ``r`` alone. That is the least (symbol, rank) pair, as in
    :func:`next_word_lists`, and the search takes no image. Each symbol
    tried is charged ``ceil(|Q|/64)`` for its AND. An empty ``stack[i]``,
    which only a seek to a non-member leaves, is not skipped: its ANDs all
    fail, each charged the same. The hit is charged the binary search's
    bound over the level's ``m`` live ranks, ``ceil(log2 m)`` ANDs of
    ``ceil(|Q|/64)`` each, whatever path the search takes.
    """
    words = -(-tables.nfa.state_count // 64)
    counting = _ops.enabled
    length = len(word)
    for i in range(length - 1, -1, -1):
        source = stack[i]
        k = length - i - 1
        wi = word[i]
        for a, masks in enumerate(pred_masks[k][wi + 1 :], wi + 1):
            if counting:
                _ops.ops += words
            if source & masks[-1]:
                # masks[hi] meets the source and no mask below lo does.
                lo, hi = 0, len(masks) - 1
                if counting:
                    _ops.ops += hi.bit_length() * words
                while lo < hi:
                    mid = (lo + hi) // 2
                    if source & masks[mid]:
                        hi = mid
                    else:
                        lo = mid + 1
                return word[:i] + (a, *min_word(k, lo, tables)), i
    return None


class CrossSectionCursor:
    """Pull-based enumerator of one cross-section, least word first.

    Every call to :meth:`next` returns the next accepted word of length
    ``length`` or :data:`EXHAUSTED` (sticky once returned). Iterating the
    cursor yields what those calls return before :data:`EXHAUSTED`; an
    iterator that has ended stays ended, even after a :meth:`seek`. The
    first call takes the least rank over the initial states and spells its
    word. On the list kernel it ranks only the states of the held run's
    entry 0, the initial states already trimmed to the live ones, and is
    charged ``len(run[0])`` for them; on the bit kernel it ranks every
    initial state, charged ``|initial|``. Each later call brings the run of
    the previous output up to date and searches it for the successor, so
    per-output work is O(length * #transitions) regardless of history.

    The cursor holds the valid prefix of the last output's run: the state
    sets reached after the word's prefixes up to the last search's pivot
    (at most ``length`` sets, O(length * |Q|) bytes). The successor keeps
    the previous word before the pivot, so those sets still hold. A call
    extends the held run by replaying the held word from the run's end up
    to, not including, its last letter, which the search never reads; it
    then searches the run for the successor and cuts the run back to the new
    pivot. So the worst gap is one full replay plus one search, and a word
    nobody asks for is never replayed. After the least word, and after
    :meth:`seek`, the held run is the initial set alone. On the list kernel
    the held run is trimmed (see :func:`build_run_stack`): entry i keeps the
    states live at level ``length - i``, the initial set included, so the
    search and the replay skip the states that cannot finish the word. The
    rank rows that trim it are taken from the tables once, when the cursor
    is set up.

    ``tables`` must be built for ``nfa`` itself (``tables.nfa is nfa``) and
    cover ``length``; otherwise :class:`ValueError` is raised. The automaton
    and tables are shared, and cursors never write to them;
    any number of cursors may run over them concurrently. The owner of the
    tables may append levels meanwhile (:meth:`MinWordTables.add_level`),
    which leaves every level a cursor reads unchanged. A single cursor is not
    thread-safe but may be moved between threads between calls.
    """

    __slots__ = ("nfa", "length", "tables", "_last", "_exhausted", "_ranks", "_run")

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
        # On the list kernel, the rank row that trims each entry of the run:
        # entry i keeps the states live at level length - i.
        self._ranks = tables.rank[length::-1] if nfa.images is None else None
        # The valid prefix of the run of _last.
        self._run = build_run_stack((), nfa, None, self._ranks)

    @property
    def current(self) -> Optional[Word]:
        """The word the next call continues after: the last word produced,
        or the word given to a later :meth:`seek`, accepted or not. None
        before the first call or seek."""
        return self._last

    @property
    def pivot(self) -> int:
        """The first position at which the word the last :meth:`next`
        returned differs from :attr:`current` before that call; after a
        :meth:`seek`, that is the sought word. 0 for the least word, before
        any call, between a seek and the next call, and once
        :data:`EXHAUSTED` is returned. A caller that keeps the previous
        word's spelling need only spell the new word from here on. It is the
        held run's length less one, which :meth:`next` leaves at the
        search's pivot."""
        return len(self._run) - 1

    def next(self) -> Union[Word, _ExhaustedType]:
        if self._exhausted:
            return EXHAUSTED
        last, run = self._last, self._run
        if last is None:
            # On the list kernel entry 0 holds the initial states already
            # trimmed to the live ones.
            initial = self.nfa.initial if self._ranks is None else run[0]
            rank = self.tables.rank[self.length]
            if _ops.enabled:
                _ops.ops += len(initial)
            r = min(map(rank.__getitem__, initial), default=self.nfa.state_count)
            word = min_word(self.length, r, self.tables)
        else:
            build_run_stack(last[len(run) - 1 : -1], self.nfa, run, self._ranks)
            word, pivot = next_word(last, run, self.tables) or (None, 0)
            del run[pivot + 1 :]
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
        :data:`EXHAUSTED` when there is none. The held run is cut back to
        its entry 0, the initial set (trimmed on the list kernel), so that
        call replays ``word`` from position 0.
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
        del self._run[1:]

    def __iter__(self) -> Iterator[Word]:
        return iter(self.next, EXHAUSTED)


def cross_section(nfa: Nfa, length: int, tables: Optional[MinWordTables] = None) -> Iterator[Word]:
    """Yield the accepted words of exactly ``length``, lexicographically."""
    return iter(CrossSectionCursor(nfa, length, tables))


def radix_words(nfa: Nfa, max_length: Optional[int] = None) -> Iterator[Word]:
    """Yield the language in radix order: shorter first, ties lexicographic.

    The words of :func:`radix_cursors`' cursors, one after another. A prefix
    of the run is :func:`itertools.islice` of it, which builds no level
    beyond the last word taken.
    """
    return chain.from_iterable(radix_cursors(nfa, max_length))


def radix_cursors(nfa: Nfa, max_length: Optional[int] = None) -> Iterator[CrossSectionCursor]:
    """Yield one cross-section cursor per length, shortest first.

    The cursors share a single table that gains one level per length, built
    when the cursor of that length is taken, so a run that stops taking
    cursors builds no further level. Each cursor's first word has pivot 0.
    Besides ``max_length``, the run stops by itself at the first length k at
    which no state reachable from the initial set accepts a length-k word; the
    reachable states are collected once, in O(|Q| + #transitions), charged
    |Q| plus one unit per adjacency pair and per target visited. That rule
    is exact: a reachable state accepting a longer word reaches, after the
    extra letters, a reachable state accepting a length-k word, so no longer
    word exists; and every accepted word of length >= k runs through a
    reachable state accepting a length-k word, so the rule fires on a finite
    language just after its longest word and never on an infinite one. At
    each length the check tests whether the reachable states meet the
    tables' live set of that level, :attr:`MinWordTables.live`, charged
    the smaller set's size. ``max_length``, when given,
    must be a non-negative int (not a bool); since this is a generator, a
    bad one raises :class:`ValueError` on the first ``next``, and so does
    :func:`radix_words`' iterator.
    """
    if max_length is not None:
        check_length(max_length)
    tables = precompute(nfa, 0)
    # One pass over the adjacency lists; iterating the list also visits the
    # states appended while it runs.
    queue = list(nfa.initial)
    reachable = set(queue)
    visited = 0
    for q in queue:
        for _, targets in nfa.adjacency[q]:
            visited += 1 + len(targets)
            for t in targets:
                if t not in reachable:
                    reachable.add(t)
                    queue.append(t)
    if _ops.enabled:
        _ops.ops += nfa.state_count + visited
    for length in count() if max_length is None else range(max_length + 1):
        if length:
            tables.add_level()
        if _ops.enabled:
            _ops.ops += min(len(reachable), len(tables.live))
        if reachable.isdisjoint(tables.live):
            return
        yield CrossSectionCursor(nfa, length, tables)
