"""Cross-section enumeration: the successor search and the pull cursors over it.

The cursor produces the words of one length accepted by an automaton in
strictly increasing lexicographic order. Between two outputs it does a
bounded amount of work, O(length * #transitions). Besides tables it only
reads, it keeps the last output word and the first ``length`` entries of
that word's run, the state sets reached after each of its proper prefixes
(O(length * |Q|) bytes), which the successor search reads. A successor keeps
the previous word up to the position the search changed, the pivot, so the
sets up to the pivot still hold, and the search steps only the sets after it
(Ackerman and Shallit, *Efficient enumeration of words in regular
languages*, TCS 2009). The held run never grows beyond ``length`` sets, so
memory stays flat no matter how many words are produced. The tables carry
the automaton they were built for, and a cursor refuses tables of another
automaton.

There is one search, :func:`_successors`, and it reads one test from the
tables: whether a set of states reaches, on a symbol, a state that accepts
a word of some length k, a state of the live set L(k) (see
:mod:`lexenum.tables`). It retries the positions from the last one, each
with the least symbol above its letter on which the position's set reaches
L(k), k the number of letters after it. At the first position that has
one, the pivot, it steps that symbol and completes the word letter by
letter, each letter the least symbol on which the set reached so far
reaches the live set of the letters left after it, and each but the last
stepped. It is a generator: having yielded a word, it resumes from that
word's run for the next. A cursor makes one and resumes it once per call,
so its calls bind the search's locals once; :func:`next_word`, the
one-shot form, takes the first yield of a new one at each call. A set's
least word of length k, :func:`min_word`, is the same search's successor
of a word below every word, retried at its first position only, which is
also how a cursor's generator finds the cursor's first word.

The automaton's kernel (see :mod:`lexenum.automaton`) sets the form of the
run and of the test: a set of states per position on the list kernel, whose
states walk their adjacency rows for a pair with a target in L(k); an int
mask on the bit kernel, ANDed with the tables' per-symbol predecessor mask
of L(k). :func:`build_run_stack`, the replay loop, takes the kernel's subset
step once per letter. On the list kernel a cursor's run is trimmed: entry i
keeps only the states that accept a word of the remaining length
``length - i``, read off the tables' live set of that level, since the search
can finish the word from no other state, and every list-kernel step, the
search's included, goes through :func:`build_run_stack` one letter at a
time. The bit kernel's run holds whole masks, which its test ANDs at a cost
that does not depend on how many states they hold, and its search steps
with :func:`~lexenum.automaton.mask_image` directly.
"""

from __future__ import annotations

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


def min_word(k: int, run: list, tables: MinWordTables) -> Optional[Word]:
    """The least length-k word that leads the start set ``run[0]`` to a
    final state, or None when there is none.

    ``run`` must be a run of one entry in the kernel's form (see
    :func:`build_run_stack`), ``[start]`` for a start set ``start``, as
    every caller passes it. For ``k > 0`` the word is the successor of a
    word below every length-k word, ``(-1, 0, ..., 0)``, found by
    :func:`next_word` from that one entry, as a cursor's generator finds the
    cursor's first word without a call of this function: it retries
    position 0 alone, with every symbol above -1, and completes the rest.
    So each letter is the least symbol on which the current set reaches the
    live set of the letters left after it, and every letter but the last is
    stepped and the set it reaches appended to ``run``: on success ``run``
    gains k - 1 entries, each trimmed on the list kernel as a cursor of
    length k trims its run; on None ``run`` is unchanged. The charge is
    :func:`next_word`'s. At ``k = 0`` the word is the empty word when
    ``run[0]`` holds a final state, a test charged one unit per state it
    tests: the smaller of the two sets on the list kernel, every final
    state on the bit kernel; a cursor of length 0 calls this for its first
    word.
    """
    if not k:
        source, final = run[0], tables.live[0]
        if tables.nfa.images is None:
            if _ops.enabled:
                _ops.ops += min(len(source), len(final))
            return None if final.isdisjoint(source) else ()
        if _ops.enabled:
            _ops.ops += len(final)
        return () if source & state_mask(final) else None
    found = next_word((-1,) + (0,) * (k - 1), run, tables)
    return None if found is None else found[0]


def _least_letter(
    states: Collection[int], lo: int, live: frozenset, adjacency: list
) -> Optional[int]:
    """The least symbol ``a >= lo`` on which some state of ``states`` has a
    transition into ``live``, or None.

    The list kernel's live test. Each state walks its adjacency row from its
    first pair, skips the pairs below ``lo`` and examines the rest in symbol
    order up to its own first pair with a target in ``live``; the least of
    those symbols wins. No walk stops early on another state's result, so
    the charge depends on the set and not on the order in which it is
    iterated: one unit per state, and 1 plus the target count per pair
    examined. The pairs skipped are not charged; they number at most the
    state's row length, which its transitions bound, so the walks stay
    within O(len(states) + #transitions).
    """
    best = None
    examined = len(states)
    for q in states:
        for a, targets in adjacency[q]:
            if a < lo:
                continue
            examined += 1 + len(targets)
            if not live.isdisjoint(targets):
                if best is None or a < best:
                    best = a
                break
    if _ops.enabled:
        _ops.ops += examined
    return best


def build_run_stack(
    word: Word, nfa: Nfa, run: Optional[list] = None, lives: Optional[list] = None
) -> list:
    """Extend ``run`` by the state sets reached after each prefix of a word.

    The replay loop: entry ``i`` of a run holds the states reached after
    reading the first ``i`` letters, a set of states on the list kernel and
    an int mask on the bit kernel. Each letter of ``word`` takes one subset
    step of the automaton's kernel, :func:`delta_step` or :func:`mask_image`,
    from the last entry of ``run``, and appends its result; ``run`` itself is
    returned, longer by ``len(word)`` entries, and an empty word leaves it
    unchanged. By default ``run`` is a new list holding the initial set in
    the kernel's form, ``nfa.initial`` or its mask. The word need not be
    accepted; trailing entries may be empty. The charge is that of the
    ``len(word)`` steps taken, plus that of the trims below.

    ``lives``, given on the list kernel only, trims the run: entry ``i``
    keeps the states of ``lives[i]``, and so does the default entry 0. A
    cursor of length l passes ``tables.live[l::-1]``, so entry i keeps the
    states that accept a word of length ``l - i``. Trimming loses no
    successor (see :func:`next_word`), and a step from a trimmed entry
    reaches every state that a step from the full entry reaches and that
    survives the next trim, since a state with a transition into a state
    live at level k - 1 is live at level k. Each trim is charged one unit
    per state it tests.
    """
    if nfa.images is None:
        step, layout = delta_step, nfa
    else:
        step, layout = mask_image, nfa.images
    if run is None:
        run = [nfa.initial if nfa.images is None else state_mask(nfa.initial)]
        if lives is not None:
            run[0] = _trim(run[0], lives[0])
    source = run[-1]
    for a in word:
        source = step(layout, source, a)
        if lives is not None:
            source = _trim(source, lives[len(run)])
        run.append(source)
    return run


def _trim(states: Collection[int], live: frozenset) -> frozenset:
    """The states of ``states`` in ``live``, charged one unit per state
    tested."""
    if _ops.enabled:
        _ops.ops += len(states)
    return live.intersection(states)


def next_word(word: Word, run: list, tables: MinWordTables) -> Optional[tuple[Word, int]]:
    """Immediate lexicographic successor of ``word`` in the cross-section.

    ``run`` must hold entries ``0 .. p`` of ``build_run_stack(word,
    tables.nfa)`` for some ``p``, and may hold more. On the list kernel the
    entries may also be trimmed, as a cursor's are, to the states live at
    level ``len(word) - i``, with the same result: a state of entry ``i``
    with a live pair above ``word[i]`` accepts a word of length
    ``len(word) - i``, so the trim keeps every state the search can use.
    Returns the least member above ``word`` that differs from it first at a
    position ``<= p``, where ``p = min(len(run), len(word)) - 1``, with its
    pivot, that position; or None when there is none, leaving ``run``
    unchanged. A cursor's run has ``len(word)`` entries, so this is the
    successor itself.

    Positions are retried from ``p`` down to 0. At position ``i``, with ``k =
    len(word) - i - 1`` letters after it, the successor's letter is the
    least symbol above ``word[i]`` on which ``run[i]`` reaches L(k): on the
    list kernel as :func:`_least_letter` tests and charges it against the
    live set ``tables.live[k]``; on the bit kernel by ANDing ``run[i]`` with
    ``tables.pred_masks[k][a]`` for each symbol ``a`` tried, charged
    ``ceil(|Q|/64)`` per AND. An empty entry, which only a seek to a
    non-member leaves, is not skipped. At the first position with such a
    symbol, the pivot, ``run`` is cut to entries ``0 .. i``, and the word is
    completed from there: the new letter is stepped, and the least symbol on
    which the set it reaches meets the live set one level down is the next
    letter, and so on to the end, by the same test from symbol 0 and with
    the same charge. Every letter but the last is stepped and its set
    appended to ``run``: on the list kernel by one call of
    :func:`build_run_stack`, trimmed with ``tables.live[len(word)::-1]``,
    and on the bit kernel by one :func:`~lexenum.automaton.mask_image`,
    charged as those charge. So on success ``run`` holds entries ``0 ..
    len(word) - 1`` of the successor's run.

    This is the one-shot form of the search: the first yield of
    :func:`_successors`, which a cursor resumes for every word instead. A
    caller of this function, :func:`min_word` included, pays the generator's
    setup, and on the list kernel the slice of the live sets, at each call.
    """
    return next(_successors(word, run, tables), None)


def _successors(word: Word, run: list, tables: MinWordTables) -> Iterator[tuple[Word, int]]:
    """Yield :func:`next_word`'s result, then the successor of that word,
    and so on, each with its pivot, until the cross-section ends.

    The search of :func:`next_word`, with the same arguments, charges and
    changes to ``run``, resumed once per word: the kernel's locals are bound
    once per generator, and after each yield ``run`` holds the yielded
    word's entries ``0 .. len(word) - 1``, from which the next search starts.
    So nothing but the generator may change ``run`` between two yields.
    Whether operations are counted is read once per word, since
    :func:`~lexenum.instrument.counting` may switch counting on between two.
    """
    nfa = tables.nfa
    length = len(word)
    i = min(len(run), length)
    if nfa.images is None:
        lives, adjacency = tables.live[length::-1], nfa.adjacency
        while True:
            for i in range(i - 1, -1, -1):
                a = _least_letter(run[i], word[i] + 1, lives[i + 1], adjacency)
                if a is not None:
                    break
            else:
                return
            del run[i + 1 :]
            tail = [a]
            for _ in range(length - i - 1):
                build_run_stack((a,), nfa, run, lives)
                a = _least_letter(run[-1], 0, lives[len(run)], adjacency)
                tail.append(a)
            word = word[:i] + tuple(tail)
            yield word, i
            i = length
    images, pred_masks = nfa.images, tables.pred_masks
    sigma = len(images)
    words = -(-nfa.state_count // 64)
    while True:
        counting = _ops.enabled
        # A while loop, not a range: this is the per-word hot path, and with
        # a range delay_p50_us rose 15.3 % on tiny-stream and 21.3 % on
        # dense-cross, worse in 10 of 10 perfbench pairs each (3 s runs at
        # seed 1, Python 3.11.7, 2-vCPU container).
        while i:
            i -= 1
            source = run[i]
            masks = pred_masks[length - i - 1]
            a = word[i] + 1
            while a < sigma and not source & masks[a]:
                a += 1
            if counting:
                _ops.ops += words * (min(a + 1, sigma) - word[i] - 1)
            if a < sigma:
                break
        else:
            return
        del run[i + 1 :]
        # A change at the last letter, 3269 of tiny-stream's first 5000
        # words, builds no tail: without this branch its delay_p50_us rose
        # 13.5 %, worse in 10 of 10 perfbench pairs (3 s runs at seed 1).
        if i == length - 1:
            word = word[:i] + (a,)
        else:
            # The completion: every set stepped to meets the live set of the
            # letters left, so each letter exists and the scan needs no bound.
            tail = [a]
            for k in range(length - i - 2, -1, -1):
                source = mask_image(images, source, a)
                run.append(source)
                masks = pred_masks[k]
                a = 0
                while not source & masks[a]:
                    a += 1
                if counting:
                    _ops.ops += words * (a + 1)
                tail.append(a)
            word = word[:i] + tuple(tail)
        yield word, i
        i = length


class CrossSectionCursor:
    """Pull-based enumerator of one cross-section, least word first.

    Every call to :meth:`next` returns the next accepted word of length
    ``length`` or :data:`EXHAUSTED` (sticky once returned). Iterating the
    cursor yields what those calls return before :data:`EXHAUSTED`; an
    iterator that has ended stays ended, even after a :meth:`seek`.

    The cursor holds one successor generator (see :func:`next_word`), made
    by its first call, or by the first call after a :meth:`seek`, and
    resumed once by every call from then on, so no call but that one sets
    the search up. For ``length >= 1`` the first word is that generator's
    first yield, the successor of ``(-1, 0, ..., 0)`` from the held run's
    entry 0, the initial set: the least word, as :func:`min_word` finds it,
    for ``length`` letter choices and ``length - 1`` steps, O(length *
    #transitions). At length 0 the first call tests the initial set with
    :func:`min_word`. On the list kernel entry 0 is the initial set
    already trimmed to the states live at level ``length``, and building the
    cursor, which tests every initial state for that, costs O(|initial|)
    more: with many more initial states than transitions, the first output
    costs more than any multiple of length * #transitions. On the bit kernel
    entry 0 is the initial states' mask. In operation-count charges, as
    :func:`~lexenum.bench.measure_delays` records them on the list kernel,
    the two-state automaton whose states both loop on ``a`` and are both
    initial and final has gaps [92, 16] at length 8 and [764, 128] at
    length 64, and 100 initial states with the one transition ``0 a 1`` and
    final state 1 give [103, 1] at length 1.

    After every call the cursor holds entries ``0 .. length - 1`` of the run
    of its current word, the state sets reached after the word's proper
    prefixes (at most ``length`` sets, O(length * |Q|) bytes), and
    :attr:`pivot`. The successor keeps the previous word before the pivot,
    so those sets still hold: a later call searches the held run for the
    successor, cuts it back to the pivot and steps the new letters after it,
    never the last one, which no search reads. So each later output, and the
    call that returns :data:`EXHAUSTED`, costs O(length * #transitions)
    regardless of history. After :meth:`seek` the held run is entry 0 alone,
    and the next call first replays the sought word up to, not including,
    its last letter. On the list kernel the held run is trimmed (see
    :func:`build_run_stack`): entry i keeps the states live at level
    ``length - i``, the initial set included, so the searches and the steps
    skip the states that cannot finish the word. The cursor takes the live
    sets that trim its replay from the tables once, when it is set up, and
    its generator takes those that trim its steps once, when it is made.

    ``pivot`` is the first position at which the word the last :meth:`next`
    returned differs from :attr:`current` before that call; after a
    :meth:`seek`, that is the sought word. It is 0 for the least word, before
    any call, between a seek and the next call, and once :data:`EXHAUSTED` is
    returned. A caller that keeps the previous word's spelling need only
    spell the new word from there on.

    ``tables`` must be built for ``nfa`` itself (``tables.nfa is nfa``) and
    cover ``length``; otherwise :class:`ValueError` is raised. The automaton
    and tables are shared, and cursors never write to them;
    any number of cursors may run over them concurrently. The owner of the
    tables may append levels meanwhile (:meth:`MinWordTables.add_level`),
    which leaves every level a cursor reads unchanged. A single cursor is not
    thread-safe but may be moved between threads between calls, its
    generator with it.
    """

    __slots__ = ("nfa", "length", "tables", "pivot", "_last", "_lives", "_run", "_search")

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
        self.pivot = 0
        self._last: Optional[Word] = None
        # The successor generator the next call resumes, None until a call
        # makes it; once it ends, every call returns EXHAUSTED until a seek.
        self._search: Optional[Iterator[tuple[Word, int]]] = None
        # On the list kernel, the live set that trims each entry of the run:
        # entry i keeps the states live at level length - i.
        self._lives = tables.live[length::-1] if nfa.images is None else None
        # Entries 0 .. length - 1 of the run of _last, or a prefix of them.
        self._run = build_run_stack((), nfa, None, self._lives)

    @property
    def current(self) -> Optional[Word]:
        """The word the next call continues after: the last word produced,
        or the word given to a later :meth:`seek`, accepted or not. None
        before the first call or seek."""
        return self._last

    def next(self) -> Union[Word, _ExhaustedType]:
        search = self._search
        if search is None:
            search = self._search = self._start()
        word, self.pivot = next(search, (None, 0))
        if word is None:
            return EXHAUSTED
        self._last = word
        return word

    def _start(self) -> Iterator[tuple[Word, int]]:
        """The generator that the calls from here on resume, made when the
        held run is its entry 0 alone: from there and the word below every
        word at first, and after a seek from the run of the sought word, but
        its last letter, replayed here."""
        last, run = self._last, self._run
        if last is None:
            if not self.length:
                return iter([] if min_word(0, run, self.tables) is None else [((), 0)])
            last = (-1,) + (0,) * (self.length - 1)
        else:
            build_run_stack(last[:-1], self.nfa, run, self._lives)
        return _successors(last, run, self.tables)

    def seek(self, word) -> None:
        """Resume the enumeration just after ``word``.

        ``word`` must have the cursor's length and valid symbol ids, ints
        (not bools or other int subclasses) in ``0 .. |alphabet| - 1``, but
        need not be accepted: the following :meth:`next` yields the least
        member of the cross-section greater than ``word``, or
        :data:`EXHAUSTED` when there is none. The cursor drops its
        generator, and the held run is cut back to its entry 0, the initial
        set (trimmed on the list kernel), so that call replays ``word`` from
        position 0 and makes a new generator from there.
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
        self._search = None
        self.pivot = 0
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
    beyond the last word taken but those :func:`radix_cursors` builds before
    the first word.
    """
    return chain.from_iterable(radix_cursors(nfa, max_length))


def radix_cursors(nfa: Nfa, max_length: Optional[int] = None) -> Iterator[CrossSectionCursor]:
    """Yield one cross-section cursor per length, shortest first.

    The cursors share one :class:`MinWordTables`; each cursor's first word
    has pivot 0. ``max_length``, when given, must be a non-negative int (not
    a bool); since this is a generator, a bad one raises :class:`ValueError`
    on the first ``next``, and so does :func:`radix_words`' iterator.

    Every run builds its levels by one rule before its first cursor: up to
    ``max_length`` if given, the first repeated live set
    (:attr:`MinWordTables.period`), or the level at which the predecessor
    entries visited (``fill_ops``) reach |Q| + #transitions, whichever comes
    first. However far the repeat, those levels visit fewer than |Q| + 2 *
    #transitions entries, of the order of the predecessor lists they are
    built from. Any later level is built when its cursor is taken, so a run
    that stops taking cursors builds no further level; past the repeat that
    is O(1).

    The run stops at ``max_length`` or at the first length k at which no
    state reachable from the initial set accepts a length-k word, tested
    against ``live[k]`` and charged the smaller set's size; the reachable
    states are collected once, charged |Q| plus one unit per adjacency pair
    and per target visited. The rule is exact: a reachable state accepting a
    longer word reaches, after the extra letters, one accepting a length-k
    word, and every accepted word of length >= k runs through one, so the
    rule fires on a finite language just after its longest word and never
    on an infinite one. A length with no word but before that one still
    gets its cursor, which yields nothing.
    """
    if max_length is not None:
        check_length(max_length)
    tables = precompute(nfa, 0)
    budget = nfa.state_count + nfa.transition_count
    while tables.length != max_length and not tables.period and tables.fill_ops < budget:
        tables.add_level()
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
        if length > tables.length:
            tables.add_level()
        live = tables.live[length]
        if _ops.enabled:
            _ops.ops += min(len(reachable), len(live))
        if reachable.isdisjoint(live):
            return
        yield CrossSectionCursor(nfa, length, tables)
