"""Shared test utilities: reference automata, corpus sampling, serialization."""

from __future__ import annotations

import random
import string
from typing import Optional

from lexenum import EXHAUSTED, Nfa, ParseError, build_nfa, random_automaton
from lexenum.automaton import AutomatonError, chunk_images, delta_step, mask_image, state_mask
from lexenum.enumeration import _least_letter, build_run_stack, min_word
from lexenum.instrument import ops as _ops


def targets(nfa: Nfa, state: int, symbol_id: int) -> tuple[int, ...]:
    """Target states of ``state`` on ``symbol_id``, () when none: the naive
    reference for a subset step, read off the state's adjacency row."""
    for a, into in nfa.adjacency[state]:
        if a == symbol_id:
            return into
    return ()


def word_from_str(nfa: Nfa, text: str):
    """The word spelled by ``text``, one glyph per letter."""
    return tuple(map(nfa.alphabet.index, text))


def make_a1() -> Nfa:
    """Two-state automaton accepting a*ba*, the worked example used throughout."""
    return build_nfa(
        ["a", "b"],
        2,
        initial=[0],
        final=[1],
        transitions=[(0, "a", 0), (0, "b", 1), (1, "a", 1)],
    )


# Unary automata with F = {0} whose live sets cycle with period 2 and never
# settle: {0}, {1}, {0}, ... on the 2-cycle (a list-kernel automaton), and
# {0}, {2, 3}, {0, 1}, {2, 3}, ... on {0, 1} <-> {2, 3} (a bit-kernel one).
UNARY_2_CYCLE = build_nfa("a", 2, [0], [0], [(0, "a", 1), (1, "a", 0)])
BIPARTITE_4 = build_nfa(
    "a", 4, [0], [0], [(p, "a", q) for p in range(4) for q in range(4) if p // 2 != q // 2]
)


def first_repeat(tables) -> int:
    """j + p: the first level whose live set equals an earlier level's, read
    off the levels by comparing sets, not from the tables' own bookkeeping;
    ``tables`` must reach it."""
    return next(
        k for k in range(1, tables.length + 1) if tables.live[k] in tables.live[:k]
    )


def corpus_automaton(rng: random.Random) -> Nfa:
    """One small random instance: |Q| in 1..6, |Sigma| in 1..3, any density,
    initial/final sets possibly empty."""
    n = rng.randint(1, 6)
    s = rng.randint(1, 3)
    t = rng.randint(0, round(1.5 * n * s))
    return random_automaton(rng, n, s, t)


def wide_row_automaton(rng: random.Random) -> Nfa:
    """A list-kernel instance with long adjacency rows: |Q| = 200, |Sigma|
    one of 26, 40 and 62, and each state's row 15 to min(50, |Sigma| - 2)
    pairs of one or two targets, so every row misses some symbols that can
    fall below, between or above its own. Its at most 400 * (|Sigma| - 2)
    transitions stay under the bit kernel's 400 * |Sigma|; 20 initial and
    20 final states."""
    n = 200
    sigma = rng.choice((26, 40, 62))
    triples = [
        (q, a, t)
        for q in range(n)
        for a in rng.sample(range(sigma), rng.randint(15, min(50, sigma - 2)))
        for t in rng.sample(range(n), rng.randint(1, 2))
    ]
    glyphs = (string.ascii_lowercase + string.ascii_uppercase + string.digits)[:sigma]
    return build_nfa(glyphs, n, rng.sample(range(n), 20), rng.sample(range(n), 20), triples)


def nested_scaling_family(seed: int, deltas, state_count: int = 20, symbol_count: int = 4):
    """Automata sharing states/initial/final whose transition sets grow by
    prefix, so measurements across |delta| compare like with like."""
    rng = random.Random(seed)
    span = symbol_count * state_count
    codes = rng.sample(range(state_count * state_count * symbol_count), max(deltas))
    triples = []
    for code in codes:
        src, rest = divmod(code, span)
        a, dst = divmod(rest, state_count)
        triples.append((src, a, dst))
    initial = rng.sample(range(state_count), 5)
    final = rng.sample(range(state_count), 5)
    glyphs = "abcdefghijklmnopqrstuvwxyz"[:symbol_count]
    return {
        d: build_nfa(glyphs, state_count, initial, final, triples[:d]) for d in deltas
    }


def raw_pieces(nfa: Nfa) -> tuple:
    """The arguments of :func:`build_nfa` that recreate ``nfa``: its glyph
    string and state count, fresh lists of its initial and final states, and
    a fresh list of one ``(state, symbol id, state)`` triple per
    transition."""
    triples = [
        (q, a, t)
        for q in range(nfa.state_count)
        for a, targets in nfa.adjacency[q]
        for t in targets
    ]
    return nfa.alphabet, nfa.state_count, list(nfa.initial), list(nfa.final_states), triples


def rebuild_factory(nfa: Nfa):
    """Zero-argument builder recreating ``nfa`` from raw pieces, so layout
    construction happens inside a measured region."""
    pieces = raw_pieces(nfa)
    return lambda: build_nfa(*pieces)


def assert_canonical(nfa: Nfa) -> None:
    """Assert that ``nfa`` has the one layout :func:`build_nfa` gives: its
    initial states, its final states and each target tuple strictly
    increase."""
    target_tuples = (t for row in nfa.adjacency for _, t in row)
    for states in (nfa.initial, nfa.final_states, *target_tuples):
        assert all(p < q for p, q in zip(states, states[1:])), states


def kernel_run(nfa: Nfa, word, images=None) -> list:
    """The run of ``word`` from ``nfa``'s initial set, one kernel step per
    letter, whatever kernel ``nfa`` is on: the list kernel's
    :func:`delta_step` on sets when ``images`` is None, else the bit
    kernel's :func:`mask_image` on masks under ``images``, which
    ``chunk_images`` builds for an automaton on either kernel."""
    if images is None:
        run = [nfa.initial]
        for a in word:
            run.append(delta_step(nfa, run[-1], a))
    else:
        run = [state_mask(nfa.initial)]
        for a in word:
            run.append(mask_image(images, run[-1], a))
    return run


def start_run(nfa: Nfa, states) -> list:
    """A run of one entry, the set ``states`` in the form of ``nfa``'s
    kernel: a set on the list kernel, a mask on the bit kernel."""
    return [set(states) if nfa.images is None else state_mask(states)]


def on_kernel(nfa: Nfa, kernel: str) -> Nfa:
    """An automaton equal to ``nfa`` that runs on ``kernel``, ``"list"`` or
    ``"bit"``, whatever the kernel test chooses for it, so that both
    kernels' searches can run on one automaton."""
    forced = Nfa(
        nfa.alphabet, nfa.state_count, nfa.initial, nfa.final_states, nfa.adjacency, nfa.transition_count
    )
    object.__setattr__(forced, "images", chunk_images(nfa) if kernel == "bit" else None)
    return forced


def mask_states(mask: int) -> list[int]:
    """The states of a bit-kernel mask, increasing."""
    return [q for q in range(mask.bit_length()) if mask >> q & 1]


def reference_pred_masks(nfa: Nfa, live) -> list[int]:
    """Reference for one level's bit-kernel masks, read off the adjacency
    rows: for each symbol ``a``, the mask of the states with an
    ``a``-transition into a state of ``live``."""
    return [
        state_mask(q for q in range(nfa.state_count) if not live.isdisjoint(targets(nfa, q, a)))
        for a in range(nfa.symbol_count)
    ]


def tables_snapshot(tables):
    """Deep, comparable copy of the table contents: each level's live set
    and, on the bit kernel, its predecessor masks (``()`` on the list
    kernel, which has none)."""
    return (
        tuple(map(frozenset, tables.live)),
        tuple(map(tuple, tables.pred_masks or ())),
    )


def full_scan_level(nfa: Nfa, below) -> frozenset:
    """Reference for one table level: the live set of the level above the
    live set ``below``, found by walking every state's adjacency row, dead
    states included, for a pair with a target in ``below``."""
    return frozenset(
        q
        for q, row in enumerate(nfa.adjacency)
        if any(not below.isdisjoint(into) for _, into in row)
    )


def assert_tables_match_full_scan(tables) -> None:
    """Compare ``tables`` level by level with :func:`full_scan_level`:
    ``live``, and on the bit kernel ``pred_masks`` against
    :func:`reference_pred_masks` of the full scan's live sets."""
    nfa = tables.nfa
    live = frozenset(nfa.final_states)
    for k in range(tables.length + 1):
        if k:
            live = full_scan_level(nfa, live)
        assert tables.live[k] == live, f"live differs at level {k}"
        if tables.pred_masks is not None:
            expected = reference_pred_masks(nfa, live)
            assert tables.pred_masks[k] == expected, f"pred_masks differ at level {k}"


def serialize_automaton(nfa: Nfa) -> str:
    """Inverse of parse_automaton for round-trip testing."""
    lines = [
        "alphabet " + " ".join(nfa.alphabet),
        f"states {nfa.state_count}",
        "initial " + " ".join(str(q) for q in nfa.initial),
        "final " + " ".join(str(q) for q in nfa.final_states),
    ]
    for q in range(nfa.state_count):
        for a, targets in nfa.adjacency[q]:
            for t in targets:
                lines.append(f"{q} {nfa.alphabet[a]} {t}")
    return "\n".join(lines) + "\n"


def _reference_state_token(token: str, line_no: int) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"expected a state number, got {token!r}", line_no)
    try:
        return int(token)
    except ValueError:  # beyond int()'s limit on decimal digits
        raise ParseError(f"state number of {len(token)} digits is too long", line_no) from None


def reference_parse_automaton(text: str) -> Nfa:
    """Reference for :func:`lexenum.parse_automaton`: the parser that reads
    the file line by line in Python, splitting each line with
    :meth:`str.split`, and hands :func:`build_nfa` entries through a
    generator that tracks each entry's line. Same result, or same
    :class:`ParseError` text and line, for every text."""
    alphabet: Optional[list[tuple[int, str]]] = None  # (line, glyph)
    state_count: Optional[int] = None
    states_line = 0
    initial_entries: list[tuple[int, int]] = []  # (line, state)
    final_entries: list[tuple[int, int]] = []
    transition_entries: list[tuple[int, tuple[int, str, int]]] = []  # (line, (src, glyph, dst))

    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        comment = raw.find("#")
        if comment != -1:
            raw = raw[:comment]
        tokens = raw.split()
        if not tokens:
            continue
        head = tokens[0]
        if head.isdigit() and head.isascii():
            if len(tokens) != 3:
                raise ParseError(
                    "transition line must be 'from symbol to'", line_no
                )
            dst = tokens[2]
            if dst.isdigit() and dst.isascii():
                try:
                    transition_entries.append((line_no, (int(head), tokens[1], int(dst))))
                    continue
                except ValueError:  # beyond int()'s limit on decimal digits
                    pass
            # Raises the diagnostic of the first bad state token.
            _reference_state_token(head, line_no)
            _reference_state_token(dst, line_no)
        elif head == "alphabet":
            if alphabet is not None:
                raise ParseError("duplicate 'alphabet' line", line_no)
            alphabet = [(line_no, token) for token in tokens[1:]]
        elif head == "states":
            if state_count is not None:
                raise ParseError("duplicate 'states' line", line_no)
            if len(tokens) != 2:
                raise ParseError("'states' expects exactly one number", line_no)
            state_count = _reference_state_token(tokens[1], line_no)
            states_line = line_no
        elif head == "initial":
            initial_entries += [(line_no, _reference_state_token(t, line_no)) for t in tokens[1:]]
        elif head == "final":
            final_entries += [(line_no, _reference_state_token(t, line_no)) for t in tokens[1:]]
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)

    if alphabet is None:
        raise ParseError("missing 'alphabet' line")
    if state_count is None:
        raise ParseError("missing 'states' line")

    # build_nfa checks the state count first and then reads each iterable
    # once, in order, so `at` is the line of whatever it rejects.
    at = states_line

    def read(entries):
        nonlocal at
        for at, value in entries:
            yield value

    try:
        return build_nfa(
            read(alphabet),
            state_count,
            read(initial_entries),
            read(final_entries),
            read(transition_entries),
        )
    except AutomatonError as exc:
        raise ParseError(str(exc), at) from None


def reference_next_word(word, run, tables):
    """Reference for the successor search, written as one plain function
    that binds the kernel's locals, and on the list kernel slices the live
    sets, at every call: the same arguments, result, changes to ``run`` and
    charges as :func:`lexenum.enumeration.next_word`."""
    nfa = tables.nfa
    length = len(word)
    held = len(run)
    if nfa.images is None:
        lives = tables.live[length::-1]
        adjacency = nfa.adjacency
        for i in range(held - 1 if held < length else length - 1, -1, -1):
            a = _least_letter(run[i], word[i] + 1, lives[i + 1], adjacency)
            if a is not None:
                break
        else:
            return None
    else:
        images, pred_masks = nfa.images, tables.pred_masks
        sigma = len(images)
        words = -(-nfa.state_count // 64)
        counting = _ops.enabled
        i = held if held < length else length
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
            return None
    del run[i + 1 :]
    if i == length - 1:
        return word[:i] + (a,), i
    tail = [a]
    if nfa.images is None:
        for _ in range(length - i - 1):
            build_run_stack((a,), nfa, run, lives)
            a = _least_letter(run[-1], 0, lives[len(run)], adjacency)
            tail.append(a)
    else:
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
    return word[:i] + tuple(tail), i


class ReferenceCursor:
    """Reference for :class:`~lexenum.CrossSectionCursor` without a
    generator: each call runs :func:`reference_next_word` once on the held
    run. The first call takes the successor of
    ``(-1, 0, ..., 0)`` from the run's entry 0 at ``length >= 1``, and
    :func:`min_word`'s test at length 0; after :meth:`seek` the next call
    replays the sought word but its last letter. ``run``, ``pivot`` and
    ``current`` mean what the cursor's ``_run``, ``pivot`` and ``current``
    mean."""

    def __init__(self, nfa, length, tables):
        self.length, self.tables = length, tables
        self.lives = tables.live[length::-1] if nfa.images is None else None
        self.run = build_run_stack((), nfa, None, self.lives)
        self.current = None
        self.pivot = 0
        self.exhausted = False

    def next(self):
        if self.exhausted:
            return EXHAUSTED
        last, run = self.current, self.run
        if last is None and not self.length:
            found = None if min_word(0, run, self.tables) is None else ((), 0)
        else:
            if last is None:
                last = (-1,) + (0,) * (self.length - 1)
            elif len(run) < self.length:
                build_run_stack(last[len(run) - 1 : -1], self.tables.nfa, run, self.lives)
            found = reference_next_word(last, run, self.tables)
        word, self.pivot = found or (None, 0)
        if word is None:
            self.exhausted = True
            return EXHAUSTED
        self.current = word
        return word

    def seek(self, word):
        self.current = tuple(word)
        self.exhausted = False
        self.pivot = 0
        del self.run[1:]
