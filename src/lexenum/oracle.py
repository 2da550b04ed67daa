"""Brute-force reference semantics, deliberately naive.

Everything here generates candidate words and filters them by direct subset
simulation with Python sets, so these functions can arbitrate the
table-driven enumerator's behaviour in tests. They read an
:class:`~lexenum.automaton.Nfa` only through its public fields: the
alphabet, the initial and final states, and the adjacency rows, which each
call turns once into per-symbol step maps. They share no kernel, table or
search code with the enumerator. A hard cap on the number of candidate words
keeps the loops at desk scale.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from .automaton import Nfa, Word


#: Guard for brute-force loops: refuse more than this many candidate words.
MAX_ENUMERATION = 10**6


class OracleCapExceeded(ValueError):
    pass


def _check_cap(symbol_count: int, length: int) -> None:
    if symbol_count**length > MAX_ENUMERATION:
        raise OracleCapExceeded(
            f"{symbol_count}^{length} candidate words exceed the cap of {MAX_ENUMERATION}"
        )


# Per symbol id, the targets of each state that has that symbol.
_Steps = list[dict[int, tuple[int, ...]]]


def _step_maps(nfa: Nfa) -> _Steps:
    """The automaton's step maps, read from its adjacency rows."""
    steps: _Steps = [{} for _ in nfa.alphabet]
    for q, row in enumerate(nfa.adjacency):
        for a, targets in row:
            steps[a][q] = targets
    return steps


def _reached(steps: _Steps, start: Iterable[int], word: Iterable[int]) -> Iterable[int]:
    """The states reached from ``start`` along ``word`` under the step maps
    of :func:`_step_maps`. Plain set-by-set simulation."""
    cur = start
    for a in word:
        step = steps[a]
        nxt = set()
        for q in cur:
            nxt.update(step.get(q, ()))
        if not nxt:
            return nxt
        cur = nxt
    return cur


def member(nfa: Nfa, word: Iterable[int], start: Optional[Iterable[int]] = None) -> bool:
    """True iff some final state is reachable along ``word`` from ``start``
    (default: the initial states)."""
    reached = _reached(_step_maps(nfa), nfa.initial if start is None else start, word)
    return not set(nfa.final_states).isdisjoint(reached)


def cross_section_bruteforce(nfa: Nfa, length: int) -> list[Word]:
    """All accepted words of exactly ``length``, in lexicographic order.

    Odometer iteration over every word of the alphabet, filtered by
    simulation; the order of the result is the generation order.
    """
    sigma = len(nfa.alphabet)
    _check_cap(sigma, length)
    steps = _step_maps(nfa)
    final = set(nfa.final_states)
    return [
        word
        for word in itertools.product(range(sigma), repeat=length)
        if not final.isdisjoint(_reached(steps, nfa.initial, word))
    ]


def min_word_oracle(nfa: Nfa, state: int, k: int) -> Optional[Word]:
    """Least length-k word accepted starting from ``state``, or None.

    Walks all candidate words in lexicographic order and returns the first
    accepted one.
    """
    sigma = len(nfa.alphabet)
    _check_cap(sigma, k)
    for word in itertools.product(range(sigma), repeat=k):
        if member(nfa, word, start=(state,)):
            return word
    return None


def min_words_by_state(nfa: Nfa, k: int) -> list[Optional[Word]]:
    """Least accepted length-k word for every starting state at once.

    Same semantics as calling :func:`min_word_oracle` per state, but each
    candidate word is tested against all states in one backward sweep, which
    keeps corpus-sized test runs affordable.
    """
    sigma = len(nfa.alphabet)
    _check_cap(sigma, k)
    n = nfa.state_count
    mins: list[Optional[Word]] = [None] * n
    remaining = n
    final = set(nfa.final_states)
    steps = _step_maps(nfa)
    for word in itertools.product(range(sigma), repeat=k):
        # States from which `word` is accepted, by backward preimages of F.
        accepted = set(final)
        for a in reversed(word):
            prev = set()
            for q, targets in steps[a].items():
                for t in targets:
                    if t in accepted:
                        prev.add(q)
                        break
            accepted = prev
            if not accepted:
                break
        for q in accepted:
            if mins[q] is None:
                mins[q] = word
                remaining -= 1
        if remaining == 0:
            break
    return mins
