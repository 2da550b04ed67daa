"""Brute-force reference semantics, deliberately naive.

Everything here generates candidate words and filters them by direct subset
simulation, sharing nothing with the table-driven enumerator beyond the
:class:`~lexenum.automaton.Nfa` type, so these functions can arbitrate its
behaviour in tests. A hard cap on the number of candidate words keeps the
loops at desk scale.
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


def member(nfa: Nfa, word: Iterable[int], start: Optional[Iterable[int]] = None) -> bool:
    """True iff some final state is reachable along ``word`` from ``start``
    (default: the initial states). Plain set-by-set simulation."""
    cur = set(nfa.initial) if start is None else set(start)
    for a in word:
        nxt = set()
        for q in cur:
            nxt.update(nfa.targets(q, a))
        if not nxt:
            return False
        cur = nxt
    return not set(nfa.final_states).isdisjoint(cur)


def cross_section_bruteforce(nfa: Nfa, length: int) -> list[Word]:
    """All accepted words of exactly ``length``, in lexicographic order.

    Odometer iteration over every word of the alphabet, filtered by
    simulation; the order of the result is the generation order.
    """
    sigma = len(nfa.alphabet)
    _check_cap(sigma, length)
    init = nfa.initial
    final = set(nfa.final_states)
    out: list[Word] = []
    if length == 0:
        if not final.isdisjoint(init):
            out.append(())
        return out
    if not init:
        return out
    for word in itertools.product(range(sigma), repeat=length):
        cur = init
        alive = True
        for a in word:
            nxt = set()
            column = nfa._columns[a]
            for q in cur:
                nxt.update(column[q])
            if not nxt:
                alive = False
                break
            cur = nxt
        if alive and not final.isdisjoint(cur):
            out.append(word)
    return out


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
    for word in itertools.product(range(sigma), repeat=k):
        # States from which `word` is accepted, by backward preimages of F.
        accepted = set(final)
        for a in reversed(word):
            prev = set()
            for q in range(n):
                for t in nfa.targets(q, a):
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
