"""Enumerate regular-language words in lexicographic or radix order.

The enumerator takes a nondeterministic finite automaton (built directly,
parsed from a small text format, or compiled from a regex) and streams the
accepted words of a given length in strictly increasing lexicographic order.
The alphabet is a string of glyphs whose order is the lexicographic order,
and words are tuples of indexes into it. After a preprocessing pass whose
cost is O(|alphabet| + |Q| + #transitions + l*(#transitions + |Q| log |Q|)),
linear in the automaton's size plus the work of l table levels, consecutive
words are produced with O(l*#transitions) work between outputs, independent
of how many words have been emitted, and with flat memory: each word is
derived from the previous one plus read-only tables of O(l*|Q|) entries
(each state's word-order rank and each rank's first step per length),
which keep the automaton they were built for. A state set is a set of
states, or an int mask when the automaton is dense enough for the bit
kernel (see :mod:`lexenum.automaton`); a cursor keeps the l sets reached
after the last word's proper prefixes (O(l*|Q|) bytes), the ones its
successor search reads, and replays them only from the position the
previous successor changed.
Radix (shortlex) order over a whole language comes from chaining one
cross-section per length over one table that grows a level per length; the
run stops by itself after the longest word of a finite language, and
``itertools.islice`` takes a prefix of it.
"""

from .automaton import AutomatonError, Nfa, Word, build_nfa
from .bench import DelayRecord, DelayReport, measure_delays, random_automaton
from .enumeration import EXHAUSTED, CrossSectionCursor, cross_section, radix_cursors, radix_words
from .fileformat import ParseError, parse_automaton
from .regex import RegexSyntaxError, compile_regex
from .tables import MinWordTables, precompute

__version__ = "0.1.0"

__all__ = [
    "AutomatonError",
    "CrossSectionCursor",
    "DelayRecord",
    "DelayReport",
    "EXHAUSTED",
    "MinWordTables",
    "Nfa",
    "ParseError",
    "RegexSyntaxError",
    "Word",
    "build_nfa",
    "compile_regex",
    "cross_section",
    "measure_delays",
    "parse_automaton",
    "precompute",
    "radix_cursors",
    "radix_words",
    "random_automaton",
]
