"""Seeded workloads: input generators, independent references, one iteration.

Each workload turns a seed into input *text* (an automaton file or a regex)
plus a reference answer computed without the enumerator. ``run_once`` hands
the text to lexenum, stamps every delivered word and checks it against the
reference. Module attributes of lexenum are looked up at call time, so the
span wrappers installed by :mod:`spans` see every call.

Speed scaling. The host this benchmark was written on switches between
speeds that differ by up to 1.7x every 0.5-3 s, for reasons outside the
process, so plain medians of a 10 s run spread by 20-40 % from run to run.
Between words (never inside a call into lexenum) the harness times a fixed
probe kernel, at most once per PROBE_EVERY_S, and excludes that time from
every measured interval. Time between two probes is then rescaled by
PROBE_REF_S over the median duration of the PROBE_WINDOW probes around
them, so reported times read as if the host had run at the speed where the
probe takes PROBE_REF_S. The unscaled figures are printed beside them.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import re
from bisect import bisect_right
from dataclasses import dataclass
from time import perf_counter

from lexenum import cli, enumeration, fileformat

PROBE_REF_S = 15e-6  # about the probe's duration at the host's fastest speed
PROBE_EVERY_S = 0.002
PROBE_WINDOW = 9


class _ProbeSet:
    __slots__ = ("member", "items")

    def __init__(self, size: int):
        self.member = bytearray(size)
        self.items: list[int] = []

    def add(self, x: int) -> None:
        if not self.member[x]:
            self.member[x] = 1
            self.items.append(x)


# Rows of small ints to insert: the probe does the same kind of interpreter
# work as lexenum's inner loops (method calls, bytearray and list access),
# which makes it slow down with them when the host does.
_PROBE_ROWS = [[(i * 7 + j) % 256 for j in range(3)] for i in range(16)]


def _probe_kernel() -> None:
    s = _ProbeSet(256)
    for _ in range(2):
        for row in _PROBE_ROWS:
            for x in row:
                s.add(x)
        for x in s.items:
            s.member[x] = 0
        s.items.clear()


class SpeedProbe:
    """Samples of how long the probe kernel took, and when."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._due = 0.0
        self._factor: list[float] = []  # reference speed / speed after probe i
        self._clock: list[float] = []  # reference-speed seconds at probe i

    def sample(self) -> float:
        """Time one run of the kernel and return the time it finished.

        An untimed run comes first: right after the program has swept its
        tables through the caches a cold probe runs up to 1.5x slower,
        which would make the scaling depend on the program's memory use.
        """
        _probe_kernel()
        t0 = perf_counter()
        _probe_kernel()
        t1 = perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self._due = t1 + PROBE_EVERY_S
        return t1

    def maybe(self, now: float) -> float:
        """Sample if one is due; return the time the program may resume."""
        return self.sample() if now >= self._due else now

    def clock(self, t: float) -> float:
        """Reference-speed seconds elapsed from the first probe to ``t``.

        From each probe to the next, time runs at the speed given by the
        median of the PROBE_WINDOW probes around it. Call only after the
        last sample.
        """
        n = len(self.at)
        if len(self._clock) != n:
            self._factor, self._clock = [], [0.0]
            for i in range(n):
                lo = max(0, min(i - PROBE_WINDOW // 2, n - PROBE_WINDOW))
                window = sorted(self.took[lo:lo + PROBE_WINDOW])
                self._factor.append(PROBE_REF_S / window[len(window) // 2])
            for i in range(n - 1):
                self._clock.append(self._clock[i] + (self.at[i + 1] - self.at[i]) * self._factor[i])
        i = max(0, bisect_right(self.at, t) - 1)
        return self._clock[i] + (t - self.at[i]) * self._factor[i]

    def scaled(self, a: float, b: float) -> float:
        """Interval ``b - a`` in reference-speed seconds."""
        return self.clock(b) - self.clock(a)


@dataclass
class Iteration:
    """One whole workload execution, from input text in hand to the end.

    Word ``i`` was delivered at ``stamps[i]``; the program resumed at
    ``resumes[i]`` once the harness had checked it and perhaps probed.
    """

    start: float
    stamps: list[float]
    resumes: list[float]
    end: float
    checked: int
    failed: int
    probe: SpeedProbe

    def scaled(self) -> tuple[float, float, float, list[float]]:
        """Setup seconds, wall seconds, words/s and gaps, at reference speed."""
        scale = self.probe.scaled
        setup = scale(self.start, self.stamps[0])
        gaps = [scale(r, s) for r, s in zip(self.resumes, self.stamps[1:])]
        wall = setup + sum(gaps) + scale(self.resumes[-1], self.end)
        return setup, wall, (len(gaps) / sum(gaps)), gaps

    def raw(self) -> tuple[float, float, float]:
        """Unscaled setup seconds, wall seconds (harness time included), words/s."""
        s = self.stamps
        return s[0] - self.start, self.end - self.start, (len(s) - 1) / (s[-1] - s[0])


def _bracketed(run):
    """Call ``run(probe)`` between probes, so its first and last intervals
    have probes near them."""
    probe = SpeedProbe()
    for _ in range(3):
        probe.sample()
    result = run(probe)
    for _ in range(3):
        probe.sample()
    return result


class LineSink:
    """Stand-in for stdout that checks and stamps lines without keeping them.

    Each completed line is stamped when its newline arrives and compared by
    hash with the next expected line, so the harness holds one integer per
    expected word, not the text.
    """

    def __init__(self, expected_hashes: list[int], probe: SpeedProbe):
        self.expected = expected_hashes
        self.probe = probe
        self.stamps: list[float] = []
        self.resumes: list[float] = []
        self.mismatched = 0
        self._partial = ""

    def write(self, text: str) -> int:
        now = perf_counter()
        if text == "\n":
            self._line(self._partial, now)
            self._partial = ""
        elif "\n" in text:
            *lines, self._partial = (self._partial + text).split("\n")
            for line in lines:
                self._line(line, now)
        else:
            self._partial += text
            return len(text)
        self.resumes[-1] = self.probe.maybe(perf_counter())
        return len(text)

    def _line(self, line: str, now: float) -> None:
        i = len(self.stamps)
        self.stamps.append(now)
        self.resumes.append(now)
        if i >= len(self.expected) or hash(line) != self.expected[i]:
            self.mismatched += 1

    def flush(self) -> None:
        pass


def _run_cli(argv: list[str], expected_hashes: list[int]) -> Iteration:
    def run(probe):
        sink = LineSink(expected_hashes, probe)
        start = perf_counter()
        with contextlib.redirect_stdout(sink):
            status = cli.main(argv)
        end = perf_counter()
        if sink._partial:  # an unterminated last line is one more wrong word
            sink._line(sink._partial, end)
        expected = len(expected_hashes)
        received = len(sink.stamps)
        checked = max(expected, received)
        failed = checked if status != 0 else sink.mismatched + max(0, expected - received)
        return Iteration(start, sink.stamps, sink.resumes, end, checked, failed, probe)

    return _bracketed(run)


class DenseCross:
    """Random NFA as automaton-file text; first WORDS words of length LENGTH.

    Replay and the successor merge do almost all the work; the tables cost
    about a twentieth of an iteration. Every state gets the same number of
    transitions, spread evenly over the symbols with random targets, which
    halves the seed-to-seed spread of the work per word against fully
    uniform sampling.
    """

    name = "dense-cross"
    STATES, SYMBOLS, TRANSITIONS, INITIAL, FINAL = 200, 4, 2000, 50, 50
    LENGTH = 32
    WORDS = 1200  # over 1000 gap positions, so p99 has 10 or more beyond it

    def __init__(self, seed: int):
        rng = random.Random(seed)
        n, sigma = self.STATES, self.SYMBOLS
        base, extra = divmod(self.TRANSITIONS // n, sigma)
        triples = []
        for p in range(n):
            counts = [base + 1] * extra + [base] * (sigma - extra)
            rng.shuffle(counts)
            for a, count in enumerate(counts):
                triples += [(p, a, q) for q in rng.sample(range(n), count)]
        self.initial = frozenset(rng.sample(range(n), self.INITIAL))
        self.final = frozenset(rng.sample(range(n), self.FINAL))
        glyphs = "abcd"[:sigma]
        lines = [
            f"alphabet {' '.join(glyphs)}",
            f"states {n}",
            "initial " + " ".join(map(str, sorted(self.initial))),
            "final " + " ".join(map(str, sorted(self.final))),
        ]
        lines += [f"{p} {glyphs[a]} {q}" for p, a, q in triples]
        self.text = "\n".join(lines) + "\n"
        self.delta: dict[tuple[int, int], set[int]] = {}
        for p, a, q in triples:
            self.delta.setdefault((p, a), set()).add(q)
        self.expected = self.WORDS

    def run_once(self) -> Iteration:
        return _bracketed(self._run)

    def _run(self, probe: SpeedProbe) -> Iteration:
        stamps: list[float] = []
        resumes: list[float] = []
        words = []
        start = perf_counter()
        nfa = fileformat.parse_automaton(self.text)
        cursor = enumeration.CrossSectionCursor(nfa, self.LENGTH)
        for _ in range(self.WORDS):
            word = cursor.next()
            now = perf_counter()
            if word is enumeration.EXHAUSTED:
                break
            stamps.append(now)
            words.append(word)
            resumes.append(probe.maybe(perf_counter()))
        end = resumes[-1] if resumes else perf_counter()
        failed = self.WORDS - len(words) + self._check(words)
        return Iteration(start, stamps, resumes, end, self.WORDS, failed, probe)

    def _check(self, words) -> int:
        """Count words that are rejected by subset simulation on the generated
        triples, have the wrong length, or do not strictly follow their
        predecessor. Consecutive words share a prefix, so the state sets of
        that prefix are reused."""
        failed = 0
        sets = [self.initial]
        prev: tuple = ()
        for word in words:
            keep = 0
            while keep < len(prev) and keep < len(word) and prev[keep] == word[keep]:
                keep += 1
            del sets[keep + 1:]
            for a in word[keep:]:
                nxt: set[int] = set()
                for q in sets[-1]:
                    nxt |= self.delta.get((q, a), set())
                sets.append(nxt)
            if len(word) != self.LENGTH or word <= prev or self.final.isdisjoint(sets[-1]):
                failed += 1
            prev = word
        return failed


class DictRadix:
    """Alternation of WORDS_PER_LENGTH random words per length 3..12 over
    abcdefgh, enumerated by ``lexenum radix --max-length 12``.

    The language is finite with large |Q| and few words per length, so the
    per-length ``precompute`` and its |Q|^2 order levels dominate time and
    memory. A fixed number of words per length keeps |Q| the same for every
    seed.
    """

    name = "dict-radix"
    LETTERS = "abcdefgh"
    LENGTHS = range(3, 13)
    WORDS_PER_LENGTH = 25

    def __init__(self, seed: int):
        rng = random.Random(seed)
        words: set[str] = set()
        for length in self.LENGTHS:
            chosen: set[str] = set()
            while len(chosen) < self.WORDS_PER_LENGTH:
                chosen.add("".join(rng.choice(self.LETTERS) for _ in range(length)))
            words |= chosen
        order = sorted(words)
        rng.shuffle(order)
        self.pattern = "|".join(order)
        reference = sorted(words, key=lambda w: (len(w), w))
        self.expected_hashes = [hash(w) for w in reference]
        self.expected = len(reference)
        self.argv = ["radix", "--regex", self.pattern, "--max-length", str(max(self.LENGTHS))]

    def run_once(self) -> Iteration:
        return _run_cli(self.argv, self.expected_hashes)


class TinyStream:
    """``lexenum enum`` on a small fixed regex at length 40, first WORDS words.

    The cross-section holds about 3^40 words and the automaton is tiny, so
    per-word fixed costs dominate. The input does not depend on the seed.
    """

    name = "tiny-stream"
    PATTERN = "(a|b|c)*b(a|c)*"
    LENGTH = 40
    WORDS = 5000

    def __init__(self, seed: int):
        matcher = re.compile(self.PATTERN)
        candidates = ("".join(w) for w in itertools.product("abc", repeat=self.LENGTH))
        reference = itertools.islice(filter(matcher.fullmatch, candidates), self.WORDS)
        self.expected_hashes = [hash(w) for w in reference]
        self.expected = self.WORDS
        self.argv = ["enum", "--regex", self.PATTERN, "--length", str(self.LENGTH),
                     "--limit", str(self.WORDS)]

    def run_once(self) -> Iteration:
        return _run_cli(self.argv, self.expected_hashes)


WORKLOADS = {w.name: w for w in (DenseCross, DictRadix, TinyStream)}
