"""Traced iterations: one span per call of each wrapped lexenum function.

The wrappers live here, not in lexenum. Each replaces the name that the
calling module looks up (``enumeration.delta_step`` for the calls made by
``build_run_stack``, ``cli.compile_regex`` for the CLI, and so on) for the
length of one traced iteration, and is removed afterwards. Operation counts
come from ``lexenum.instrument``, read at the same span boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

from lexenum import automaton, cli, enumeration, fileformat, instrument, regex

from workloads import LineSink

# Same value as DELAY_C in tests/test_acceptance.py: every gap between two
# outputs must cost at most DELAY_C * l * |delta| operations.
DELAY_C = 2.0


class Tracer:
    """Spans of one iteration, kept in parallel arrays until it ends."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ops_in = array("q")
        self.ops_out = array("q")
        self.facts: defaultdict[str, float] = defaultdict(int)
        self._open = -1

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def enter(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open)
        self.end.append(0.0)
        self.ops_out.append(0)
        self.ops_in.append(instrument.ops.ops)
        self._open = i
        self.start.append(perf_counter())
        return i

    def exit(self, i: int) -> int:
        """Close span ``i`` and return the operations counted inside it."""
        self.end[i] = perf_counter()
        ops = instrument.ops.ops
        self.ops_out[i] = ops
        self._open = self.parent[i]
        return ops - self.ops_in[i]

    def totals(self, scaled) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, total and self ops.

        ``scaled(a, b)`` turns an interval into seconds at reference speed.
        Self time is a span's duration minus the durations of its children;
        children never overlap because the program is single-threaded.
        """
        n = len(self.start)
        dur = [scaled(a, b) for a, b in zip(self.start, self.end)]
        child_s = [0.0] * n
        child_ops = [0] * n
        parent, ops_in, ops_out = self.parent, self.ops_in, self.ops_out
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_s[p] += dur[i]
                child_ops[p] += ops_out[i] - ops_in[i]
        out = {name: dict(calls=0, total_s=0.0, self_s=0.0, ops=0, self_ops=0)
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            ops = ops_out[i] - ops_in[i]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child_s[i]
            row["ops"] += ops
            row["self_ops"] += ops - child_ops[i]
        return out

    def write_spans(self, path) -> None:
        """Write every span as CSV, times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as out:
            out.write("id,name,parent,start_s,end_s,ops\n")
            for i in range(len(self.start)):
                out.write(f"{i},{self.names[self.name[i]]},{self.parent[i]},"
                          f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                          f"{self.ops_out[i] - self.ops_in[i]}\n")


# Observers record facts about a call from its arguments and result.

def _regex_size(facts, args, nfa, ops):
    facts["regex_states"] += nfa.state_count
    facts["regex_transitions"] += nfa.transition_count


def _tables_size(facts, args, tables, ops):
    facts["levels_built"] += tables.length + 1
    facts["fill_ops"] += tables.fill_ops
    facts["table_bytes"] = max(facts["table_bytes"], _deep_size(tables))


def _deep_size(root) -> int:
    """Bytes of ``root`` and of every list, tuple, dict or set it reaches,
    each object counted once; the layout of the tables does not matter."""
    seen = {id(root)}
    todo = [root]
    total = 0
    while todo:
        obj = todo.pop()
        total += sys.getsizeof(obj)
        if obj is root or type(obj) in (list, tuple, dict, set, frozenset):
            for ref in gc.get_referents(obj):
                if id(ref) not in seen and not isinstance(ref, type):
                    seen.add(id(ref))
                    todo.append(ref)
    return total


def _word_cost(facts, args, word, ops):
    cursor = args[0]
    facts["max_ops_per_word"] = max(facts["max_ops_per_word"], ops)
    scale = cursor.length * cursor.nfa.transition_count
    if cursor.length >= 1 and scale:
        facts["delay_bound_ratio"] = max(facts["delay_bound_ratio"], ops / scale)
        facts["over_delay_bound"] += ops > DELAY_C * scale


def _replay_size(facts, args, stack, ops):
    facts["replay_positions"] += len(args[0])


def _suffix_hit(facts, args, word, ops):
    facts["suffix_hits"] += word is not None


def _span(tracer: Tracer, name: str, fn, observe=None):
    nid = tracer.name_id(name)
    enter, leave, facts = tracer.enter, tracer.exit, tracer.facts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            ops = leave(i)
        if observe is not None:
            observe(facts, args, result, ops)
        return result

    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the span wrappers and turn operation counting on."""
    sites = [
        ((cli,), "main", "cli.main", None),
        ((cli,), "compile_regex", "regex.compile_regex", _regex_size),
        ((cli, fileformat), "parse_automaton", "fileformat.parse_automaton", None),
        ((fileformat, regex), "build_nfa", "automaton.build_nfa", None),
        ((cli, enumeration), "precompute", "tables.precompute", _tables_size),
        ((enumeration.CrossSectionCursor,), "next", "enumeration.next", _word_cost),
        ((enumeration,), "build_run_stack", "enumeration.build_run_stack", _replay_size),
        ((enumeration,), "delta_step", "automaton.delta_step", None),
        ((enumeration,), "next_word", "enumeration.next_word", None),
        ((enumeration,), "min_word", "enumeration.min_word", _suffix_hit),
        ((automaton.Nfa,), "format_word", "automaton.format_word", None),
        ((LineSink,), "write", "harness.sink", None),
    ]
    saved = []
    try:
        for owners, attr, name, observe in sites:
            original = getattr(owners[0], attr)
            wrapper = _span(tracer, name, original, observe)
            for owner in owners:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
        with instrument.counting():
            yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, scaled) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, keyed by module."""
    t = defaultdict(lambda: dict(calls=0, total_s=0.0, self_s=0.0, ops=0, self_ops=0))
    t.update(tracer.totals(scaled))
    f = tracer.facts
    suffix_calls = t["enumeration.min_word"]["calls"]
    return {
        "regex.compile_s": t["regex.compile_regex"]["self_s"],
        "regex.states": f["regex_states"],
        "regex.transitions": f["regex_transitions"],
        "fileformat.parse_s": t["fileformat.parse_automaton"]["self_s"],
        "automaton.build_s": t["automaton.build_nfa"]["self_s"],
        "automaton.layout_ops": t["automaton.build_nfa"]["ops"],
        "tables.precompute_calls": t["tables.precompute"]["calls"],
        "tables.levels_built": f["levels_built"],
        "tables.precompute_s": t["tables.precompute"]["self_s"],
        "tables.fill_ops": f["fill_ops"],
        "tables.alloc_peak_mb": f["table_bytes"] / 2**20,
        "enumeration.next_calls": t["enumeration.next"]["calls"],
        "enumeration.next_s": t["enumeration.next"]["self_s"],
        "enumeration.replay_s": t["enumeration.build_run_stack"]["self_s"],
        "enumeration.replay_ops": t["enumeration.build_run_stack"]["ops"],
        "enumeration.replay_positions": f["replay_positions"],
        "automaton.delta_step_calls": t["automaton.delta_step"]["calls"],
        "automaton.delta_step_s": t["automaton.delta_step"]["self_s"],
        "enumeration.merge_s": t["enumeration.next_word"]["self_s"],
        "enumeration.merge_ops": t["enumeration.next_word"]["self_ops"],
        "enumeration.suffix_s": t["enumeration.min_word"]["self_s"],
        "enumeration.suffix_ops": t["enumeration.min_word"]["ops"],
        "enumeration.suffix_hit_ratio": f["suffix_hits"] / suffix_calls if suffix_calls else 0.0,
        "enumeration.max_ops_per_word": f["max_ops_per_word"],
        "enumeration.delay_bound_ratio": f["delay_bound_ratio"],
        "automaton.format_s": t["automaton.format_word"]["self_s"],
        "cli.self_s": t["cli.main"]["self_s"],
    }
