import io
import os
import random
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

from lexenum import cli
from lexenum import compile_regex, cross_section, radix_words
from lexenum.cli import main
from lexenum.enumeration import EXHAUSTED, CrossSectionCursor
from lexenum.instrument import counting
from lexenum.oracle import cross_section_bruteforce

A1_TEXT = """\
alphabet a b
states 2
initial 0
final 1
0 a 0
0 b 1
1 a 1
"""


@pytest.fixture
def a1_file(tmp_path):
    path = tmp_path / "a1.nfa"
    path.write_text(A1_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnum:
    def test_from_file(self, capsys, a1_file):
        code, out, err = run(capsys, "enum", "--automaton", a1_file, "--length", "2")
        assert (code, out) == (0, "ab\nba\n")

    def test_from_file_with_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "a1-bom.nfa"
        path.write_bytes(b"\xef\xbb\xbf" + A1_TEXT.encode())
        code, out, err = run(capsys, "enum", "--automaton", str(path), "--length", "2")
        assert (code, out, err) == (0, "ab\nba\n", "")

    def test_from_regex_with_limit(self, capsys):
        code, out, _ = run(
            capsys, "enum", "--regex", "a*ba*", "--length", "3", "--limit", "2"
        )
        assert (code, out) == (0, "aab\naba\n")

    def test_empty_output_exits_zero(self, capsys, a1_file):
        code, out, err = run(capsys, "enum", "--automaton", a1_file, "--length", "0")
        assert (code, out, err) == (0, "", "")

    def test_epsilon_prints_empty_line(self, capsys):
        code, out, _ = run(capsys, "enum", "--regex", "a*", "--length", "0")
        assert (code, out) == (0, "\n")

    def test_parse_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.nfa"
        bad.write_text("alphabet a\nstates 1\n0 z 0\n")
        code, out, err = run(capsys, "enum", "--automaton", str(bad), "--length", "1")
        assert code == 2
        assert out == ""
        assert "line 3" in err and "'z'" in err
        # Each of these ends in a diagnostic, not a traceback: a non-UTF-8
        # byte (even in a comment), a superscript digit, Arabic-Indic digits,
        # and a state count beyond any index.
        for data, expected in [
            (b"alphabet a\nstates 1 # \xff\n", "line 2"),
            ("alphabet a\nstates \u00b2\n".encode(), "line 2"),
            ("alphabet a\nstates \u0661\u0662\n".encode(), "line 2"),
            (b"alphabet a\nstates 99999999999999999999999999\n", "state count"),
        ]:
            bad.write_bytes(data)
            code, out, err = run(capsys, "enum", "--automaton", str(bad), "--length", "1")
            assert (code, out) == (2, ""), data
            assert err.startswith("error:") and expected in err, (data, err)

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "enum", "--automaton", "/nonexistent", "--length", "1")
        assert code == 2
        assert "error" in err

    def test_regex_error_exits_two(self, capsys):
        # The last pattern, a starred alternation of 1000 words of 3..15
        # letters, would compile to about 9000 states and 10^6 transitions:
        # the transition cap rejects it before the star adds those links.
        rng = random.Random(1)
        words = [
            "".join(rng.choice("abcdefgh") for _ in range(rng.randint(3, 15)))
            for _ in range(1000)
        ]
        for pattern in ("(a", "(" * 400 + "a" + ")" * 400, "(" + "|".join(words) + ")*"):
            t0 = time.perf_counter()
            code, out, err = run(capsys, "enum", "--regex", pattern, "--length", "1")
            assert time.perf_counter() - t0 < 1.0
            assert (code, out) == (2, "")
            # One diagnostic line, no traceback.
            assert err.startswith("error:") and err.count("\n") == 1
            assert "position" in err

    def test_out_of_memory_exits_two(self, capsys, monkeypatch):
        def exhausted(nfa, length):
            raise MemoryError

        monkeypatch.setattr(cli, "precompute", exhausted)
        code, out, err = run(capsys, "enum", "--regex", "a*", "--length", "3")
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_requires_exactly_one_input(self, capsys, a1_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["enum", "--automaton", a1_file, "--regex", "a", "--length", "1"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["enum", "--length", "1"])
        assert excinfo.value.code == 2
        # --random is one of bench's exclusive inputs, and only bench's.
        for argv in [
            ["bench", "--regex", "a", "--random", "2,1,1", "--length", "1"],
            ["enum", "--random", "2,1,1", "--length", "1"],
            ["radix", "--random", "2,1,1"],
        ]:
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv

    def test_count_ops_does_not_change_output(self, capsys, a1_file):
        _, plain, _ = run(capsys, "enum", "--automaton", a1_file, "--length", "3")
        code, counted, err = run(
            capsys, "enum", "--automaton", a1_file, "--length", "3", "--count-ops"
        )
        assert code == 0
        assert counted == plain == "aab\naba\nbaa\n"
        assert "preproc=" in err

    def test_count_ops_preproc_includes_the_automaton_layout(self, capsys):
        # The layout of a's two-state automaton costs 5 of the 11 units, as
        # in bench's preproc_ops.
        code, out, err = run(capsys, "enum", "--regex", "a", "--length", "1", "--count-ops")
        assert (code, out, err) == (0, "a\n", "# ops: preproc=11, enumeration=5\n")
        code, bench, _ = run(capsys, "bench", "--regex", "a", "--length", "1")
        assert bench.startswith("# l=1, Q=2, sigma=1, delta=1, preproc_ops=11, ")

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["enum", "--regex", "a", "--length", "-1"], "--length"),
            (["enum", "--regex", "a", "--length", "1", "--limit", "0"], "--limit"),
            (["radix", "--regex", "a", "--limit", "0"], "--limit"),
        ],
    )
    def test_bad_argument_exits_two_naming_the_option(self, capsys, argv, option):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {option}: " in err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["enum", "--regex", "a", "--length", "abc"], "--length"),
            (["enum", "--regex", "a", "--length", "1", "--limit", "x"], "--limit"),
            (["radix", "--regex", "a", "--max-length", "1.5"], "--max-length"),
            (["bench", "--regex", "a", "--length", "2", "--limit", ""], "--limit"),
        ],
    )
    def test_a_count_that_is_no_integer_exits_two_saying_so(self, capsys, argv, option):
        # The error names the option and what it expects, not the private
        # function that parses it.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {option}: expected an integer, got " in err
        assert "_nonneg" not in err and "_positive" not in err


class TestRadix:
    def test_max_length(self, capsys, a1_file):
        code, out, _ = run(capsys, "radix", "--automaton", a1_file, "--max-length", "2")
        assert (code, out) == (0, "b\nab\nba\n")

    def test_single_word_language(self, capsys):
        code, out, _ = run(capsys, "radix", "--regex", "a", "--max-length", "5")
        assert (code, out) == (0, "a\n")

    def test_limit(self, capsys, a1_file):
        code, out, _ = run(capsys, "radix", "--automaton", a1_file, "--limit", "1")
        assert (code, out) == (0, "b\n")

    def test_limit_builds_no_level_past_the_last_word(self, capsys):
        # "", "a" and "b" need levels 0 and 1; 69 is the tally of exactly
        # those plus the automaton layout's 17, so a limit that let the run
        # build level 2 would raise it.
        code, out, err = run(
            capsys, "radix", "--regex", "(a|b)*", "--limit", "3", "--count-ops"
        )
        assert (code, out) == (0, "\na\nb\n")
        assert err == "# ops: total=69\n"

    def test_unbounded_stops_after_longest_word(self, capsys):
        code, out, _ = run(capsys, "radix", "--regex", "b|ab|a(a|b)c")
        assert (code, out) == (0, "b\nab\naac\nabc\n")

    def test_count_ops_does_not_change_output(self, capsys, a1_file):
        argv = ("radix", "--automaton", a1_file, "--max-length", "3")
        _, plain, plain_err = run(capsys, *argv)
        code, counted, err = run(capsys, *argv, "--count-ops")
        assert code == 0
        assert counted == plain == "b\nab\nba\naab\naba\nbaa\n"
        assert plain_err == ""
        assert err.startswith("# ops: total=")

    def test_plain_run_keeps_an_enclosing_count(self, capsys, a1_file):
        with counting() as counter:
            code, out, _ = run(capsys, "radix", "--automaton", a1_file, "--max-length", "3")
            assert code == 0
            assert counter.enabled and counter.ops > 0


class TestSplicedLines:
    """enum and radix keep each line up to the cursor's pivot and spell only
    the rest; the bytes equal every word spelled whole."""

    def test_enum_matches_whole_spelling(self, capsys):
        pattern = "(a|b|c)*b(a|c)*"
        nfa = compile_regex(pattern)
        code, out, _ = run(
            capsys, "enum", "--regex", pattern, "--length", "40", "--limit", "5000"
        )
        words = islice(cross_section(nfa, 40), 5000)
        assert code == 0
        assert out == "".join(nfa.format_word(w) + "\n" for w in words)

    def test_radix_matches_whole_spelling(self, capsys):
        # The empty word comes first, and each length starts a new line.
        for pattern, argv in [
            ("(b|ab|ba|abc|bca|cab|cba)?", ()),
            ("(a|b|c)*b(a|c)*", ("--max-length", "6")),
        ]:
            nfa = compile_regex(pattern)
            code, out, _ = run(capsys, "radix", "--regex", pattern, *argv)
            words = radix_words(nfa, 6)
            assert code == 0
            assert out == "".join(nfa.format_word(w) + "\n" for w in words), pattern
        assert out.startswith("b\nab\nba\nbb\nbc\ncb\naab\n")


class TestSpelledFromThePivot:
    """A line whose word changed only at its last letter takes that one
    glyph; any other line spells the word from its pivot on. Either way,
    enum and radix print exactly every oracle word spelled whole: at
    lengths 0, 1, 2 and 5 and radix to length 4, on a bit-kernel and a
    list-kernel automaton. That covers length-1 cursors, whose last
    position is position 0, a radix cursor's first word after the previous
    length's last line, and pivots before the last position."""

    @pytest.mark.parametrize("pattern, kernel", [("(a|b|c)*b(a|c)*", "bit"), ("(a|b)*", "list")])
    def test_lines_equal_the_oracle_words_spelled_whole(self, capsys, pattern, kernel):
        nfa = compile_regex(pattern)
        assert nfa.kernel == kernel
        for length in (0, 1, 2, 5):
            code, out, err = run(capsys, "enum", "--regex", pattern, "--length", str(length))
            words = cross_section_bruteforce(nfa, length)
            assert (code, err) == (0, "")
            assert out == "".join(nfa.format_word(w) + "\n" for w in words), length
        code, out, err = run(capsys, "radix", "--regex", pattern, "--max-length", "4")
        words = [w for length in range(5) for w in cross_section_bruteforce(nfa, length)]
        assert (code, err) == (0, "")
        assert out == "".join(nfa.format_word(w) + "\n" for w in words)
        # Length 5 has lines of both kinds.
        cursor = CrossSectionCursor(nfa, 5)
        pivots = {cursor.pivot == 4 for _ in cursor}
        assert pivots == {True, False}


class TestLineBreakGlyphs:
    """A word holding a glyph that str.splitlines breaks on would print as
    several lines, so enum and radix refuse such an automaton before any
    word is written; bench prints no words and runs as before."""

    # U+000A..U+000D, U+001C..U+001E, U+0085, U+2028 and U+2029.
    GLYPHS = "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"

    @pytest.mark.parametrize("command", [("enum", "--length", "1"), ("radix",)])
    def test_enum_and_radix_exit_two_before_any_word(self, capsys, command):
        for glyph in self.GLYPHS:
            code, out, err = run(capsys, command[0], "--regex", f"a{glyph}b|c", *command[1:])
            assert (code, out) == (2, ""), glyph
            assert err.startswith("error:") and repr(glyph) in err, (glyph, err)

    def test_bench_is_unchanged(self, capsys):
        code, out, _ = run(capsys, "bench", "--regex", "a\nb|c", "--length", "1")
        assert code == 0
        assert out.splitlines()[1] == "index,word_len,op_count,wall_nanos"

    def test_space_glyph_still_prints(self, capsys):
        code, out, _ = run(capsys, "radix", "--regex", "a b|c")
        assert (code, out) == (0, "c\na b\n")
        code, out, _ = run(capsys, "enum", "--regex", "a b|c", "--length", "3")
        assert (code, out) == (0, "a b\n")


class TestUnencodableGlyphs:
    """A glyph that standard output's encoding cannot write would stop the
    stream with a traceback once a word holds it, so enum and radix refuse
    such an automaton before any word is written, whether standard output
    is a subprocess's ASCII stream or an ASCII text wrapper in process."""

    @pytest.mark.parametrize(
        "command", [("enum", "--regex", "é", "--length", "1"), ("radix", "--regex", "a|é")]
    )
    def test_enum_and_radix_exit_two_before_any_word(self, command):
        # The subprocess does not see pytest's pythonpath setting, so it is
        # given the checkout's src/ explicitly.
        src = str(Path(__file__).resolve().parents[1] / "src")
        inherited = os.environ.get("PYTHONPATH")
        env = {
            **os.environ,
            "PYTHONIOENCODING": "ascii",
            "PYTHONPATH": src + os.pathsep + inherited if inherited else src,
        }
        proc = subprocess.run(
            [sys.executable, "-m", "lexenum", *command], capture_output=True, timeout=30, env=env
        )
        assert (proc.returncode, proc.stdout) == (2, b""), proc.stderr
        assert proc.stderr.startswith(b"error: symbol ")
        assert b"cannot be written in the output encoding ascii" in proc.stderr

    @pytest.mark.parametrize(
        "command", [("enum", "--regex", "é|a", "--length", "1"), ("radix", "--regex", "é|a")]
    )
    def test_refused_in_process_on_an_ascii_stdout(self, capsys, monkeypatch, command):
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(list(command)) == 2
        stdout.flush()
        assert stdout.buffer.getvalue() == b""
        assert capsys.readouterr().err == (
            "error: symbol 'é' cannot be written in the output encoding ascii\n"
        )


class TestClosedPipe:
    """A reader that closes the pipe early, as ``| head`` does, ends enum and
    radix with exit 0 and nothing on stderr."""

    @pytest.mark.parametrize(
        "command,first_line",
        [
            (("enum", "--regex", "(a|b)*", "--length", "20"), b"a" * 20 + b"\n"),
            (("radix", "--regex", "(a|b)*"), b"\n"),
        ],
        ids=["enum", "radix"],
    )
    def test_exits_zero_when_the_reader_closes_the_pipe(self, command, first_line):
        # The subprocess does not see pytest's pythonpath setting, so it is
        # given the checkout's src/ explicitly.
        src = str(Path(__file__).resolve().parents[1] / "src")
        inherited = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + inherited if inherited else src}
        proc = subprocess.Popen(
            [sys.executable, "-m", "lexenum", *command],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        err = proc.stderr.read()
        proc.stderr.close()
        assert first == first_line
        assert (code, err) == (0, b"")


class TestBench:
    def test_csv_shape(self, capsys, a1_file):
        code, out, _ = run(capsys, "bench", "--automaton", a1_file, "--length", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# l=2, Q=2, sigma=2, delta=3, preproc_ops=")
        assert lines[1] == "index,word_len,op_count,wall_nanos"
        data = [l for l in lines[2:] if not l.startswith("#")]
        assert len(data) == 2
        for i, row in enumerate(data):
            index, word_len, op_count, wall = (int(x) for x in row.split(","))
            assert index == i
            assert word_len == 2
            assert op_count <= 2 * 2 * 3  # pinned delay constant * l * delta
            assert wall >= 0
        # the run exhausted the cross-section, so the final gap is reported
        assert lines[-1].startswith("# final_gap_ops=")

    def test_empty_language_has_headers_only(self, capsys):
        code, out, _ = run(capsys, "bench", "--regex", "a", "--length", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "index,word_len,op_count,wall_nanos"
        assert [l for l in lines[2:] if not l.startswith("#")] == []

    def test_random_instance_is_seed_deterministic(self, capsys):
        code, first, _ = run(
            capsys, "bench", "--random", "10,3,40", "--seed", "7", "--length", "4",
            "--limit", "5",
        )
        assert code == 0
        _, second, _ = run(
            capsys, "bench", "--random", "10,3,40", "--seed", "7", "--length", "4",
            "--limit", "5",
        )
        strip = lambda text: [l.split(",")[:3] for l in text.splitlines() if "," in l]
        assert strip(first) == strip(second)

    def test_unlimited_run_streams_rows_in_bounded_memory(self):
        # (a|b)* at length 30 has 2**30 rows. Under a 300 MB address-space
        # cap the rows must come out as they are measured, and closing the
        # pipe after 1000 of them must end the run with exit 0; a run that
        # held every record would print nothing and run out of memory.
        resource = pytest.importorskip("resource")
        cap = 300 * 2**20

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        # The subprocess does not see pytest's pythonpath setting, so it is
        # given the checkout's src/ explicitly.
        src = str(Path(__file__).resolve().parents[1] / "src")
        inherited = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + inherited if inherited else src}
        proc = subprocess.Popen(
            [sys.executable, "-m", "lexenum", "bench", "--regex", "(a|b)*", "--length", "30"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            preexec_fn=limit_memory,
        )
        try:
            header = proc.stdout.readline()
            columns = proc.stdout.readline()
            rows = [proc.stdout.readline() for _ in range(1000)]
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        err = proc.stderr.read()
        proc.stderr.close()
        assert header.startswith(b"# l=30, Q=3, sigma=2, delta=6, preproc_ops="), err
        assert columns == b"index,word_len,op_count,wall_nanos\n"
        assert [row.split(b",")[:2] for row in rows] == [[b"%d" % i, b"30"] for i in range(1000)]
        assert code == 0, err

    def test_bad_random_spec(self, capsys):
        # A spec that is not three integers is argparse's to refuse.
        for spec in ["10,3", "a,b,c", "1,2,3,4"]:
            with pytest.raises(SystemExit) as excinfo:
                main(["bench", "--random", spec, "--length", "2"])
            assert excinfo.value.code == 2, spec
            assert "argument --random: " in capsys.readouterr().err, spec
        # Sizes out of range are random_automaton's to refuse, before the
        # CSV header is written, naming each size as --random's help does.
        for spec, message in [
            ("0,2,3", "states must be at least 1, got 0"),
            ("3,0,3", "symbols must be in 1..62, got 0"),
            ("3,63,3", "symbols must be in 1..62, got 63"),
            ("3,2,-1", "transitions must be non-negative, got -1"),
            ("3037000500,2,5", "states must be at most 2147483647 for 2 symbols, got 3037000500"),
        ]:
            code, out, err = run(capsys, "bench", "--random", spec, "--length", "2")
            assert (code, out, err) == (2, "", f"error: {message}\n"), spec


class _RecordingStdout:
    """Stand-in for stdout that keeps the text of each write separately."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


class TestOneWritePerLine:
    """Each line goes out in one write, and enum pulls no word past its
    limit."""

    def test_enum_writes_and_pulls_exactly_limit_words(self, monkeypatch):
        calls = []
        step = CrossSectionCursor.next

        def counted(self):
            calls.append(1)
            return step(self)

        monkeypatch.setattr(CrossSectionCursor, "next", counted)
        out = _RecordingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        code = main(["enum", "--regex", "(a|b|c)*b(a|c)*", "--length", "6", "--limit", "3"])
        assert code == 0
        assert out.writes == ["aaaaab\n", "aaaaba\n", "aaaabb\n"]
        assert len(calls) == 3

    def test_radix_writes_and_pulls_exactly_limit_words(self, monkeypatch):
        """Each length's cursor is pulled until it returns EXHAUSTED, but the
        last one no further than the limit's word. (a|b)* has the empty word;
        (a|b|c)*b(a|c)* has none, one word of length 1 and six of length 2."""
        returned = []
        step = CrossSectionCursor.next

        def recorded(self):
            returned.append(step(self))
            return returned[-1]

        monkeypatch.setattr(CrossSectionCursor, "next", recorded)
        for pattern, limit, lines, exhausted in [
            ("(a|b)*", 1, ["\n"], 0),
            ("(a|b)*", 3, ["\n", "a\n", "b\n"], 1),
            ("(a|b|c)*b(a|c)*", 4, ["b\n", "ab\n", "ba\n", "bb\n"], 2),
        ]:
            out = _RecordingStdout()
            monkeypatch.setattr(sys, "stdout", out)
            returned.clear()
            code = main(["radix", "--regex", pattern, "--limit", str(limit)])
            assert code == 0
            assert out.writes == lines
            assert len(returned) == limit + exhausted
            assert returned.count(EXHAUSTED) == exhausted
            assert returned[-1] is not EXHAUSTED

    def test_bench_writes_each_csv_line_whole(self, monkeypatch):
        out = _RecordingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["bench", "--regex", "(a|b)*", "--length", "4", "--limit", "2"]) == 0
        assert len(out.writes) == 4
        for text in out.writes:
            assert text.endswith("\n") and text.count("\n") == 1, out.writes
