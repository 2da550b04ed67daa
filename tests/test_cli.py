import random
import time

import pytest

from lexenum import cli
from lexenum.cli import main
from lexenum.instrument import counting

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

    def test_count_ops_does_not_change_output(self, capsys, a1_file):
        _, plain, _ = run(capsys, "enum", "--automaton", a1_file, "--length", "3")
        code, counted, err = run(
            capsys, "enum", "--automaton", a1_file, "--length", "3", "--count-ops"
        )
        assert code == 0
        assert counted == plain == "aab\naba\nbaa\n"
        assert "preproc=" in err


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
        # "", "a" and "b" need levels 0 and 1; 64 is the tally of exactly
        # those, so a limit that let the run build level 2 would raise it.
        code, out, err = run(
            capsys, "radix", "--regex", "(a|b)*", "--limit", "3", "--count-ops"
        )
        assert (code, out) == (0, "\na\nb\n")
        assert err == "# ops: total=64\n"

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

    def test_bad_random_spec(self, capsys):
        for spec in ["10,3", "0,2,3", "3,0,3", "3,63,3", "3,2,-1"]:
            with pytest.raises(SystemExit) as excinfo:
                main(["bench", "--random", spec, "--length", "2"])
            assert excinfo.value.code == 2, spec
            assert "--random" in capsys.readouterr().err, spec
