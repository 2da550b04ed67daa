import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lexenum

API = [
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

# Engine internals and the brute-force referee, each importable from its own
# module only.
MODULE_ONLY = [
    ("automaton", "delta_step"),
    ("enumeration", "build_run_stack"),
    ("enumeration", "min_word"),
    ("enumeration", "next_word"),
    ("oracle", "OracleCapExceeded"),
    ("oracle", "cross_section_bruteforce"),
    ("oracle", "member"),
    ("oracle", "min_word_oracle"),
    ("oracle", "min_words_by_state"),
]


def test_package_exports_its_documented_api():
    assert lexenum.__all__ == API
    for name in API:
        assert hasattr(lexenum, name), name


@pytest.mark.parametrize("module, name", MODULE_ONLY)
def test_internals_live_in_their_modules_only(module, name):
    assert not hasattr(lexenum, name)
    assert hasattr(importlib.import_module(f"lexenum.{module}"), name)


def test_importing_the_package_and_cli_loads_no_referee():
    # This process has imported the oracle already, so a fresh interpreter
    # checks what the import pulls in. It does not see pytest's pythonpath
    # setting, so it is given the checkout's src/ explicitly.
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + inherited if inherited else src}
    code = (
        "import sys, lexenum, lexenum.cli; "
        "print(sorted({'lexenum.oracle', 'hypothesis', 'pytest'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30, env=env
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def _perfbench_module(name, monkeypatch):
    """perfbench/<name>.py, loaded under its plain name, as perfbench/run.py
    imports it: spans.py imports workloads by that name, and the workloads'
    dataclasses look their module up in sys.modules."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_perfbench_traces_one_iteration_on_each_kernel(monkeypatch):
    """perfbench/spans.py wraps every lexenum name it reads by getattr, so a
    src/ change that renames one fails here, not only in perfbench's traced
    run. Traced, one dict-radix iteration, on the list kernel, and one
    tiny-stream iteration, on the bit kernel, check every word and keep
    every gap within DELAY_C * l * |delta| operations; on dict-radix, which
    never seeks, the positions build_run_stack replays equal the
    delta_step calls."""
    workloads = _perfbench_module("workloads", monkeypatch)
    spans = _perfbench_module("spans", monkeypatch)
    for name in ("dict-radix", "tiny-stream"):
        tracer = spans.Tracer()
        with spans.traced(tracer):
            iteration = workloads.WORKLOADS[name](1).run_once()
        assert iteration.checked and not iteration.failed, name
        assert tracer.facts["over_delay_bound"] == 0, name
        metrics = spans.layer_metrics(tracer, lambda a, b: b - a)
        assert metrics["enumeration.next_calls"] > 0, name
        if name == "dict-radix":
            assert metrics["automaton.delta_step_calls"] == metrics["enumeration.replay_positions"]
