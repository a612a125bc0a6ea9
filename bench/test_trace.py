"""Self-test of the span recorder on a program small enough to run in a
unit test: wrappers installed and removed by identity, and the recorded
spans consistent."""

import subprocess
import sys
from pathlib import Path

import repro
from repro.engine import expand, program

from bench.trace import ROOT_LAYER, Tracer

RULES = """
def Path(x, y) : E(x, y)
def Path(x, y) : exists((z) | E(x, z) and Path(z, y))
"""


def _closure_pass():
    session = repro.connect(load_stdlib=False)
    session.define("E", [(i, i + 1) for i in range(20)])
    session.load(RULES)
    assert len(session.relation("Path")) == 210
    session.insert("E", [(20, 21)])
    assert len(session.relation("Path")) == 231
    session.close()


def test_install_rebinds_aliases_and_uninstall_restores_them():
    original = expand.eval_rule_relation
    method = vars(program.RelProgram)["relation"]
    assert program.eval_rule_relation is original  # a from-import alias
    tracer = Tracer()
    tracer.install()
    try:
        assert expand.eval_rule_relation is not original
        assert program.eval_rule_relation is expand.eval_rule_relation
        assert vars(program.RelProgram)["relation"] is not method
    finally:
        tracer.uninstall()
    assert expand.eval_rule_relation is original
    assert program.eval_rule_relation is original
    assert vars(program.RelProgram)["relation"] is method
    assert tracer.problems() == []


def test_spans_of_a_traced_pass_are_consistent():
    tracer = Tracer()
    tracer.install()
    try:
        _closure_pass()            # outside a pass: nothing is recorded
        assert tracer.spans == []
        for pass_id in range(2):
            tracer.begin(pass_id)
            _closure_pass()
            tracer.end()
    finally:
        tracer.uninstall()
    assert tracer.problems() == []
    roots = [s for s in tracer.spans if s[0] == ROOT_LAYER]
    assert [s[4] for s in roots] == [0, 1]
    seconds, calls = tracer.by_layer()
    for layer in ("lang.parse", "engine.program.evaluate",
                  "engine.program.apply_updates", "engine.expand.rule_eval"):
        assert calls[layer] > 0 and seconds[layer] > 0
    # Self times partition each pass: they add up to the roots' durations.
    walls = sum(s[2] - s[1] for s in roots)
    assert abs(sum(seconds.values()) - walls) < 1e-6 * len(tracer.spans)
    # A span directly inside one of its own layer is not recorded again.
    assert all(s[3] is None or s[3][0] != s[0] for s in tracer.spans)


def test_problems_reports_wrappers_left_in_place():
    tracer = Tracer()
    tracer.install()
    try:
        assert any("not the original" in p for p in tracer.problems())
    finally:
        tracer.uninstall()
    assert tracer.problems() == []


def test_untraced_run_imports_no_tracing_code():
    code = ("import sys, bench.run, bench.workloads, bench.manifest_check; "
            "sys.exit('bench.trace' in sys.modules)")
    root = Path(__file__).resolve().parent.parent
    assert subprocess.run([sys.executable, "-c", code], cwd=root).returncode == 0
