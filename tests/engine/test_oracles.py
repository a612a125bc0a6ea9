"""The engine ships one evaluation configuration; oracles are test-side.

Pinned here:

- the product surface: ``EngineOptions`` holds only the iteration limit,
  and neither ``connect`` nor ``Session`` takes or exposes a join-strategy,
  maintenance or columnar knob;
- every manager in ``tests/support/oracles.py`` puts its patch point back
  on exit, after an exception too;
- without numpy the engine runs the row plane: a typed closure with an
  insert and a delete engages no kernel, even under
  ``oracles.kernels_forced``, and answers as a session with the plane.
  CI also runs this file where numpy is not installed at all.
"""

import contextlib
import dataclasses
import functools

import pytest

from support import oracles

from repro import Session, connect
from repro.engine import expand
from repro.engine import program as program_mod
from repro.engine.program import EngineOptions, RelProgram
from repro.joins import planner
from repro.model import columns


def test_engine_options_hold_only_the_iteration_limit():
    assert [f.name for f in dataclasses.fields(EngineOptions)] == [
        "max_global_iterations"]


@pytest.mark.parametrize("knob", ["join_strategy", "maintenance", "columnar"])
def test_no_session_knob_selects_an_evaluation_path(knob):
    with pytest.raises(TypeError):
        connect(load_stdlib=False, **{knob: "auto"})
    assert not hasattr(Session, knob)
    assert not hasattr(connect(load_stdlib=False), knob)


PATCH_POINTS = {
    "leapfrog": (functools.partial(oracles.join_strategy, "leapfrog"),
                 planner, "choose_strategy"),
    "binary": (functools.partial(oracles.join_strategy, "binary"),
               planner, "choose_strategy"),
    "no_multiway": (oracles.no_multiway, expand, "_schedule_multiway"),
    "recompute": (oracles.recompute, RelProgram, "_try_maintain"),
    "unkeyed": (oracles.unkeyed, RelProgram, "_maintain_keyed"),
    "always_delta": (oracles.always_delta, program_mod,
                     "_delta_replaces_most"),
    "interpreted": (oracles.interpreted, expand, "_plan_state"),
    "kernels_forced": (oracles.kernels_forced, expand, "_kernel_wanted"),
    "row_plane": (oracles.row_plane, expand, "_kernel_wanted"),
}


@pytest.mark.parametrize("path", sorted(PATCH_POINTS))
def test_oracle_restores_its_patch_point(path):
    oracle, owner, name = PATCH_POINTS[path]
    original = vars(owner)[name]
    with oracle():
        assert vars(owner)[name] is not original
    assert vars(owner)[name] is original
    with pytest.raises(RuntimeError):
        with oracle():
            raise RuntimeError("inside the block")
    assert vars(owner)[name] is original


TC_RULES = """
    def TCr(x, y) : E(x, y)
    def TCr(x, y) : exists((z) | E(x, z) and TCr(z, y))
"""


def _typed_closure_script():
    """A closure over an int column past the kernel size floor, then one
    insert and one delete; the session and its three readings."""
    session = connect(load_stdlib=False)
    session.define("E", [(i, i + 1) for i in range(80)])
    session.load(TC_RULES)
    readings = [session.relation("TCr")]
    session.insert("E", [(200, 201), (201, 0)])
    readings.append(session.relation("TCr"))
    session.delete("E", [(40, 41)])
    readings.append(session.relation("TCr"))
    return session, readings


def _kernel_events(session):
    return {event for event in session.columnar_statistics()
            if not event.endswith("_fallback")}


def test_without_numpy_every_path_is_the_row_plane(monkeypatch):
    plane, want = _typed_closure_script()
    if columns.available():
        assert _kernel_events(plane), "the unpatched session ran no kernel"
    monkeypatch.setattr(columns, "KERNELS_AVAILABLE", False)
    for block in (contextlib.nullcontext, oracles.kernels_forced):
        with block():
            session, got = _typed_closure_script()
        assert got == want
        assert not _kernel_events(session), session.columnar_statistics()
        assert "columnar" not in session.join_statistics()
