"""Oracle paths: the engine's alternative evaluation paths, for tests.

The engine runs one configuration. The paths it does not take by default
stay in the code because the differential suites compare the default
against them; each manager below reaches one by patching that path's one
decision point, the way ``RelProgram._stratum_sn_eligible`` reaches Kleene
iteration:

- :func:`join_strategy` — every multiway join through ``"leapfrog"`` or
  ``"binary"`` (``repro.joins.planner.choose_strategy``);
- :func:`no_multiway` — no multiway-join extraction: the per-conjunct
  scheduler only (``repro.engine.expand._schedule_multiway``);
- :func:`recompute` — drop-and-recompute instead of incremental
  maintenance (``RelProgram._try_maintain``);
- :func:`unkeyed` — recompute-and-diff instead of keyed re-evaluation
  for a stratum the delta rules decline (``RelProgram._maintain_keyed``);
- :func:`always_delta` — delta maintenance even when an update replaces
  most of a relation (``repro.engine.program._delta_replaces_most``);
- :func:`interpreted` — no plan cache: every evaluation interpreted from
  the AST (``repro.engine.expand._plan_state``), and no hash index cached
  for the binary joins (``atom_index``);
- :func:`kernels_forced` / :func:`row_plane` — the columnar kernels at any
  input size / never (``repro.engine.expand._kernel_wanted``). Without the
  typed plane (no numpy, ``REPRO_COLUMNAR=off``) both are the default.

A patch is process-wide, and evaluation is lazy: writes maintain extents
eagerly, reads evaluate on demand. A session meant to run under an oracle
must therefore make *every* call inside the block — its writes as well as
its reads. :func:`under` does that for a session that lives beside an
unpatched twin; a test with threads holds one block for its whole body.
"""

import contextlib
import functools

from repro.api import PreparedQuery, Session, Snapshot, SnapshotQuery
from repro.engine import expand
from repro.engine import program as program_mod
from repro.engine.program import EvalState
from repro.engine.snapshot import SnapshotState
from repro.joins import planner
from repro.model import columns


@contextlib.contextmanager
def _patched(owner, name, value):
    """``owner.name`` is ``value`` inside the block and its own again after
    it, however the block exits."""
    original = vars(owner)[name]
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


def join_strategy(strategy):
    """Route every multiway join through ``strategy``."""
    if strategy not in ("leapfrog", "binary"):
        raise ValueError(f"no join strategy {strategy!r}")
    return _patched(planner, "choose_strategy", lambda atoms: strategy)


def no_multiway():
    """Leave every conjunct to the per-conjunct scheduler."""
    return _patched(
        expand, "_schedule_multiway",
        lambda pending, table, frame, ctx: (table, pending, None))


def recompute():
    """Decline incremental maintenance: every update drops the dependent
    extents and the next read recomputes them."""
    return _patched(program_mod.RelProgram, "_try_maintain",
                    lambda self, deltas, pre: False)


def unkeyed():
    """Decline keyed re-evaluation: a stratum the delta rules decline is
    recomputed from scratch and diffed."""
    return _patched(program_mod.RelProgram, "_maintain_keyed",
                    lambda self, component, trigger, pre, ctx: None)


def always_delta():
    """Propagate deltas however much of a relation an update replaces."""
    return _patched(program_mod, "_delta_replaces_most",
                    lambda plus, minus, before: False)


@contextlib.contextmanager
def interpreted():
    """Bypass the plan cache: nothing is compiled or replayed, and binary
    joins hash their inputs on every call instead of probing the hash
    indexes a state caches for its plans (``atom_index``)."""
    with _patched(expand, "_plan_state",
                  lambda ctx, table, frame, anchor: (None, None)), \
            _patched(EvalState, "atom_index", None), \
            _patched(SnapshotState, "atom_index", None):
        yield


def kernels_forced():
    """The columnar kernels at any input size, when the plane exists."""
    return _patched(expand, "_kernel_wanted", lambda n: columns.available())


def row_plane():
    """No columnar kernel: everything row at a time."""
    return _patched(expand, "_kernel_wanted", lambda n: False)


#: Results that evaluate later, so :class:`under` wraps them too.
_LAZY = (Session, Snapshot, PreparedQuery, SnapshotQuery)


class under:
    """``target`` with each method call made inside fresh blocks of
    ``oracles`` (zero-argument callables returning context managers).

    Sessions, snapshots and prepared queries a call returns come back
    wrapped the same way; any other attribute is ``target``'s own."""

    def __init__(self, target, *oracles):
        self._target = target
        self._oracles = oracles

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if not callable(attr):
            return attr

        @functools.wraps(attr)
        def call(*args, **kwargs):
            with contextlib.ExitStack() as stack:
                for oracle in self._oracles:
                    stack.enter_context(oracle())
                result = attr(*args, **kwargs)
            if isinstance(result, _LAZY):
                return under(result, *self._oracles)
            return result
        return call
