"""repro — a from-scratch Python implementation of the Rel programming
language for relational data.

This package reproduces "Rel: A Programming Language for Relational Data"
(SIGMOD 2025): the language frontend (Figure 2), the formal semantics
(Figures 3–4), graph normal form and the database layer (Sections 2–3),
programming-in-the-large features (Section 4), the standard/RA/LA/graph
libraries written in Rel itself (Section 5), and the relational knowledge
graph layer (Section 6).

Quickstart — the canonical entry point is :func:`repro.connect`, which
opens a :class:`~repro.api.Session` (one database, one rule catalog, one
long-lived incremental evaluation state)::

    import repro

    session = repro.connect()
    session.define("Edge", [(1, 2), (2, 3)])
    session.load('''
        def Path(x, y) : Edge(x, y)
        def Path(x, y) : exists((z) | Edge(x, z) and Path(z, y))
    ''')
    print(session.execute("Path"))

    paths_from = session.query("Path[1]")   # prepared: parse once
    print(paths_from.run())                 # execute many
    session.insert("Edge", [(3, 4)])        # dirties only Path's stratum
    print(paths_from.run())

The lower-level :class:`RelProgram` remains available for direct engine
access; see README.md for the migration table.
"""

from repro.engine import (
    ConstraintViolation,
    ConvergenceError,
    DispatchError,
    EvalBudget,
    EvaluationError,
    QueryBudgetError,
    QueryCancelledError,
    QueryTimeoutError,
    RelError,
    RelProgram,
    SafetyError,
    UnknownRelationError,
)
from repro.api import (PreparedQuery, Session, Snapshot, SnapshotQuery,
                       connect)
from repro.server import AdmissionError, QueryServer, ServerClosedError
from repro.model import Entity, EntityRegistry, Relation, Symbol, relation, singleton

__version__ = "1.1.0"

__all__ = [
    "AdmissionError",
    "ConstraintViolation",
    "ConvergenceError",
    "DispatchError",
    "Entity",
    "EntityRegistry",
    "EvalBudget",
    "EvaluationError",
    "PreparedQuery",
    "QueryBudgetError",
    "QueryCancelledError",
    "QueryServer",
    "QueryTimeoutError",
    "RelError",
    "RelProgram",
    "Relation",
    "SafetyError",
    "ServerClosedError",
    "Session",
    "Snapshot",
    "SnapshotQuery",
    "Symbol",
    "UnknownRelationError",
    "__version__",
    "connect",
    "relation",
    "singleton",
]
