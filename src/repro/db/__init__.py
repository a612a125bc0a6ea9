"""Database layer: transactions, integrity constraints, and GNF.

Implements Sections 2 and 3.4–3.5 of the paper. The base relations live in
one store, the program's base (:attr:`repro.Session.database` is its
read-only view); this package holds what is checked and run against it:

- :class:`Transaction` — the execution of a query against the live
  program, with the control relations ``output``, ``insert``, and
  ``delete``; changes persist unless the transaction aborts;
- integrity constraints (``ic … requires``), checked at every commit; a
  violation aborts the write: a transaction returns ``committed=False``,
  every other session write raises
  :class:`~repro.engine.errors.ConstraintViolation`;
- :mod:`repro.db.gnf` — graph normal form validation (the 6NF key condition
  and the unique-identifier property) and ER→GNF schema derivation.
"""

from repro.db.transaction import Transaction, TransactionResult
from repro.db.gnf import (
    GNFViolation,
    check_gnf,
    gnf_violations,
    is_functional_relation,
)
from repro.db.schema import (
    Attribute,
    EntityType,
    ERModel,
    RelationshipType,
    derive_gnf_schema,
)

__all__ = [
    "Attribute",
    "EntityType",
    "ERModel",
    "GNFViolation",
    "RelationshipType",
    "Transaction",
    "TransactionResult",
    "check_gnf",
    "derive_gnf_schema",
    "gnf_violations",
    "is_functional_relation",
]
