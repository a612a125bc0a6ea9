"""Shared fixtures: the paper's Figure 1 database and small graphs."""

import sys
from pathlib import Path

import pytest

# Make the shared test-support package (tests/support) importable from every
# test module regardless of pytest's rootdir/import mode:
#     from support.generators import random_program
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro import RelProgram, Relation
from repro.workloads import order_database


@pytest.fixture
def fig1():
    """The Figure 1 database as a plain mapping."""
    return order_database()


@pytest.fixture
def fig1_program(fig1):
    """A RelProgram over the Figure 1 database (stdlib loaded)."""
    return RelProgram(database=fig1)


@pytest.fixture
def diamond_graph():
    """1→2→4, 1→3→4 plus 4→5: a small DAG with reconvergence."""
    vertices = Relation([(i,) for i in range(1, 6)])
    edges = Relation([(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)])
    return vertices, edges


def assert_rel(relation, expected):
    """Compare a Relation's tuples against an expected list."""
    assert sorted(relation.tuples, key=repr) == sorted(
        [tuple(t) for t in expected], key=repr
    )
