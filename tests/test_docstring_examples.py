"""The ``>>>`` examples in the public modules' docstrings run and print
what they show."""

import doctest
import importlib

import pytest

MODULES = ("repro.api", "repro.db.transaction", "repro.engine.program",
           "repro.rkg.graph", "repro.datalog.engine")


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0, name
    assert result.failed == 0, name
