"""Benchmark configuration: compact rounds, shared fixtures, shape records.

Run with:  pytest benchmarks/ --benchmark-only

Each module regenerates one experiment of DESIGN.md's index (E*/B*); the
docstrings state the paper claim and the expected *shape* of the numbers.
Shape assertions (who wins, roughly by how much) live in the benchmark
bodies so a regression in the claim fails the suite, not just the timings.
"""

import sys
from pathlib import Path

import pytest

# The oracle managers live with the tests (tests/support/oracles.py):
#     from support import oracles
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))


def pytest_benchmark_update_machine_info(config, machine_info):
    machine_info["experiment_suite"] = "rel-reproduction"


@pytest.fixture(scope="session")
def bench_rounds():
    """Small round counts: engine benchmarks are macro-benchmarks."""
    return dict(rounds=3, warmup_rounds=1, iterations=1)
