"""Cooperative evaluation budgets (wall-clock deadline, row and
iteration limits).

A budget is *installed* for the current thread with :func:`scoped` (or
:meth:`EvalBudget.scope`) and read back by the evaluation loops through
the module-level helpers :func:`tick`, :func:`count_rows`, and
:func:`count_iteration`. The engine never owns a budget — the
thread-local indirection is what lets many reader threads share one
warm :class:`~repro.engine.snapshot.ProgramSnapshot` while each query
carries its own deadline.

Checks are amortized: :meth:`EvalBudget.tick` only consults the clock
every ``check_interval`` calls, so the per-kernel cost with a budget
installed is one integer decrement, and with no budget installed a
single thread-local read. Iteration boundaries (:func:`count_iteration`)
always check the clock — fixpoint rounds are the natural cancellation
points of a runaway recursive query.

Amortization is wrong at *vectorized* boundaries: one columnar kernel
call can stand in for millions of row-level operations, so counting it
as a single tick lets a deadline overshoot by whole kernel invocations
(observed as multiples of a 0.1s deadline at 10x scale). Boundaries
that amortize work — a kernel dispatch, a scheduled conjunct — must
use :func:`checkpoint`, which consults
the clock unconditionally; its cost is one clock read against a kernel
call that dwarfs it.

Exceeding a budget raises the typed errors from
:mod:`repro.engine.errors`:

- deadline passed            → :class:`QueryTimeoutError`
- :meth:`EvalBudget.cancel`  → :class:`QueryCancelledError`
- row / iteration limit hit  → :class:`QueryBudgetError`

All three leave the program consistent (see ``_materialize_component``
in :mod:`repro.engine.program`): the in-flight component's partial
extents are dropped before the error propagates, so an immediate
re-query of the same program or snapshot returns correct results.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.engine.errors import (
    QueryBudgetError,
    QueryCancelledError,
    QueryTimeoutError,
)

__all__ = [
    "EvalBudget",
    "active_budget",
    "scoped",
    "tick",
    "checkpoint",
    "count_rows",
    "count_iteration",
]

#: How many :meth:`EvalBudget.tick` calls elapse between clock checks.
DEFAULT_CHECK_INTERVAL = 256


class EvalBudget:
    """A cooperative resource budget for one query evaluation.

    Parameters
    ----------
    deadline:
        Wall-clock seconds the evaluation may run. The clock starts when
        the budget is *constructed* — a budget built at ``submit`` time
        therefore counts queue wait against the deadline, which is the
        admission-control-friendly semantics.
    max_rows:
        Upper bound on rows derived by rule evaluations. Re-derivations
        across fixpoint rounds count: the limit bounds *work*, not the
        final relation size.
    max_iterations:
        Upper bound on fixpoint rounds, summed across every fixpoint the
        query drives (stratum components, demand-driven instances, and
        maintenance loops alike).
    check_interval:
        Amortization factor for :meth:`tick`; the clock is consulted
        once per this many kernel-level ticks.
    """

    __slots__ = (
        "deadline",
        "max_rows",
        "max_iterations",
        "check_interval",
        "rows",
        "iterations",
        "_expires_at",
        "_countdown",
        "_cancelled",
    )

    def __init__(
        self,
        *,
        deadline: Optional[float] = None,
        max_rows: Optional[int] = None,
        max_iterations: Optional[int] = None,
        check_interval: int = DEFAULT_CHECK_INTERVAL,
    ) -> None:
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive")
        if max_rows is not None and max_rows <= 0:
            raise ValueError("max_rows must be positive")
        if max_iterations is not None and max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if check_interval <= 0:
            raise ValueError("check_interval must be positive")
        self.deadline = deadline
        self.max_rows = max_rows
        self.max_iterations = max_iterations
        self.check_interval = check_interval
        self.rows = 0
        self.iterations = 0
        self._expires_at = (
            None if deadline is None else time.monotonic() + deadline
        )
        self._countdown = check_interval
        self._cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline}")
        if self.max_rows is not None:
            parts.append(f"max_rows={self.max_rows}")
        if self.max_iterations is not None:
            parts.append(f"max_iterations={self.max_iterations}")
        return f"EvalBudget({', '.join(parts)})"

    # -- cancellation --------------------------------------------------

    def cancel(self) -> None:
        """Request cancellation; the evaluation aborts at its next check.

        Safe to call from any thread. This is how a server deadline
        *cancels the underlying evaluation* rather than merely
        abandoning its future.
        """
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def remaining(self) -> Optional[float]:
        """Seconds left before the deadline, or None without one."""
        if self._expires_at is None:
            return None
        return self._expires_at - time.monotonic()

    # -- checks --------------------------------------------------------

    def check(self) -> None:
        """Immediately raise if cancelled or past the deadline."""
        if self._cancelled:
            raise QueryCancelledError("query cancelled")
        if self._expires_at is not None and time.monotonic() > self._expires_at:
            raise QueryTimeoutError(
                f"query exceeded its {self.deadline}s deadline"
            )

    def tick(self, n: int = 1) -> None:
        """Amortized check: consults the clock every ``check_interval`` ticks."""
        self._countdown -= n
        if self._countdown <= 0:
            self._countdown = self.check_interval
            self.check()

    def count_rows(self, n: int) -> None:
        """Charge ``n`` derived rows against the budget."""
        self.rows += n
        if self.max_rows is not None and self.rows > self.max_rows:
            raise QueryBudgetError(
                f"query derived more than max_rows={self.max_rows} rows "
                f"({self.rows} and counting)"
            )

    def count_iteration(self) -> None:
        """Charge one fixpoint round; always checks the clock."""
        self.iterations += 1
        if (
            self.max_iterations is not None
            and self.iterations > self.max_iterations
        ):
            raise QueryBudgetError(
                f"query exceeded max_iterations={self.max_iterations} "
                f"fixpoint rounds"
            )
        self.check()

    # -- installation --------------------------------------------------

    def scope(self):
        """Context manager installing this budget for the current thread."""
        return scoped(self)


_local = threading.local()


def active_budget() -> Optional[EvalBudget]:
    """The budget installed for the current thread, if any."""
    return getattr(_local, "budget", None)


@contextmanager
def scoped(budget: Optional[EvalBudget]) -> Iterator[Optional[EvalBudget]]:
    """Install ``budget`` for the current thread within the block.

    Nested scopes stack: the previous budget (possibly None) is restored
    on exit. ``scoped(None)`` explicitly *suspends* any active budget —
    the session layer uses this around write-path maintenance so a
    read deadline can never abort a half-applied write.
    """
    prev = getattr(_local, "budget", None)
    _local.budget = budget
    try:
        yield budget
    finally:
        _local.budget = prev


def tick(n: int = 1) -> None:
    """Charge ``n`` kernel-level ticks against the active budget, if any."""
    budget = getattr(_local, "budget", None)
    if budget is not None:
        budget.tick(n)


def checkpoint() -> None:
    """Unamortized check against the active budget, if any.

    For boundaries where one call amortizes arbitrary work — vectorized
    vectorized kernel dispatches, scheduled conjuncts —
    so the abort latency is bounded by a single kernel call rather than
    ``check_interval`` of them.
    """
    budget = getattr(_local, "budget", None)
    if budget is not None:
        budget.check()


def count_rows(n: int) -> None:
    """Charge ``n`` derived rows against the active budget, if any."""
    budget = getattr(_local, "budget", None)
    if budget is not None and n:
        budget.count_rows(n)


def count_iteration() -> None:
    """Charge one fixpoint round against the active budget, if any."""
    budget = getattr(_local, "budget", None)
    if budget is not None:
        budget.count_iteration()
