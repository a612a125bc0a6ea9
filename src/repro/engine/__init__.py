"""Evaluation engine for Rel.

The engine has two cooperating evaluators:

- the *production evaluator* (:mod:`repro.engine.expand`), which compiles
  rule bodies into ordered conjunct pipelines over binding tables, with
  safety-driven subgoal ordering, hash-indexed atom matching, stratified
  semi-naive fixpoints, and demand-driven evaluation of parameterized
  (second-order) definitions;
- the *reference evaluator* (:mod:`repro.engine.reference`), a direct
  transcription of the semantic equations in Figures 3–4 of the paper, used
  as a test oracle on small inputs.

The public entry point is :class:`repro.engine.program.RelProgram`.
"""

from repro.engine.budget import EvalBudget
from repro.engine.errors import (
    ConstraintViolation,
    ConvergenceError,
    DispatchError,
    EvaluationError,
    QueryBudgetError,
    QueryCancelledError,
    QueryTimeoutError,
    RelError,
    SafetyError,
    UnknownRelationError,
)
from repro.engine.program import RelProgram

__all__ = [
    "ConstraintViolation",
    "ConvergenceError",
    "DispatchError",
    "EvalBudget",
    "EvaluationError",
    "QueryBudgetError",
    "QueryCancelledError",
    "QueryTimeoutError",
    "RelError",
    "RelProgram",
    "SafetyError",
    "UnknownRelationError",
]
