"""Typed planner failures.

The planner's refusal is different in kind from the service's load shedding:
``Overloaded`` means *retry later*; :class:`PlanInfeasible` means *no
protocol configuration this library knows can satisfy the declared SLO* —
retrying will never help, the caller must relax the SLO.  Gateways and the
federation's batch path surface it as its own type (alongside
``QueryRefused``) so clients can tell the two apart.

It subclasses :class:`ValueError` so pre-planner callers that caught broad
``ValueError`` (the dialect's ``SqlError`` idiom) keep working.
"""

from __future__ import annotations


class PlanInfeasible(ValueError):
    """No candidate plan satisfies the statement's SLO.

    ``statement`` is the offending statement text; ``reasons`` lists, one
    line per rejected candidate family, why each was rejected — the
    planner builds them deterministically, so the message is stable for a
    given (statement, SLO, federation size).
    """

    def __init__(
        self,
        message: str,
        *,
        statement: str | None = None,
        reasons: tuple[str, ...] = (),
    ) -> None:
        super().__init__(message)
        self.statement = statement
        self.reasons = reasons


__all__ = ["PlanInfeasible"]
