"""Execution budgets: one limit object threaded through a whole answer.

The paper's evaluation (Section 5) treats three independent failure
axes: wall-clock timeouts, statement-size rejections (DB2's stack-depth
limit on huge unions), and intermediate-result blowups (I/O errors
while materializing).  An :class:`ExecutionBudget` captures all three
as *caller policy*, distinct from the per-engine
:class:`~repro.engine.evaluator.EngineProfile` limits which model what
a backend can physically do: the effective cap at any point is the
minimum of the two.

The deadline is shared across planning **and** evaluation (and, under
:meth:`repro.answering.QueryAnswerer.answer_resilient`, across every
retry and fallback attempt): ``start()`` pins the expiry once and every
later layer observes the same clock, replacing the old per-layer
``timeout_s`` plumbing.

``clock`` is injectable so tests can script exactly when a deadline
fires (e.g. between two join steps) without sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, TypeVar

_N = TypeVar("_N", int, float)


@dataclass
class ExecutionBudget:
    """Caller-side limits for one answering call (or fallback run).

    ``timeout_s``
        Wall-clock allowance for planning + evaluation together.
    ``max_union_terms``
        Cap on the *total* union terms of the reformulation any
        strategy may hand to an engine (``saturation`` plans to the
        original query and is exempt).
    ``max_intermediate_rows``
        Cap on any materialized intermediate relation, tightened
        against the engine profile's own limit.
    ``max_result_rows``
        Cap on the final answer relation.

    A budget with every field ``None`` is unlimited.  ``start()``
    returns a *running* copy with the deadline pinned; starting an
    already-running budget is a no-op returning the same object, so one
    budget can be handed down through answerer → optimizer → engine and
    across fallback attempts while everyone shares the same expiry.
    """

    timeout_s: Optional[float] = None
    max_union_terms: Optional[int] = None
    max_intermediate_rows: Optional[int] = None
    max_result_rows: Optional[int] = None
    #: Injectable monotonic clock (tests script deadline firings).
    clock: Callable[[], float] = field(
        default=time.perf_counter, repr=False, compare=False
    )
    _expires_at: Optional[float] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def start(self) -> "ExecutionBudget":
        """A running budget: ``self`` if already started, else a copy
        with the deadline pinned at ``clock() + timeout_s``."""
        if self.timeout_s is None or self._expires_at is not None:
            return self
        started = replace(self)
        started._expires_at = self.clock() + self.timeout_s
        return started

    @property
    def started(self) -> bool:
        """Whether the deadline clock is running (or there is none)."""
        return self.timeout_s is None or self._expires_at is not None

    @property
    def expired(self) -> bool:
        """Whether the wall-clock deadline has passed."""
        return self._expires_at is not None and self.clock() > self._expires_at

    def remaining_s(self) -> Optional[float]:
        """Seconds until the deadline (``None`` when unlimited).

        Never negative: an expired budget reports ``0.0`` so it can be
        passed straight to APIs that treat the value as an allowance.
        """
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - self.clock())

    # ------------------------------------------------------------------
    # Caps
    # ------------------------------------------------------------------
    def row_limit(self, engine_limit: int) -> int:
        """Effective intermediate-row cap: min(engine, budget)."""
        if self.max_intermediate_rows is None:
            return engine_limit
        return min(engine_limit, self.max_intermediate_rows)

    def union_limit(self, engine_limit: int) -> int:
        """Effective per-statement union-term cap: min(engine, budget)."""
        if self.max_union_terms is None:
            return engine_limit
        return min(engine_limit, self.max_union_terms)

    @property
    def unlimited(self) -> bool:
        """True when no axis carries a cap."""
        return (
            self.timeout_s is None
            and self.max_union_terms is None
            and self.max_intermediate_rows is None
            and self.max_result_rows is None
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def tightened(
        self,
        timeout_s: Optional[float] = None,
        max_union_terms: Optional[int] = None,
        max_intermediate_rows: Optional[int] = None,
        max_result_rows: Optional[int] = None,
    ) -> "ExecutionBudget":
        """A fresh budget with each axis at the tighter of two caps.

        Composes a policy-level template with caller-level limits (the
        service intersects a tenant's quota budget with the request's
        own ``timeout_s`` this way).  ``None`` on either side means
        that side imposes nothing.  The result is unstarted — its
        deadline pins on :meth:`start` — and keeps ``self``'s clock.
        """

        def tight(a: Optional[_N], b: Optional[_N]) -> Optional[_N]:
            if a is None:
                return b
            if b is None:
                return a
            return min(a, b)

        return ExecutionBudget(
            timeout_s=tight(self.timeout_s, timeout_s),
            max_union_terms=tight(self.max_union_terms, max_union_terms),
            max_intermediate_rows=tight(
                self.max_intermediate_rows, max_intermediate_rows
            ),
            max_result_rows=tight(self.max_result_rows, max_result_rows),
            clock=self.clock,
        )

    @classmethod
    def resolve(
        cls,
        budget: Optional["ExecutionBudget"],
        timeout_s: Optional[float] = None,
    ) -> Optional["ExecutionBudget"]:
        """The caller's budget, or one derived from a bare ``timeout_s``.

        The API edge (:meth:`~repro.answering.QueryAnswerer.answer`
        and ``answer_resilient``) accepts a bare ``timeout_s`` through
        this adapter; below it, every layer takes the budget alone.  An
        explicit budget wins; otherwise a bare timeout becomes a
        deadline-only budget; otherwise ``None`` (no limits).
        """
        if budget is not None:
            return budget
        if timeout_s is not None:
            return cls(timeout_s=timeout_s)
        return None

    def to_dict(self) -> dict:
        """JSON-friendly snapshot (reports, telemetry)."""
        return {
            "timeout_s": self.timeout_s,
            "max_union_terms": self.max_union_terms,
            "max_intermediate_rows": self.max_intermediate_rows,
            "max_result_rows": self.max_result_rows,
        }
