"""Hardware clocks (Section 3 of the paper).

A hardware clock starts at value 0 when its node is initialized at real
time ``t_v`` and thereafter reads ``H_v(t) = ∫_{t_v}^{t} h_v(τ) dτ``, where
the rate ``h_v`` stays within ``[1 − ε, 1 + ε]``.  The rate schedule is part
of the execution (chosen by the adversary), so it is known in full when the
clock is created; this lets the clock answer the *inverse* query "at which
real time will my value reach ``H``?" exactly, which the simulation engine
uses to fire hardware-time alarms (Algorithms 1 and 4 of the paper).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, List, Sequence

from repro.errors import TraceError
from repro.sim.rates import PiecewiseConstantRate

__all__ = ["HardwareClock"]


class HardwareClock:
    """A drifting hardware clock backed by a piecewise-constant rate.

    Parameters
    ----------
    rate:
        The rate function ``h_v``.  Its domain must cover ``start_time``.
    start_time:
        Real time ``t_v`` at which the node is initialized; the clock value
        is defined as 0 before then and integrates the rate afterwards.
    """

    __slots__ = (
        "_rate", "_start_time", "_start_integral", "_memo_t", "_memo_v", "_rate_arrays",
    )

    def __init__(self, rate: PiecewiseConstantRate, start_time: float = 0.0):
        if start_time < rate.domain_start:
            raise TraceError(
                f"clock start {start_time} precedes rate domain {rate.domain_start}"
            )
        self._rate = rate
        self._start_time = float(start_time)
        # ∫ from the rate's domain start to the clock start, fixed at
        # construction: value(t) subtracts it from ∫-from-domain-start(t),
        # the identical float expression rate.integral(start, t) expands
        # to, without re-deriving the start integral on every query.
        self._start_integral = rate.integral_from_start(self._start_time)
        # Single-entry memo: engine callbacks evaluate the same clock at
        # the same event time several times per event.  The clock is
        # immutable, so a hit returns the identical float.
        self._memo_t: float = self._start_time
        self._memo_v: float = 0.0
        # The rate's segment tuples as arrays, built on first use by the
        # trace module's numpy column fold.  They live here, on a per-run
        # object, and never on the rate: a rate can sit inside a spec
        # (ExplicitDrift), whose digest encodes every slot that is set.
        self._rate_arrays = None

    @property
    def start_time(self) -> float:
        return self._start_time

    @property
    def rate_function(self) -> PiecewiseConstantRate:
        return self._rate

    def rate_at(self, t: float) -> float:
        """Instantaneous hardware rate ``h_v(t)`` (0 before the start)."""
        if t < self._start_time:
            return 0.0
        return self._rate.rate_at(t)

    def value(self, t: float) -> float:
        """Hardware clock reading ``H_v(t)``; 0 for ``t ≤ t_v``."""
        if t <= self._start_time:
            return 0.0
        if t == self._memo_t:
            return self._memo_v
        v = self._rate.integral_from_start(t) - self._start_integral
        self._memo_t = t
        self._memo_v = v
        return v

    def values_at(self, ts: Sequence[float]) -> List[float]:
        """Batched :meth:`value` over ascending ``ts`` (bit-identical).

        The prefix at or before the start time reads 0.0; the rest is one
        pointer sweep through the rate segments, each output computed with
        the same expression as the scalar method.
        """
        split = bisect_right(ts, self._start_time)
        out: List[float] = [0.0] * split
        if split < len(ts):
            start_integral = self._start_integral
            out.extend(
                integral - start_integral
                for integral in self._rate.integrals_at(ts[split:])
            )
        return out

    def time_at_value(self, value: float) -> float:
        """Real time at which the clock first reads ``value`` (exact).

        The clock is strictly increasing after the start time because the
        minimum hardware rate is positive, so the answer is unique.
        """
        if value < 0:
            raise TraceError(f"hardware clock never reads negative value {value}")
        return self._rate.advance(self._start_time, value)

    def elapsed(self, t0: float, t1: float) -> float:
        """Hardware time elapsed between real times ``t0 ≤ t1``."""
        return self.value(t1) - self.value(t0)

    def breakpoints_in(self, a: float, b: float) -> Iterator[float]:
        """Real times in ``(a, b)`` at which the hardware rate changes."""
        start = max(a, self._start_time)
        if self._start_time > a and self._start_time < b:
            yield self._start_time
        yield from self._rate.breakpoints_in(start, b)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HardwareClock(start={self._start_time:g}, rate={self._rate!r})"
