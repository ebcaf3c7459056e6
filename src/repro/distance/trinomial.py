"""The distance trinomial ``D(tau) = sqrt(a tau^2 + b tau + c)``.

Between two consecutive shared timestamps, both trajectories move
linearly, so their Euclidean distance is the square root of a quadratic
in time (Frentzos et al., Section 3, following [6]).  This module
implements everything the paper does with that function:

* point evaluation and the closed-form definite integral (the arcsinh
  formula of Meratnia & By used in Definition 1),
* the trapezoid-rule approximation of Lemma 1, and
* the one-sided error bound of Lemma 1 — ``D`` is convex
  (``D'' = (4ac - b^2) / (4 f^{3/2}) >= 0``), so the trapezoid rule
  *over*-estimates and the true integral lies in
  ``[approx - bound, approx]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..obs import state as _obs

__all__ = ["DistanceTrinomial", "IntegralResult"]

# Below this, the quadratic coefficient is treated as zero (pure
# floating-point noise from the velocity subtraction).
_A_EPS = 1e-30


@dataclass(frozen=True, slots=True)
class IntegralResult:
    """A trapezoid-approximated integral with its Lemma 1 error bound.

    The exact value is guaranteed to lie in
    ``[approx - error_bound, approx]`` (one-sided, by convexity).
    """

    approx: float
    error_bound: float

    @property
    def lower(self) -> float:
        """Certified lower bound on the exact integral."""
        return self.approx - self.error_bound

    @property
    def upper(self) -> float:
        """Certified upper bound on the exact integral (the trapezoid
        value itself)."""
        return self.approx

    def __add__(self, other: "IntegralResult") -> "IntegralResult":
        return IntegralResult(
            self.approx + other.approx, self.error_bound + other.error_bound
        )


_ZERO_RESULT = IntegralResult(0.0, 0.0)


@dataclass(frozen=True, slots=True)
class DistanceTrinomial:
    """``D(tau) = sqrt(a tau^2 + b tau + c)`` on local time ``tau``.

    ``a >= 0`` always; ``c >= 0`` because it is a squared distance.  The
    discriminant ``b^2 - 4ac`` is ``<= 0`` mathematically but may peek
    above zero by rounding; all formulas clamp accordingly.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if self.a < 0.0 or self.c < -1e-9:
            raise ValueError(f"invalid trinomial coefficients: {self}")

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def squared_value_at(self, tau: float) -> float:
        """``f(tau) = a tau^2 + b tau + c`` clamped at zero."""
        return max((self.a * tau + self.b) * tau + self.c, 0.0)

    def value_at(self, tau: float) -> float:
        """The distance ``D(tau)``."""
        return math.sqrt(self.squared_value_at(tau))

    @property
    def flex(self) -> float | None:
        """``tau* = -b / 2a``, the minimiser of the distance (and the
        maximiser of ``D''``); ``None`` when ``a == 0``."""
        if self.a <= _A_EPS:
            return None
        return -self.b / (2.0 * self.a)

    def second_derivative_at(self, tau: float) -> float:
        """``D''(tau) = (4ac - b^2) / (4 f(tau)^{3/2})``; ``inf`` where
        the two objects coincide (``f = 0``) while not moving in
        lock-step."""
        disc = max(4.0 * self.a * self.c - self.b * self.b, 0.0)
        if disc == 0.0:
            return 0.0
        f = self.squared_value_at(tau)
        # f^{3/2} as f * sqrt(f): correctly-rounded primitives, so the
        # vectorised kernel reproduces it bit for bit (libm pow does
        # not match numpy's); underflows to 0 for subnormal distances.
        f15 = f * math.sqrt(f)
        if f15 == 0.0:
            return math.inf
        return disc / (4.0 * f15)

    # ------------------------------------------------------------------
    # exact integral
    # ------------------------------------------------------------------
    def exact_integral(self, tau0: float, tau1: float) -> float:
        """The definite integral of ``D`` over ``[tau0, tau1]``.

        For ``a > 0`` uses the substitution ``u = tau + b/2a`` and
        ``k^2 = (4ac - b^2) / 4a^2`` so that the integrand becomes
        ``sqrt(a) * sqrt(u^2 + k^2)`` with antiderivative
        ``sqrt(a)/2 * (u r + k^2 asinh(u/k))``, ``r = sqrt(u^2 + k^2)``
        — the paper's arcsinh formula.  Near lock-step motion
        (``a tau^2 << c``) puts ``|u|`` far above the interval length,
        where subtracting two antiderivative values cancels
        catastrophically, so both differences are taken in closed
        form instead: with ``du = tau1 - tau0``,
        ``u1 r1 - u0 r0 = du ((r0 + r1)/2 + (u0 + u1)^2 / 2(r0 + r1))``
        and ``asinh(u1/k) - asinh(u0/k) = log((u1 + r1) / (u0 + r0))``,
        evaluated as ``log1p`` of a positive ratio on whichever side of
        the flex both ends lie (a sum of two positive ``asinh`` when
        they straddle it).  Every term is a sum or product of same-sign
        quantities; the perfect square ``k = 0`` needs no special case.
        """
        if tau1 < tau0:
            raise ValueError(f"inverted interval [{tau0}, {tau1}]")
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.registry.inc("distance.exact_integrals")
        if tau1 == tau0:
            return 0.0
        du = tau1 - tau0
        a = self.a
        if a <= _A_EPS:
            # a == 0 implies b == 0 (else f would go negative).
            return math.sqrt(max(self.c, 0.0)) * du
        shift = self.b / (2.0 * a)
        k_sq = max(4.0 * a * self.c - self.b * self.b, 0.0) / (4.0 * a * a)
        u0 = tau0 + shift
        u1 = tau1 + shift
        r0 = math.sqrt(u0 * u0 + k_sq)
        r1 = math.sqrt(u1 * u1 + k_sq)
        r_sum = r0 + r1
        if r_sum == 0.0:
            # A perfect square whose u^2 underflowed at both ends.
            return 0.0
        u_sum = u0 + u1
        total = du * (0.5 * r_sum + u_sum * u_sum / (2.0 * r_sum))
        if k_sq > 0.0:
            if u0 >= 0.0:
                spread = math.log1p(du * (1.0 + u_sum / r_sum) / (r0 + u0))
            elif u1 <= 0.0:
                spread = math.log1p(du * (1.0 - u_sum / r_sum) / (r1 - u1))
            else:
                k = math.sqrt(k_sq)
                spread = math.asinh(u1 / k) + math.asinh(-u0 / k)
            total += k_sq * spread
        return 0.5 * math.sqrt(a) * total

    # ------------------------------------------------------------------
    # trapezoid approximation (Lemma 1)
    # ------------------------------------------------------------------
    def trapezoid_integral(self, tau0: float, tau1: float) -> IntegralResult:
        """One-panel trapezoid approximation over ``[tau0, tau1]`` with
        the Lemma 1 error bound.

        The bound is ``(dt^3 / 12) * max D''`` where the maximum of the
        (non-negative, unimodal-peaked) second derivative over the
        interval sits at the flex ``-b/2a`` when it falls inside, else
        at the endpoint nearer to it — the three cases of Lemma 1.
        When the objects actually meet inside the interval (``D = 0``
        with distinct velocities) the curvature bound is infinite and
        the bound falls back to the trivial but finite
        ``approx - chord_lower_bound`` (see below).
        """
        if tau1 < tau0:
            raise ValueError(f"inverted interval [{tau0}, {tau1}]")
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.registry.inc("distance.trapezoid_integrals")
        dt = tau1 - tau0
        if dt == 0.0:
            return _ZERO_RESULT
        d0 = self.value_at(tau0)
        d1 = self.value_at(tau1)
        approx = 0.5 * (d0 + d1) * dt
        flex = self.flex
        if flex is None:
            return IntegralResult(approx, 0.0)
        if tau0 <= flex <= tau1:
            disc = 4.0 * self.a * self.c - self.b * self.b
            if disc <= 0.0 and tau0 < flex < tau1:
                # Perfect square: D(tau) = sqrt(a)|tau - flex| has a
                # kink at the flex, Lemma 1's curvature bound does not
                # apply — but the integral is closed-form cheap here,
                # so certify with the true error.
                exact = self.exact_integral(tau0, tau1)
                return IntegralResult(approx, max(approx - exact, 0.0))
            curvature = self.second_derivative_at(flex)
        elif flex < tau0:
            curvature = self.second_derivative_at(tau0)
        else:
            curvature = self.second_derivative_at(tau1)
        bound = dt * dt * dt / 12.0 * curvature
        if not math.isfinite(bound):
            # Objects collide inside the panel: curvature blows up, but
            # the trapezoid value itself (exact >= 0 and trapezoid >=
            # exact by convexity) is always a valid width.
            bound = approx
        return IntegralResult(approx, min(bound, approx))

    def subdivided_integral(self, tau0: float, tau1: float, panels: int) -> IntegralResult:
        """Composite trapezoid rule with ``panels`` equal panels; the
        error bound shrinks as ``1/panels^2``.  Used by the approximation
        ablation bench; the paper's algorithm uses one panel per shared
        sampling interval."""
        if panels < 1:
            raise ValueError("panels must be >= 1")
        step = (tau1 - tau0) / panels
        total = _ZERO_RESULT
        for i in range(panels):
            lo = tau0 + i * step
            hi = tau1 if i == panels - 1 else lo + step
            total = total + self.trapezoid_integral(lo, hi)
        return total
