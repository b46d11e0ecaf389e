"""Closed-form fees and controls for the linear contracts when mu = r = 0.

With zero drift and zero rate the fee of a linear contract separates as
N*S + h(t, q) where h is quadratic in inventory.  The quadratic coefficient
solves a Riccati ODE with an explicit solution; for the cash-settled contract
the linear coefficient solves a first-order linear ODE (integrating factor)
and the constant term is an integral evaluated by quadrature.

These formulas are the validation oracle for the PDE solver; no command
calls them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contracts import Family, MarketParams
from .errors import DegenerateRiccati, InvalidRegime

# quadrature resolution for the constant coefficient (integrand is smooth;
# trapezoid error is far below every table tolerance at this size)
_QUAD_POINTS = 2048


@dataclass(frozen=True)
class RiccatiConstants:
    """Scale a = sqrt(l*sigma^2*gamma/2) and ratio xi = (alpha-b/2-a)/(alpha-b/2+a)."""

    a: float
    xi: float

    @classmethod
    def from_params(cls, params: MarketParams) -> "RiccatiConstants":
        a = np.sqrt(0.5 * params.l * params.sigma**2 * params.gamma)
        denom = params.alpha - 0.5 * params.b + a
        if denom == 0.0:
            raise DegenerateRiccati("alpha - b/2 + a = 0")
        return cls(a=a, xi=(params.alpha - 0.5 * params.b - a) / denom)

    @property
    def baseline_regime(self) -> bool:
        """True when xi lies in (0, 1), i.e. alpha > b/2 + a."""
        return 0.0 < self.xi < 1.0


def riccati_theta(t, params: MarketParams):
    """Riccati solution theta(t) = a*(1 + xi*e^{-2a(T-t)/l})/(1 - xi*e^{-2a(T-t)/l}).

    Adding b/2 gives the quadratic fee coefficient; theta(T) = alpha - b/2.
    """
    rc = RiccatiConstants.from_params(params)
    _check_not_degenerate(rc, params)
    e = np.exp(-2.0 * rc.a * (params.T - np.asarray(t)) / params.l)
    den = 1.0 - rc.xi * e
    if np.any(den <= 0.0) or np.any(np.abs(den) < 1e-14):
        raise DegenerateRiccati(
            f"1 - xi*exp(-2a(T-t)/l) vanishes on [0, T] (xi={rc.xi:.6g})")
    return rc.a * (1.0 + rc.xi * e) / den


def _check_not_degenerate(rc: RiccatiConstants, params: MarketParams) -> None:
    """The denominator 1 - xi*e^{-2a(T-t)/l} has a zero at
    t* = T - (l/2a)*ln(xi) whenever xi >= 1; refuse if t* falls in [0, T]."""
    if rc.a == 0.0:
        raise DegenerateRiccati("sigma = 0 collapses the Riccati scale a")
    if rc.xi >= 1.0:
        t_star = params.T - (params.l / (2.0 * rc.a)) * np.log(rc.xi)
        if t_star >= -1e-12:
            raise DegenerateRiccati(
                f"Riccati solution blows up at t={t_star:.6g} in [0, T] "
                f"(xi={rc.xi:.6g})")


def h_quadratic(t, params: MarketParams):
    """Quadratic inventory coefficient h2(t) = theta(t) + b/2; h2(T) = alpha."""
    return riccati_theta(t, params) + 0.5 * params.b


def _h1_shifted(t, params: MarketParams, rc: RiccatiConstants):
    """h1(t) + b*N, the integrating-factor solution of the linear coefficient ODE.

    Written with negative exponentials only, so it stays finite for any a/l.
    """
    a, xi = rc.a, rc.xi
    x = a * (params.T - np.asarray(t)) / params.l
    em, em2 = np.exp(-x), np.exp(-2.0 * x)
    den = 1.0 - xi * em2
    if np.any(np.abs(den) < 1e-14):
        raise DegenerateRiccati("integrating factor denominator vanishes")
    bN = params.b * params.N
    forcing = params.sigma**2 * params.gamma * params.N * params.l / a
    return (bN * (1.0 - xi) * em - forcing * (1.0 + xi * em2 - (1.0 + xi) * em)) / den


def trs_h1(t, params: MarketParams):
    """Linear inventory coefficient h1(t) of the cash-settled fee; h1(T) = 0."""
    rc = RiccatiConstants.from_params(params)
    if not rc.baseline_regime:
        raise InvalidRegime(
            f"cash closed form derived for xi in (0,1); got xi={rc.xi:.6g} "
            "(alpha <= b/2 + a). Use the PDE solver in this regime.")
    return _h1_shifted(t, params, rc) - params.b * params.N


def trs_h0(t: float, params: MarketParams):
    """Constant coefficient h0(t); the integral is evaluated by trapezoid rule.

    h0 solves -h0' - sigma^2*gamma*N^2/2 + (h1 + bN)^2/(4l) = 0 with h0(T) = 0.
    """
    rc = RiccatiConstants.from_params(params)
    if not rc.baseline_regime:
        raise InvalidRegime(
            f"cash closed form derived for xi in (0,1); got xi={rc.xi:.6g}")
    s = np.linspace(t, params.T, _QUAD_POINTS)
    integrand = (0.5 * params.sigma**2 * params.gamma * params.N**2
                 - _h1_shifted(s, params, rc) ** 2 / (4.0 * params.l))
    return float(np.trapezoid(integrand, s))


def fee_physical_closed(t, q, S, params: MarketParams):
    """Indifference fee N*S + (theta(t) + b/2)*(q - N)^2 for physical delivery."""
    h2 = h_quadratic(t, params)
    return params.N * np.asarray(S) + h2 * (np.asarray(q) - params.N) ** 2


def fee_trs_closed(t: float, q, S, params: MarketParams):
    """Indifference fee N*S + h0(t) + h1(t)*q + h2(t)*q^2 for cash settlement."""
    h2 = h_quadratic(t, params)
    h1 = trs_h1(t, params)
    h0 = trs_h0(t, params)
    q = np.asarray(q)
    return params.N * np.asarray(S) + h0 + h1 * q + h2 * q**2


def control_closed(t, q, family: Family, params: MarketParams):
    """Optimal trading speed clamp((b*q - b*N - d_q h)/(2l), [-C, C]).

    The inventory derivative of the fee is taken analytically from the closed
    coefficients (h is polynomial in q).
    """
    q = np.asarray(q)
    h2 = h_quadratic(t, params)
    if family == Family.LINEAR_PHYSICAL:
        dq_h = 2.0 * h2 * (q - params.N)
    elif family == Family.LINEAR_CASH:
        dq_h = trs_h1(t, params) + 2.0 * h2 * q
    else:
        raise InvalidRegime(f"no closed-form control for family {family}")
    raw = (params.b * q - params.b * params.N - dq_h) / (2.0 * params.l)
    return np.clip(raw, -params.C, params.C)
