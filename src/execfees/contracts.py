"""Model parameters, contract payoffs and grid definitions.

The market model is arithmetic Brownian motion with linear permanent impact
(b per unit trading speed) on the price and quadratic temporary impact
(l per unit speed) on wealth.  Contracts settle either physically (the broker
delivers N shares, terminal inventory target N) or in cash (full unwind,
target 0); the per-share payoff is linear, collared between two strikes, or
benchmarked to the running time average of the price.  ContractSpec owns
the collar strikes' default, K1 = 40 and K2 = 50.
"""
from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError


class Family(enum.Enum):
    """The six supported contract families."""

    LINEAR_PHYSICAL = "linear_physical"
    LINEAR_CASH = "linear_cash"
    COLLAR_CASH = "collar_cash"
    COLLAR_PHYSICAL = "collar_physical"
    TWAP_PHYSICAL = "twap_physical"
    TWAP_CASH = "twap_cash"

    @property
    def is_physical(self) -> bool:
        return self in (Family.LINEAR_PHYSICAL, Family.COLLAR_PHYSICAL,
                        Family.TWAP_PHYSICAL)

    @property
    def is_collar(self) -> bool:
        return self in (Family.COLLAR_CASH, Family.COLLAR_PHYSICAL)

    @property
    def is_twap(self) -> bool:
        return self in (Family.TWAP_PHYSICAL, Family.TWAP_CASH)


@dataclass(frozen=True)
class MarketParams:
    """Market and preference constants. Defaults are the baseline experiment set."""

    r: float = 0.0        # risk-free rate
    mu: float = 0.0       # price drift
    b: float = 1e-3       # permanent impact per unit trading speed
    l: float = 1e-3       # temporary impact per unit trading speed
    gamma: float = 1e-2   # absolute risk aversion
    sigma: float = 5.0    # arithmetic volatility per sqrt(time)
    N: float = 1.0        # contracted share quantity
    C: float = 10.0       # trading-speed bound
    alpha: float = 0.2    # terminal liquidation penalty coefficient
    T: float = 1.0        # horizon

    def __post_init__(self):
        for f in fields(self):
            check_real(f"params.{f.name}", getattr(self, f.name))
        # strict positivity where division occurs (l, gamma) or the model
        # degenerates (C, T); sigma = 0 is a valid deterministic limit
        for name, lo_strict in (("l", True), ("gamma", True), ("C", True),
                                ("T", True), ("sigma", False), ("alpha", False),
                                ("N", False)):
            v = getattr(self, name)
            if v < 0 or (lo_strict and v == 0):
                op = ">" if lo_strict else ">="
                raise ConfigError(f"params.{name}: must be {op} 0, got {v!r}")

    def replace(self, **kw) -> "MarketParams":
        from dataclasses import replace
        return replace(self, **kw)


@dataclass(frozen=True)
class ContractSpec:
    """One contract: payoff family and, for collars, the two strikes.

    A collar's strikes default to K1 = 40, K2 = 50, the baseline tables' own.
    """

    family: Family
    K1: float | None = None
    K2: float | None = None

    def __post_init__(self):
        for name, default in (("K1", 40.0), ("K2", 50.0)):
            k = getattr(self, name)
            if not self.family.is_collar:
                if k is not None:
                    raise ConfigError(f"contracts.{name}: only collar families take "
                                      f"strikes, got {k!r} for {self.family.value}")
            elif k is None:
                object.__setattr__(self, name, default)
            else:
                check_real(f"contracts.{name}", k)
        if self.family.is_collar and not self.K1 < self.K2:
            raise ConfigError(f"contracts.K2: must exceed K1, got K1={self.K1!r}, "
                              f"K2={self.K2!r}")

    def target(self, N: float) -> float:
        """Terminal inventory target: N under physical delivery, 0 in cash."""
        return N if self.family.is_physical else 0.0


def make_contract(family: Family | str, params: MarketParams | None = None,
                  K1: float | None = None, K2: float | None = None) -> ContractSpec:
    """A ContractSpec from a family or its name; the one parser of family names.

    `params` is unused: a contract depends on no market parameter.  It stays
    only because perfbench/probes.py passes it positionally (ROADMAP item 1).
    """
    if not isinstance(family, Family):
        try:
            family = Family(family)
        except ValueError:
            raise ConfigError(f"contracts.family: unknown family {family!r}") from None
    return ContractSpec(family=family, K1=K1, K2=K2)


def check_count(field: str, value, least: int, most: int = sys.maxsize) -> None:
    """Reject a count that is not an integer in [least, most], naming the field."""
    # sys.maxsize is numpy's largest length; it lies in the float range, so
    # dt = T/n_steps and ds stay finite
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not least <= value <= most):
        raise ConfigError(f"{field}: must be an integer in [{least}, {most}], "
                          f"got {value!r}")


def check_real(field: str, value) -> None:
    """Reject a value that is not a finite real number, naming the field."""
    # abs() <= max also rejects nan and integers beyond the float range
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{field}: must be a finite real number, got {value!r}")


# largest grid.I or grid.J: np.linspace counts the I + 1 nodes in float64,
# exactly up to 2**53, and numpy cannot index a node array near 2**60
_MAX_INTERVALS = 2**53 - 1


@dataclass(frozen=True)
class GridSpec:
    """Uniform (price x inventory x time) grid. Defaults match the baseline runs."""

    s_min: float = 15.0
    s_max: float = 75.0
    I: int = 100          # price intervals (I + 1 nodes)
    q_min: float = -1.0
    q_max: float = 1.0
    J: int = 100          # inventory intervals (J + 1 nodes)
    n_steps: int = 1000   # time steps (n_steps + 1 layers)

    def __post_init__(self):
        for name in ("s_min", "s_max", "q_min", "q_max"):
            check_real(f"grid.{name}", getattr(self, name))
        if not self.s_min < self.s_max:
            raise ConfigError("grid: s_min < s_max required")
        if not self.q_min < self.q_max:
            raise ConfigError("grid: q_min < q_max required")
        for name, least, most in (("I", 2, _MAX_INTERVALS), ("J", 2, _MAX_INTERVALS),
                                  ("n_steps", 1, sys.maxsize)):
            check_count(f"grid.{name}", getattr(self, name), least, most)
        # the solver divides by ds**2 and dq: a spacing that overflows or
        # underflows there would surface only as a non-finite sweep
        if not 0.0 < self.ds * self.ds < math.inf:
            raise ConfigError(f"grid.ds: the price spacing (s_max - s_min)/I = "
                              f"{self.ds!r} must have a finite, positive square")
        if not math.isfinite(self.dq):
            raise ConfigError(f"grid.dq: the inventory spacing (q_max - q_min)/J = "
                              f"{self.dq!r} must be finite")

    @property
    def ds(self) -> float:
        return (self.s_max - self.s_min) / self.I

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.J

    def dt(self, T: float) -> float:
        return T / self.n_steps

    def s_nodes(self) -> np.ndarray:
        return np.linspace(self.s_min, self.s_max, self.I + 1)

    def q_nodes(self) -> np.ndarray:
        return np.linspace(self.q_min, self.q_max, self.J + 1)

    def refine(self, factor: int = 2) -> "GridSpec":
        """Halve (for factor=2) every spacing; used by convergence checks."""
        return GridSpec(self.s_min, self.s_max, self.I * factor,
                        self.q_min, self.q_max, self.J * factor,
                        self.n_steps * factor)


def liquidation_cost(q, target: float, alpha: float):
    """Terminal friction cost alpha*(q - target)^2 of moving inventory to target."""
    return alpha * (np.asarray(q) - target) ** 2


def collar_per_share(S, K1: float, K2: float):
    """Z(S) = S + (K1 - S)^+ - (S - K2)^+: payoff floored at K1, capped at K2."""
    S = np.asarray(S)
    return S + np.maximum(K1 - S, 0.0) - np.maximum(S - K2, 0.0)


def payoff_pi(spec: ContractSpec, S, N: float, A=None):
    """Payoff Pi owed by the broker: N*S linear, N*Z(S) collared, N*(S - A) TWAP,
    A the running average price; A omitted is S, where the TWAP reduction
    starts, so a TWAP contract then pays 0."""
    S = np.asarray(S)
    if spec.family.is_collar:
        return N * collar_per_share(S, spec.K1, spec.K2)
    if spec.family.is_twap:
        return N * (S - (S if A is None else A))
    return N * S


def terminal_fee(spec: ContractSpec, q, S, params: MarketParams, A=None):
    """Settlement Pi + L(q) of a contract: the fee equation's terminal condition
    and, at the simulated (Q, S, A), what the Monte Carlo settles."""
    return payoff_pi(spec, S, params.N, A) + liquidation_cost(
        q, spec.target(params.N), params.alpha)
