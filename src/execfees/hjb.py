"""Backward finite-difference solver for the indifference-fee equation.

The fee P(t, S, q) of a contract with payoff Pi and liquidation penalty L
solves, backward from P(T) = Pi(S) + L(q),

    -dP/dt + r*P + (mu - r*S)*q - mu*dP/dS - (sigma^2/2)*d2P/dS2
        - (sigma^2*gamma/2)*e^{r(T-t)}*(q - dP/dS)^2
        + sup_{|v|<=C} { -l*v^2 + (b*q - b*dP/dS - dP/dq)*v } = 0.

solve_fee_surface is the single entry point for all six families; the TWAP
families go through a state reduction (r = 0 only) described there.

Time stepping is a semi-implicit operator splitting: the linear part
(discounting, drift, diffusion in S) is implicit and reduces to one
tridiagonal solve per inventory slice; the nonlinear part (quadratic risk
term and the constrained trading Hamiltonian) is explicit at the known time
layer.  The Hamiltonian is discretized in upwind fashion: the buy and sell
candidates are evaluated with one-sided inventory differences (second order
where two neighbors exist) and the better one is kept.  The explicit step
needs roughly C*dt <= dq/2 (the default grid sits exactly there); a warning
fires beyond 0.6*dq and another when the explicit increment gets large
relative to the surface scale.

At the price boundaries d2P/dS2 = 0 is imposed and the remaining first
derivative is one-sided; at the inventory boundaries the control candidates
point into the grid.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .contracts import (ContractSpec, Family, GridSpec, MarketParams, check_real,
                        liquidation_cost, make_contract, terminal_fee)
from .errors import (BlendOverflow, ConfigError, NonFinite, RequiresZeroRate,
                     SingularTridiagonal)

# warn when dt * max|explicit increment| exceeds this fraction of the surface scale
_EXPLICIT_GUARD = 0.1


@dataclass(frozen=True)
class RegulatorySpec:
    """Approval probability p and decision time tau of the regulatory switch."""

    p: float
    tau: float

    def __post_init__(self):
        check_real("regulatory.p", self.p)
        check_real("regulatory.tau", self.tau)
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"regulatory.p: must lie in [0, 1], got {self.p!r}")

    def snapped_step(self, params: MarketParams, grid: GridSpec) -> int:
        """Index of the grid time layer at tau; tau must be an interior grid time."""
        if not 0.0 < self.tau < params.T:
            raise ConfigError(f"regulatory.tau: must lie in (0, T), got {self.tau!r}")
        dt = grid.dt(params.T)
        n_tau = int(round(self.tau / dt))
        if n_tau <= 0 or n_tau >= grid.n_steps:
            raise ConfigError("regulatory.tau: snaps to an endpoint of the time grid")
        if abs(n_tau * dt - self.tau) > 1e-9 * dt:
            raise ConfigError("regulatory.tau: does not fall on a grid time step")
        return n_tau


@dataclass
class FeeSurface:
    """Fee values on the (time, price, inventory) grid.

    ``values[k, i, j]`` approximates the fee at time layer ``n0 + k``, price
    node i, inventory node j.  For TWAP contracts the surface holds the
    reduced value U; the fee at time t is N*(t/T)*(S - A) + U, which at t = 0
    is U itself.
    """

    grid: GridSpec
    params: MarketParams
    values: np.ndarray
    contract: ContractSpec | None = None
    n0: int = 0
    twap: bool = False
    kind: str = "fee"

    @property
    def n_layers(self) -> int:
        return self.values.shape[0]

    def layer_time(self, k: int) -> float:
        return (self.n0 + k) * self.grid.dt(self.params.T)

    def value_at(self, t: float, S: float, q: float) -> float:
        """Trilinear interpolation; exact at grid nodes."""
        return float(_interpolate(self, _layer_position(self, t), S, q))


@dataclass
class ControlSurface:
    """Clamped optimal trading speed on the same grid as the fee surface."""

    grid: GridSpec
    params: MarketParams
    values: np.ndarray
    n0: int = 0


@dataclass
class RegulatoryResult:
    """Pre-decision surface on [0, tau] and the two post-decision branches."""

    pre: FeeSurface
    post_physical: FeeSurface
    post_cash: FeeSurface
    n_tau: int


def _bilinear(V: np.ndarray, g: GridSpec, S, q):
    """Bilinear interpolation of one (price, inventory) layer, clamped to the hull."""
    si = np.clip((np.asarray(S) - g.s_min) / g.ds, 0.0, g.I - 1e-12)
    qi = np.clip((np.asarray(q) - g.q_min) / g.dq, 0.0, g.J - 1e-12)
    i0 = si.astype(int); j0 = qi.astype(int)
    fs = si - i0; fq = qi - j0
    return (V[i0, j0] * (1 - fs) * (1 - fq) + V[i0 + 1, j0] * fs * (1 - fq)
            + V[i0, j0 + 1] * (1 - fs) * fq + V[i0 + 1, j0 + 1] * fs * fq)


def _layer_position(surface: FeeSurface | ControlSurface, t: float) -> float:
    """Fractional index of time t among the surface's layers."""
    return t / surface.grid.dt(surface.params.T) - surface.n0


def _interpolate(surface: FeeSurface | ControlSurface, k: float, S, q):
    """Bilinear in (S, q), linear between layers at fractional layer position k.

    Coordinates outside the grid hull are clamped to it; an integer k reads
    layer k alone.
    """
    g = surface.grid
    n_layers = surface.values.shape[0]
    # builtins, not np.clip: this runs on a scalar once per Euler step
    k = min(max(k, 0.0), n_layers - 1.0)
    k0 = int(k); k1 = min(k0 + 1, n_layers - 1)
    wk = k - k0
    v = _bilinear(surface.values[k0], g, S, q)
    if wk > 0.0:
        v = (1.0 - wk) * v + wk * _bilinear(surface.values[k1], g, S, q)
    return v


def build_banded(params: MarketParams, grid: GridSpec) -> np.ndarray:
    """Banded (3, I+1) storage of the implicit matrix for scipy.solve_banded.

    Interior rows hold the diffusion and the central drift, the same for every
    price row; the operator contains no inventory derivatives, so the matrix
    serves every inventory slice.  The rows at S_min and S_max impose
    d2P/dS2 = 0 with a one-sided first derivative.
    """
    dt = grid.dt(params.T)
    ds = grid.ds
    diff = params.sigma**2 * dt / (2.0 * ds**2)
    conv = params.mu * dt / (2.0 * ds)
    c = params.mu * dt / ds
    ab = np.zeros((3, grid.I + 1))
    ab[0, 2:] = diff + conv                                       # super, rows 1..I-1
    ab[1, 1:-1] = -(params.sigma**2 * dt / ds**2 + 1.0 + params.r * dt)
    ab[2, :-2] = diff - conv                                      # sub, rows 1..I-1
    ab[1, 0], ab[0, 1] = -(1.0 + params.r * dt + c), c            # row at S_min
    ab[2, -2], ab[1, -1] = -c, -(1.0 + params.r * dt - c)         # row at S_max
    return ab


def _price_gradient(P: np.ndarray, ds: float) -> np.ndarray:
    """Central dP/dS in the interior, one-sided at the price boundaries."""
    D = np.empty_like(P)
    D[1:-1, :] = (P[2:, :] - P[:-2, :]) / (2.0 * ds)
    D[0, :] = (P[1, :] - P[0, :]) / ds
    D[-1, :] = (P[-1, :] - P[-2, :]) / ds
    return D


def _upwind_inventory_gradients(P: np.ndarray, dq: float):
    """One-sided dP/dq pairs (forward, backward) for the monotone Hamiltonian.

    Second-order stencils where two neighbors exist, first-order next to and
    at the boundary.
    """
    Df = np.empty_like(P)
    Df[:, :-2] = (-3.0 * P[:, :-2] + 4.0 * P[:, 1:-1] - P[:, 2:]) / (2.0 * dq)
    Df[:, -2] = (P[:, -1] - P[:, -2]) / dq
    Df[:, -1] = (P[:, -1] - P[:, -2]) / dq
    Db = np.empty_like(P)
    Db[:, 2:] = (3.0 * P[:, 2:] - 4.0 * P[:, 1:-1] + P[:, :-2]) / (2.0 * dq)
    Db[:, 1] = (P[:, 1] - P[:, 0]) / dq
    Db[:, 0] = (P[:, 1] - P[:, 0]) / dq
    return Df, Db


def explicit_nonlinear(P_next: np.ndarray, n: int, params: MarketParams,
                       grid: GridSpec, twap: bool = False) -> np.ndarray:
    """Explicit nonlinear increment evaluated on the known layer n+1.

    Risk term -(sigma^2*gamma/2)*e^{r(T-t)}*(q - dP/dS)^2 plus the constrained
    Hamiltonian sup_{|v|<=C} {-l*v^2 + (b*q - b*dP/dS - dP/dq)*v}, evaluated
    at the clamped optimizer so the scheme stays correct when the speed bound
    binds.  For the TWAP reduction q is replaced by q - N*t/T in both terms.
    """
    dt = grid.dt(params.T)
    t_next = (n + 1) * dt
    ds, dq = grid.ds, grid.dq
    q = grid.q_nodes()[None, :]
    DS = _price_gradient(P_next, ds)
    sched = params.N * t_next / params.T if twap else 0.0
    q_eff = q - sched
    risk = (-0.5 * params.sigma**2 * params.gamma
            * np.exp(params.r * (params.T - t_next)) * (q_eff - DS) ** 2)
    drive = params.b * q_eff - params.b * DS
    Df, Db = _upwind_inventory_gradients(P_next, dq)
    lin_f = drive - Df
    lin_b = drive - Db
    v_f = np.clip(lin_f / (2.0 * params.l), 0.0, params.C)
    v_b = np.clip(lin_b / (2.0 * params.l), -params.C, 0.0)
    v_f[:, -1] = 0.0   # no buying at q_max
    v_b[:, 0] = 0.0    # no selling at q_min
    ham = np.maximum(-params.l * v_f**2 + lin_f * v_f,
                     -params.l * v_b**2 + lin_b * v_b)
    return risk + ham


def _source(n: int, params: MarketParams, grid: GridSpec, twap: bool) -> np.ndarray:
    """(mu - r*S)*q source of the linear operator, on the unknown layer n."""
    src = (params.mu - params.r * grid.s_nodes())[:, None] * grid.q_nodes()[None, :]
    if twap:
        src = src - params.mu * params.N * (n * grid.dt(params.T)) / params.T
    return src


def step_backward(P_next: np.ndarray, n: int, params: MarketParams,
                  grid: GridSpec, twap: bool = False,
                  ab: np.ndarray | None = None) -> np.ndarray:
    """One backward step: layer n from layer n+1 (a one-step _sweep).

    Solves, for each inventory slice, the tridiagonal system assembled by
    build_banded (passed in as ab, or built here) against the right-hand side
    -P^{n+1} + dt*explicit_nonlinear + dt*(mu - r*S)*q.
    """
    return _sweep(P_next, n + 1, n, params, grid, twap, ab)[0]


def _sweep(P_terminal: np.ndarray, n_hi: int, n_lo: int, params: MarketParams,
           grid: GridSpec, twap: bool = False,
           ab: np.ndarray | None = None) -> np.ndarray:
    """Backward sweep from layer n_hi down to n_lo; returns all layers."""
    if ab is None:
        ab = build_banded(params, grid)
    dt = grid.dt(params.T)
    if params.C * dt > 0.6 * grid.dq * (1.0 + 1e-12):
        warnings.warn(
            f"C*dt = {params.C * dt:.4g} exceeds 0.6*dq = {0.6 * grid.dq:.4g}: "
            "the upwind Hamiltonian step can lose stability; keep "
            "C*dt <= dq/2 (increase n_steps or coarsen the inventory grid)",
            RuntimeWarning)
    layers = np.empty((n_hi - n_lo + 1, grid.I + 1, grid.J + 1))
    layers[-1] = P_terminal
    P = P_terminal
    worst = 0.0
    for n in range(n_hi - 1, n_lo - 1, -1):
        L2 = explicit_nonlinear(P, n, params, grid, twap)
        scale = max(1.0, float(np.abs(P).max()))
        worst = max(worst, dt * float(np.abs(L2).max()) / scale)
        rhs = -P + dt * L2 + dt * _source(n, params, grid, twap)
        try:
            P = solve_banded((1, 1), ab, rhs, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SingularTridiagonal(str(exc)) from exc
        if not np.isfinite(P).all():
            raise NonFinite(f"surface became non-finite at time step {n}")
        layers[n - n_lo] = P
    if worst > _EXPLICIT_GUARD:
        warnings.warn(
            f"explicit increment reached {worst:.2f} of the surface scale; "
            "the time step is too coarse for these parameters", RuntimeWarning)
    return layers


def _check_strikes_on_grid(spec: ContractSpec, grid: GridSpec) -> None:
    if not spec.family.is_collar:
        return
    for name, k in (("K1", spec.K1), ("K2", spec.K2)):
        off = (k - grid.s_min) / grid.ds
        if abs(off - round(off)) > 1e-9:
            warnings.warn(f"collar strike {name}={k} does not lie on a price node; "
                          "terminal kink lands between nodes", RuntimeWarning)


def solve_fee_surface(spec: ContractSpec, params: MarketParams,
                      grid: GridSpec) -> FeeSurface:
    """Full backward solve of the fee equation for any contract family.

    TWAP families are solved through the state reduction (requires r = 0):
    the reduced value U(t, S, q) satisfies the fee equation with q replaced
    by q - N*t/T in the risk and impact terms, and terminal condition
    U(T, q) = L(q).  The fee at t = 0 equals U(0, q, S).  The TWAP target is
    rebuilt from params so that it follows the same N as the schedule N*t/T.
    """
    twap = spec.family.is_twap
    if twap:
        if params.r != 0.0:
            raise RequiresZeroRate("the TWAP state reduction is derived for r = 0")
        spec = make_contract(spec.family, params)
    _check_strikes_on_grid(spec, grid)
    S = grid.s_nodes()[:, None]
    q = grid.q_nodes()[None, :]
    P_T = (liquidation_cost(q, spec.liquidation_target, params.alpha) if twap
           else terminal_fee(spec, q, S, params)) + np.zeros((grid.I + 1, grid.J + 1))
    values = _sweep(P_T, grid.n_steps, 0, params, grid, twap)
    return FeeSurface(grid=grid, params=params, values=values, contract=spec,
                      twap=twap, kind="twap_value" if twap else "fee")


def solve_regulatory(reg: RegulatorySpec, params: MarketParams,
                     grid: GridSpec) -> RegulatoryResult:
    """Two-stage solve for the physical-or-cash regulatory switch at tau.

    On [tau, T] the physical (approved, R=1) and cash (rejected, R=0)
    surfaces P1, P0 are solved separately.  At tau the pre-decision value
    function is the probability mixture of the two branch value functions;
    writing each branch as -exp(-gamma*e^{r(T-tau)}*(x + q*S - P_i)) and
    matching the same form for the mixture gives the fee-level terminal

        P_pre(tau) = e^{-r(T-tau)}/gamma
                     * log( p*e^{g*P1} + (1-p)*e^{g*P0} ),  g = gamma*e^{r(T-tau)},

    which is then propagated to t = 0 with the standard backward stepping.
    The exponentials are rescaled by their nodewise maximum before the log.
    """
    n_tau = reg.snapped_step(params, grid)
    S = grid.s_nodes()[:, None]
    q = grid.q_nodes()[None, :]
    shape = np.zeros((grid.I + 1, grid.J + 1))
    phys = make_contract(Family.LINEAR_PHYSICAL, params)
    cash = make_contract(Family.LINEAR_CASH, params)
    post1 = _sweep(terminal_fee(phys, q, S, params) + shape,
                   grid.n_steps, n_tau, params, grid)
    post0 = _sweep(terminal_fee(cash, q, S, params) + shape,
                   grid.n_steps, n_tau, params, grid)
    tau = n_tau * grid.dt(params.T)
    g = params.gamma * np.exp(params.r * (params.T - tau))
    P1, P0 = post1[0], post0[0]
    M = np.maximum(P1, P0)
    mix = reg.p * np.exp(g * (P1 - M)) + (1.0 - reg.p) * np.exp(g * (P0 - M))
    if not np.isfinite(mix).all() or np.any(mix <= 0.0):
        raise BlendOverflow("regulatory mixture left the representable range")
    P_tau = M + np.log(mix) / g
    pre = _sweep(P_tau, n_tau, 0, params, grid)
    mk = lambda vals, c, n0, kind: FeeSurface(grid=grid, params=params, values=vals,
                                              contract=c, n0=n0, kind=kind)
    return RegulatoryResult(
        pre=mk(pre, None, 0, "regulatory_pre"),
        post_physical=mk(post1, phys, n_tau, "fee"),
        post_cash=mk(post0, cash, n_tau, "fee"),
        n_tau=n_tau,
    )


def extract_control(surface: FeeSurface, params: MarketParams) -> ControlSurface:
    """Clamped optimal speed v* = clip((b*q - b*dP/dS - dP/dq)/(2l), [-C, C]).

    Central differences in the interior, second-order one-sided at the edges;
    at the inventory boundaries the speed is additionally restricted to point
    into the grid, matching the solver's boundary Hamiltonian.
    """
    g = surface.grid
    ds, dq = g.ds, g.dq
    q = g.q_nodes()[None, :]
    out = np.empty_like(surface.values)
    for k in range(surface.n_layers):
        P = surface.values[k]
        DS = np.empty_like(P)
        DS[1:-1, :] = (P[2:, :] - P[:-2, :]) / (2.0 * ds)
        DS[0, :] = (-3.0 * P[0, :] + 4.0 * P[1, :] - P[2, :]) / (2.0 * ds)
        DS[-1, :] = (3.0 * P[-1, :] - 4.0 * P[-2, :] + P[-3, :]) / (2.0 * ds)
        Dq = np.empty_like(P)
        Dq[:, 1:-1] = (P[:, 2:] - P[:, :-2]) / (2.0 * dq)
        Dq[:, 0] = (-3.0 * P[:, 0] + 4.0 * P[:, 1] - P[:, 2]) / (2.0 * dq)
        Dq[:, -1] = (3.0 * P[:, -1] - 4.0 * P[:, -2] + P[:, -3]) / (2.0 * dq)
        sched = (params.N * surface.layer_time(k) / params.T) if surface.twap else 0.0
        v = (params.b * (q - sched) - params.b * DS - Dq) / (2.0 * params.l)
        np.clip(v, -params.C, params.C, out=v)
        v[:, 0] = np.maximum(v[:, 0], 0.0)
        v[:, -1] = np.minimum(v[:, -1], 0.0)
        out[k] = v
    return ControlSurface(grid=g, params=params, values=out, n0=surface.n0)
