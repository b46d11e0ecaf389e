"""Backward finite-difference solver for the indifference-fee equation.

The fee P(t, S, q) of a contract with payoff Pi and liquidation penalty L
solves, backward from P(T) = Pi(S) + L(q),

    -dP/dt + r*P + (mu - r*S)*q - mu*dP/dS - (sigma^2/2)*d2P/dS2
        - (sigma^2*gamma/2)*e^{r(T-t)}*(q - dP/dS)^2
        + sup_{|v|<=C} { -l*v^2 + (b*q - b*dP/dS - dP/dq)*v } = 0.

solve_fee_surface is the single entry point for all six families.  Only
_terminal_layer tells TWAP apart: it hands the kernels a schedule (N for the
TWAP state reduction, 0 otherwise) and they always use q - schedule*t/T.

Time stepping is a semi-implicit operator splitting: the linear part
(discounting, drift, diffusion in S) is implicit and reduces to one
tridiagonal solve per inventory slice; the nonlinear part (quadratic risk
term and the constrained trading Hamiltonian) is explicit at the known time
layer.  Each sweep allocates its workspace once and calls LAPACK gtsv (the
routine scipy.linalg.solve_banded runs for a tridiagonal matrix) directly,
so a time step allocates no array of the grid's size.  The Hamiltonian is
discretized in upwind fashion: the buy and sell candidates are evaluated
with one-sided inventory differences (second order where two neighbors
exist) and the better one is kept.  The explicit step needs roughly
C*dt <= dq/2 (the default grid sits exactly there); a warning fires beyond
0.6*dq and another when the explicit increment gets large relative to the
surface scale.

At the price boundaries d2P/dS2 = 0 is imposed and the remaining first
derivative is one-sided; at the inventory boundaries the control candidates
point into the grid.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import get_lapack_funcs

from .contracts import (ContractSpec, Family, GridSpec, MarketParams, check_real,
                        liquidation_cost, terminal_fee)
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
        time_grid = f"the time grid (grid.n_steps = {grid.n_steps}, T = {params.T!r})"
        if n_tau <= 0 or n_tau >= grid.n_steps:
            raise ConfigError(f"regulatory.tau: {self.tau!r} snaps to an endpoint "
                              f"of {time_grid}")
        if abs(n_tau * dt - self.tau) > 1e-9 * dt:
            raise ConfigError(f"regulatory.tau: {self.tau!r} is not a time step of "
                              f"{time_grid}; tau * n_steps / T must be an integer")
        return n_tau


@dataclass
class FeeSurface:
    """Fee values on the (time, price, inventory) grid.

    ``values[k, i, j]`` approximates the fee at time layer ``n0 + k``, price
    node i, inventory node j of ``grid``, the grid it was solved on (see
    _terminal_layer).  At schedule N (TWAP) it holds the reduced value U; the
    fee at time t is N*(t/T)*(S - A) + U, which at t = 0 is U itself.
    """

    grid: GridSpec
    params: MarketParams
    values: np.ndarray
    contract: ContractSpec | None = None
    n0: int = 0
    schedule: float = 0.0
    kind: str = "fee"

    @property
    def n_layers(self) -> int:
        return self.values.shape[0]

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


def _bilinear(V: np.ndarray, g: GridSpec, S, q):
    """Bilinear interpolation of one (price, inventory) layer, clamped to the hull."""
    si = np.clip((np.asarray(S) - g.s_min) / g.ds, 0.0, g.I - 1e-12)
    qi = np.clip((np.asarray(q) - g.q_min) / g.dq, 0.0, g.J - 1e-12)
    i0 = si.astype(int); j0 = qi.astype(int)
    fs = si - i0; fq = qi - j0
    # four 1-D gathers at one flat index: cheaper than 2-D fancy indexing
    flat = V.ravel()
    row = V.shape[1]
    idx = i0 * row + j0
    return (flat.take(idx) * (1 - fs) * (1 - fq) + flat.take(idx + row) * fs * (1 - fq)
            + flat.take(idx + 1) * (1 - fs) * fq + flat.take(idx + (row + 1)) * fs * fq)


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
    # numpy squares: one that overflows is inf, for the sweep to report
    sigma2, ds2 = np.float64(params.sigma)**2, np.float64(ds)**2
    diff = sigma2 * dt / (2.0 * ds2)
    conv = params.mu * dt / (2.0 * ds)
    c = params.mu * dt / ds
    ab = np.zeros((3, grid.I + 1))
    ab[0, 2:] = diff + conv                                       # super, rows 1..I-1
    ab[1, 1:-1] = -(sigma2 * dt / ds2 + 1.0 + params.r * dt)
    ab[2, :-2] = diff - conv                                      # sub, rows 1..I-1
    ab[1, 0], ab[0, 1] = -(1.0 + params.r * dt + c), c            # row at S_min
    ab[2, -2], ab[1, -1] = -c, -(1.0 + params.r * dt - c)         # row at S_max
    return ab


class _Workspace:
    """Buffers and per-sweep constants of the backward step.

    The buffers are Fortran-ordered (I+1, J+1) arrays, so gtsv solves the
    right-hand side built in L2 in place; _sweep then swaps L2 and P.
    Each step rewrites the rows q_eff = q - schedule*t/T and b*q_eff.
    """

    def __init__(self, grid: GridSpec):
        self.q = grid.q_nodes()[None, :]
        self.q_eff, self.bq = np.empty_like(self.q), np.empty_like(self.q)
        shape = (grid.I + 1, grid.J + 1)
        (self.DS, self.Df, self.Db, self.vf, self.vb, self.L2,
         self.P) = (np.empty(shape, order="F") for _ in range(7))


def _absmax(a: np.ndarray) -> float:
    """max |a| without the temporary of np.abs(a)."""
    return float(max(a.max(), -a.min()))


def explicit_nonlinear(P_next: np.ndarray, n: int, params: MarketParams,
                       grid: GridSpec, schedule: float = 0.0,
                       work: _Workspace | None = None) -> np.ndarray:
    """Explicit nonlinear increment evaluated on the known layer n+1.

    Risk term -(sigma^2*gamma/2)*e^{r(T-t)}*(q - dP/dS)^2 plus the constrained
    Hamiltonian sup_{|v|<=C} {-l*v^2 + (b*q - b*dP/dS - dP/dq)*v}, evaluated
    at the clamped optimizer so the scheme stays correct when the speed bound
    binds.  q enters both terms as q - schedule*t/T (see _terminal_layer).

    dP/dS is central inside and one-sided at the price edges; the one-sided
    dP/dq pair is second order where two neighbors exist.  Everything is
    written into `work`, the result into work.L2; with work=None a fresh
    workspace is built, so the returned array is the caller's own.
    """
    w = _Workspace(grid) if work is None else work
    P, DS, Df, Db, vf, vb, L2 = P_next, w.DS, w.Df, w.Db, w.vf, w.vb, w.L2
    dt = grid.dt(params.T)
    t_next = (n + 1) * dt
    ds, dq, l, C = grid.ds, grid.dq, params.l, params.C
    np.subtract(w.q, schedule * t_next / params.T, out=w.q_eff)
    np.multiply(w.q_eff, params.b, out=w.bq)
    np.subtract(P[2:], P[:-2], out=DS[1:-1]); DS[1:-1] /= 2.0 * ds
    np.subtract(P[1], P[0], out=DS[0]); DS[0] /= ds
    np.subtract(P[-1], P[-2], out=DS[-1]); DS[-1] /= ds
    # forward and backward inventory differences share 4*P[:, 1:-1] (in vf)
    np.multiply(P[:, 1:-1], 4.0, out=vf[:, :-2])
    np.multiply(P[:, :-2], -3.0, out=Df[:, :-2])
    Df[:, :-2] += vf[:, :-2]; Df[:, :-2] -= P[:, 2:]; Df[:, :-2] /= 2.0 * dq
    np.subtract(P[:, -1], P[:, -2], out=Df[:, -2]); Df[:, -2] /= dq
    Df[:, -1] = Df[:, -2]
    np.multiply(P[:, 2:], 3.0, out=Db[:, 2:])
    Db[:, 2:] -= vf[:, :-2]; Db[:, 2:] += P[:, :-2]; Db[:, 2:] /= 2.0 * dq
    np.subtract(P[:, 1], P[:, 0], out=Db[:, 1]); Db[:, 1] /= dq
    Db[:, 0] = Db[:, 1]
    # risk term into L2, then b*q_eff - b*dP/dS into DS
    np.subtract(w.q_eff, DS, out=L2); np.square(L2, out=L2)
    L2 *= (-0.5 * np.float64(params.sigma)**2 * params.gamma
           * np.exp(params.r * (params.T - t_next)))
    DS *= params.b; np.subtract(w.bq, DS, out=DS)
    # the linear coefficients in Df, Db; the clamped speeds in vf, vb
    np.subtract(DS, Df, out=Df); np.subtract(DS, Db, out=Db)
    np.divide(Df, 2.0 * l, out=vf); vf.clip(0.0, C, out=vf)
    np.divide(Db, 2.0 * l, out=vb); vb.clip(-C, 0.0, out=vb)
    vf[:, -1] = 0.0   # no buying at q_max
    vb[:, 0] = 0.0    # no selling at q_min
    # the buy and sell candidates -l*v^2 + lin*v, and the better one
    Df *= vf; np.square(vf, out=vf); vf *= -l; vf += Df
    Db *= vb; np.square(vb, out=vb); vb *= -l; vb += Db
    np.maximum(vf, vb, out=vf)
    L2 += vf
    return L2


def step_backward(P_next: np.ndarray, n: int, params: MarketParams,
                  grid: GridSpec, schedule: float = 0.0,
                  ab: np.ndarray | None = None) -> np.ndarray:
    """One backward step: layer n from layer n+1 (a one-step _sweep).

    Solves, for each inventory slice, the tridiagonal system assembled by
    build_banded (passed in as ab, or built here) against the right-hand side
    -P^{n+1} + dt*explicit_nonlinear + dt*(mu - r*S)*q - dt*mu*schedule*t/T.
    """
    return _sweep(P_next, n + 1, n, params, grid, schedule, ab)[0]


def _sweep(P_terminal: np.ndarray, n_hi: int, n_lo: int, params: MarketParams,
           grid: GridSpec, schedule: float = 0.0,
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
    w = _Workspace(grid)
    src = (params.mu - params.r * grid.s_nodes())[:, None] * w.q
    dt_src = np.asfortranarray(dt * src)
    moving = params.mu * schedule != 0.0   # dt_src is rebuilt per step only then
    gtsv, = get_lapack_funcs(("gtsv",), (ab,))
    du, d, dl = ab[0, 1:], ab[1, :], ab[2, :-1]
    layers = np.empty((n_hi - n_lo + 1, grid.I + 1, grid.J + 1))
    layers[-1] = P_terminal
    P = w.P
    P[...] = P_terminal
    top = _absmax(P)   # the surface scale; not finite exactly when P is not
    worst = 0.0
    for n in range(n_hi - 1, n_lo - 1, -1):
        rhs = explicit_nonlinear(P, n, params, grid, schedule, w)
        worst = max(worst, dt * _absmax(rhs) / max(1.0, top))
        if moving:
            np.subtract(src, params.mu * schedule * (n * dt) / params.T, out=dt_src)
            dt_src *= dt
        # -P + dt*L2 + dt*src: x - y is x + (-y), and a sum of two commutes
        rhs *= dt; rhs -= P; rhs += dt_src
        w.L2 = P   # the next increment overwrites the layer just used
        P, info = gtsv(dl, d, du, rhs, overwrite_b=True)[3:]
        if info > 0:
            raise SingularTridiagonal("singular matrix")
        top = _absmax(P)
        if not math.isfinite(top):
            raise NonFinite(f"surface became non-finite at time step {n}")
        layers[n - n_lo] = P
    if worst > _EXPLICIT_GUARD:
        warnings.warn(
            f"explicit increment reached {worst:.2f} of the surface scale; "
            "the time step is too coarse for these parameters", RuntimeWarning)
    return layers


def _terminal_layer(spec: ContractSpec, params: MarketParams,
                    grid: GridSpec) -> tuple[GridSpec, np.ndarray, float]:
    """The grid a solve runs on, its terminal layer P(T) and its schedule.

    TWAP families are solved through a state reduction (r = 0 only): the
    reduced value U(t, S, q) satisfies the fee equation with q replaced by
    q - N*t/T in the risk, impact and source terms, and U(T, q) = L(q); the
    fee at t = 0 is U(0, S, q).  Their schedule is N, every other family's 0.

    At r = 0 every non-collar fee is affine in S (a(t, q) + N*S, or the TWAP
    reduction's price-free U); the scheme and bilinear lookup are exact on an
    affine field, so those solves take a 3-node price axis on the same hull.
    """
    twap = spec.family.is_twap
    if twap and params.r != 0.0:
        raise RequiresZeroRate("the TWAP state reduction is derived for r = 0")
    if spec.family.is_collar:
        for name, k in (("K1", spec.K1), ("K2", spec.K2)):
            off = (k - grid.s_min) / grid.ds
            if abs(off - round(off)) > 1e-9:
                warnings.warn(f"collar strike {name}={k} does not lie on a price "
                              "node; terminal kink lands between nodes", RuntimeWarning)
    elif params.r == 0.0:
        grid = replace(grid, I=2)
    S, q = grid.s_nodes()[:, None], grid.q_nodes()[None, :]
    P_T = (liquidation_cost(q, spec.target(params.N), params.alpha)
           if twap else terminal_fee(spec, q, S, params))
    return grid, P_T + np.zeros((grid.I + 1, grid.J + 1)), params.N if twap else 0.0


def solve_fee_surface(spec: ContractSpec, params: MarketParams,
                      grid: GridSpec) -> FeeSurface:
    """Full backward solve of the fee equation for any contract family."""
    grid, P_T, schedule = _terminal_layer(spec, params, grid)
    values = _sweep(P_T, grid.n_steps, 0, params, grid, schedule)
    return FeeSurface(grid=grid, params=params, values=values, contract=spec,
                      schedule=schedule)


def solve_regulatory(tau: float, p_values, params: MarketParams,
                     grid: GridSpec) -> list[FeeSurface]:
    """Pre-decision fees at t = 0 for the physical-or-cash switch at tau.

    On [tau, T] the physical (approved, R=1) and cash (rejected, R=0)
    surfaces P1, P0 are solved once; they do not depend on p.  At tau the
    pre-decision value function is the probability mixture of the two branch
    value functions; writing each branch as -exp(-gamma*e^{r(T-tau)}*(x + q*S - P_i))
    and matching the same form for the mixture gives the fee-level terminal

        P_pre(tau) = e^{-r(T-tau)}/gamma
                     * log( p*e^{g*P1} + (1-p)*e^{g*P0} ),  g = gamma*e^{r(T-tau)},

    which is then propagated to t = 0 with the standard backward stepping,
    once per approval probability in p_values.  The exponentials are rescaled
    by their nodewise maximum before the log.

    Returns one FeeSurface per p, in p_values order, each holding the single
    t = 0 layer of its pre-decision sweep.  Of each branch only its layer at
    tau is kept, and only until the mixtures are formed.
    """
    specs = [RegulatorySpec(p=p, tau=tau) for p in p_values]
    n_tau = specs[0].snapped_step(params, grid)
    branches = []
    for spec in (ContractSpec(Family.LINEAR_PHYSICAL), ContractSpec(Family.LINEAR_CASH)):
        solved, P_T, _ = _terminal_layer(spec, params, grid)
        branches.append(_sweep(P_T, grid.n_steps, n_tau, params, solved)[0].copy())
    tau = n_tau * solved.dt(params.T)   # the grid time tau snaps to
    g = params.gamma * np.exp(params.r * (params.T - tau))
    P1, P0 = branches
    M = np.maximum(P1, P0)
    E1, E0 = np.exp(g * (P1 - M)), np.exp(g * (P0 - M))
    pre = []
    for spec in specs:
        mix = spec.p * E1 + (1.0 - spec.p) * E0
        if not np.isfinite(mix).all() or np.any(mix <= 0.0):
            raise BlendOverflow("regulatory mixture left the representable range")
        values = _sweep(M + np.log(mix) / g, n_tau, 0, params, solved)[:1].copy()
        pre.append(FeeSurface(grid=solved, params=params, values=values))
    return pre


def extract_control(surface: FeeSurface, params: MarketParams,
                    out: np.ndarray | None = None) -> ControlSurface:
    """Clamped optimal speed v* = clip((b*y - b*dP/dS - dP/dq)/(2l), [-C, C]).

    Central differences in the interior, second-order one-sided at the edges;
    at the inventory boundaries the speed is additionally restricted to point
    into the grid, matching the solver's boundary Hamiltonian.  The control
    is written to `out` (freshly allocated when None), which may be
    `surface.values` itself: each layer is read in full before its control
    overwrites it, and no other layer is read.  y = q - schedule*t/T.
    """
    g = surface.grid
    ds, dq = g.ds, g.dq
    q = g.q_nodes()[None, :]
    if out is None:
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
        t = (surface.n0 + k) * g.dt(params.T)
        y = q - surface.schedule * t / params.T
        v = (params.b * y - params.b * DS - Dq) / (2.0 * params.l)
        np.clip(v, -params.C, params.C, out=v)
        v[:, 0] = np.maximum(v[:, 0], 0.0)
        v[:, -1] = np.minimum(v[:, -1], 0.0)
        out[k] = v
    return ControlSurface(grid=g, params=params, values=out, n0=surface.n0)
