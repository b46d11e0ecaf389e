"""Backward finite-difference solver for the indifference-fee equation.

The fee P(t, S, q) of a contract with payoff Pi and liquidation penalty L
solves, backward from P(T) = Pi(S) + L(q),

    -dP/dt + r*P + (mu - r*S)*q - mu*dP/dS - (sigma^2/2)*d2P/dS2
        - (sigma^2*gamma/2)*e^{r(T-t)}*(q - dP/dS)^2
        + sup_{|v|<=C} { -l*v^2 + (b*q - b*dP/dS - dP/dq)*v } = 0.

solve_fee_surfaces (solve_fee_surface for one contract) is the single entry
point for all six families.  Only _terminal_layer tells TWAP apart: it hands
the kernels a schedule (N for the TWAP state reduction, 0 otherwise) and they
always use q - schedule*t/T.

Time stepping is a semi-implicit operator splitting: the linear part
(discounting, drift, diffusion in S) is implicit and reduces to one
tridiagonal solve per inventory slice; the nonlinear part (quadratic risk
term and the constrained trading Hamiltonian) is explicit at the known time
layer.  Each sweep allocates its workspace once and calls LAPACK gtsv (the
routine scipy.linalg.solve_banded runs for a tridiagonal matrix) directly,
so a time step allocates no array of the grid's size.  gtsv is scipy's own
compiled wrapper, taken from the scipy.linalg._flapack extension without
importing the scipy.linalg package: that package's __init__ pulls in
numpy.testing, numpy.f2py and unittest, whose time and memory every
command would otherwise pay before its first solve.

A sweep advances a stack of K terminal layers that share params and grid:
the kernels work on a Fortran-ordered (I+1, J+1, K) array, each member with
its own schedule, and one gtsv call per step solves the columns of every
member; a single solve is a stack of one.  Each member's arithmetic is that
of a sweep of its own, bit for bit.  A sweep stores every layer only for a
caller that simulates (every_layer); every other caller gets its lowest
layer alone, t = 0 for a fee or tau for a regulatory branch.

The Hamiltonian is discretized in upwind fashion: the buy and sell
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

import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .contracts import (ContractSpec, Family, GridSpec, MarketParams, check_real,
                        terminal_fee)
from .errors import ConfigError, NonFinite, RequiresZeroRate, SingularTridiagonal

# warn when dt * max|explicit increment| exceeds this fraction of the surface scale
_EXPLICIT_GUARD = 0.1
# time layers per array expression of extract_control
_EXTRACT_BLOCK = 32


def _flapack():
    """scipy's compiled LAPACK wrappers, loaded without importing scipy.linalg.

    The module is registered under its own name before it runs, so a later
    `import scipy.linalg` reuses it instead of initialising it a second time.
    """
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        linalg_dir = os.path.join(
            importlib.util.find_spec("scipy").submodule_search_locations[0], "linalg")
        origin = importlib.machinery.PathFinder.find_spec("_flapack", [linalg_dir]).origin
        spec = importlib.util.spec_from_file_location(name, origin)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


# LAPACK's real tridiagonal solver, the routine scipy.linalg.solve_banded and
# get_lapack_funcs(("gtsv",), ...) give for float64 arrays
_dgtsv = _flapack().dgtsv


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

    ``values[k, i, j]`` approximates the fee at time layer k, price node i,
    inventory node j of ``grid``, the grid it was solved on (see
    _terminal_layer): every surface starts at t = 0.  At schedule N (TWAP)
    it holds the reduced value U; the fee at time t is N*(t/T)*(S - A) + U,
    which at t = 0 is U itself.
    Of kind "control" it holds the trading speed of extract_control, on a
    single price row (constant in S) for a price-affine contract.
    """

    grid: GridSpec
    params: MarketParams
    values: np.ndarray
    contract: ContractSpec | None = None
    schedule: float = 0.0
    kind: str = "fee"
    # index of the first stored layer, always 0; perfbench's tracer reads it
    n0 = 0

    @property
    def n_layers(self) -> int:
        return self.values.shape[0]

    def value_at(self, t: float, S: float, q: float) -> float:
        """Trilinear interpolation; exact at grid nodes.

        t must lie among the stored layers, up to 1e-9*dt of rounding: a
        surface that holds t = 0 alone has no fee at any later time.
        """
        k = _layer_position(self, t)
        if not -1e-9 <= k <= self.n_layers - 1 + 1e-9:
            last = (self.n_layers - 1) * self.grid.dt(self.params.T)
            raise ValueError(f"t = {t!r} lies outside the stored layers "
                             f"[0.0, {last!r}]")
        return float(_interpolate(self, k, S, q))


class _Lookup:
    """Bilinear lookups on a stack of K surfaces (one grid, the same
    layers and price rows).

    The points carry a leading member axis of length K: member m's points
    are looked up on member m's surface, and a single surface is a stack of
    one.  `locate` marks in `outside` the points (S, q) more than 1e-9
    beyond the grid hull, then finds, for the points clamped to it, each
    lower corner's flat index and the weights [1 - f, f] of the price and
    inventory fractions; `blend` interpolates a layer there, `at` a layer
    position.  A stack whose surfaces hold one price row (the S-free
    controls of extract_control) is constant in S: its points keep the hull
    mask on both axes, but only their inventory fraction is found, and
    `blend` interpolates the two inventory corners.  Nothing is allocated
    after construction.
    """

    def __init__(self, stack: list, shape: tuple):
        self.stack, self.grid = stack, stack[0].grid
        layer_shape = stack[0].values.shape[1:]
        if any(member.values.shape[1:] != layer_shape for member in stack):
            raise ValueError("a lookup stack needs layers of one shape, got "
                             f"{[member.values.shape[1:] for member in stack]}")
        axes = 2 if layer_shape[0] > 1 else 1          # (S, q), or q alone
        self.pos = np.empty((axes,) + shape)           # cell coordinates
        self.weight = np.empty((2, axes) + shape)      # [1 - f, f] per axis
        self.idx = np.empty(shape, dtype=np.intp)
        self.corner = np.empty(shape)
        self.value, self.value_next = np.empty(shape), np.empty(shape)
        self.outside, self.side = (np.empty(shape, dtype=bool) for _ in range(2))
        # each corner: its shift from the lower one in the flat layer, and its
        # weights, in the order (i, j), (i+1, j), (i, j+1), (i+1, j+1)
        w, row = self.weight, self.grid.J + 1
        if axes == 2:
            self.corners = ((0, (w[0, 0], w[0, 1])), (row, (w[1, 0], w[0, 1])),
                            (1, (w[0, 0], w[1, 1])), (row + 1, (w[1, 0], w[1, 1])))
        else:
            self.corners = ((0, (w[0, 0],)), (1, (w[1, 0],)))

    def locate(self, S, q) -> None:
        """Hull mask, lower-corner flat indices and [1 - f, f] weights of (S, q)."""
        g, pos, weight = self.grid, self.pos, self.weight
        hit, side, eps = self.outside, self.side, 1e-9
        np.less(S, g.s_min - eps, out=hit)
        for x, cmp, edge in ((S, np.greater, g.s_max + eps), (q, np.less, g.q_min - eps),
                             (q, np.greater, g.q_max + eps)):
            cmp(x, edge, out=side); hit |= side
        axes = ((S, g.s_min, g.ds, g.I), (q, g.q_min, g.dq, g.J))[-len(pos):]
        for a, (x, lo, d, top) in enumerate(axes):
            p = pos[a]
            np.subtract(x, lo, out=p); p /= d
            np.clip(p, 0.0, top - 1e-12, out=p)
        # integer parts, in weight[0] for now: floor truncates pos >= 0, and
        # adding 0.0 makes -0.0 the +0.0 of int(-0.0), so the fractions are
        # those of pos - int(pos), signed zeros included
        low, frac = weight
        np.floor(pos, out=low); low += 0.0
        np.subtract(pos, low, out=frac)
        # flat index of the lower corner, exact in float64, in the spent pos
        # (on one price row, the inventory part itself: low is rewritten below)
        if len(pos) == 2:
            flat = pos[0]
            np.multiply(low[0], g.J + 1, out=flat); flat += low[1]
        else:
            flat = low[0]
        np.copyto(self.idx, flat, casting="unsafe")
        np.subtract(1.0, frac, out=low)

    def blend(self, k: int, out: np.ndarray) -> np.ndarray:
        """The located points interpolated on layer k of the stack, in out.

        Corner by corner: member m's points gather at a shifted view of
        member m's own flat layer k, read in place; the stacked terms are
        then weighted by their price, then their inventory weight (the
        inventory weight alone on one price row), and added to the sum.
        """
        flats, c = [member.values[k].ravel() for member in self.stack], self.corner
        for shift, weights in self.corners:
            term = c if shift else out
            for m, flat in enumerate(flats):
                # the shifted index is in bounds; clip mode writes straight to
                # term, whose [m, ...] stays an array for points of shape (K,)
                np.take(flat[shift:], self.idx[m, ...], out=term[m, ...], mode="clip")
            for w in weights:
                term *= w
            if shift:
                out += c
        return out

    def at(self, k: float, S, q) -> np.ndarray:
        """Layer position k (clamped, linear between layers) of each member
        at its points (S, q), in a buffer of the points' shape."""
        n_layers = self.stack[0].n_layers
        # builtins, not np.clip: this runs on a scalar once per Euler step
        k = min(max(k, 0.0), n_layers - 1.0)
        k0 = int(k); k1 = min(k0 + 1, n_layers - 1)
        wk = k - k0
        self.locate(S, q)
        v = self.blend(k0, self.value)
        if wk > 0.0:
            v_next = self.blend(k1, self.value_next)
            v *= 1.0 - wk; v_next *= wk; v += v_next
        return v


def _layer_position(surface: FeeSurface, t: float) -> float:
    """Fractional index of time t among the surface's layers."""
    return t / surface.grid.dt(surface.params.T)


def _interpolate(surface: FeeSurface, k: float, S, q):
    """Bilinear in (S, q), linear between layers at fractional layer position k.

    `surface` is one FeeSurface, fee or control, looked up as a stack of
    one.  Coordinates outside the grid hull are clamped to it; an integer k
    reads layer k alone, and a surface of one price row is constant in S.
    The result is the caller's own; a loop of lookups builds one _Lookup
    instead.
    """
    shape = (1,) + np.broadcast_shapes(np.shape(S), np.shape(q))
    return _Lookup([surface], shape).at(k, S, q)[0]


def build_banded(params: MarketParams, grid: GridSpec) -> np.ndarray:
    """Banded (3, I+1) storage of the implicit matrix, solve_banded's layout.

    _sweep hands the three diagonals to LAPACK gtsv itself: ab[0, 1:] above,
    ab[1] on and ab[2, :-1] below the main diagonal.

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
    """Buffers and per-sweep constants of the backward step on a K-member stack.

    The buffers are Fortran-ordered (I+1, J+1, K) arrays, member k being the
    contiguous block [..., k]; gtsv solves the right-hand side built in L2 in
    place, through its (I+1, (J+1)*K) view, and _sweep then swaps L2 and P.
    q holds the inventory nodes on every price row, so that each step's
    q_eff = q - schedule*t/T (one shift per member) is one contiguous pass.
    """

    def __init__(self, grid: GridSpec, members: int = 1):
        shape = (grid.I + 1, grid.J + 1, members)
        self.q = np.empty(shape[:2] + (1,), order="F")
        self.q[...] = grid.q_nodes()[None, :, None]
        self.shift = np.empty(members)
        (self.DS, self.Df, self.Db, self.vf, self.vb, self.L2,
         self.P) = (np.empty(shape, order="F") for _ in range(7))


def explicit_nonlinear(P_next: np.ndarray, n: int, params: MarketParams,
                       grid: GridSpec, schedule: float | np.ndarray = 0.0,
                       work: _Workspace | None = None) -> np.ndarray:
    """Explicit nonlinear increment evaluated on the known layer n+1.

    Risk term -(sigma^2*gamma/2)*e^{r(T-t)}*(q - dP/dS)^2 plus the constrained
    Hamiltonian sup_{|v|<=C} {-l*v^2 + (b*q - b*dP/dS - dP/dq)*v}, evaluated
    at the clamped optimizer so the scheme stays correct when the speed bound
    binds.  q enters both terms as q - schedule*t/T (see _terminal_layer).

    P_next is one (I+1, J+1) layer, or a Fortran-ordered (I+1, J+1, K) stack
    whose members have the K schedules in `schedule`; the result has its
    shape.  dP/dS is central inside and one-sided at the price edges; the
    one-sided dP/dq pair is second order where two neighbors exist.
    Everything is written into `work`, the result into work.L2; with
    work=None a fresh workspace is built, so the returned array is the
    caller's own.
    """
    if P_next.ndim == 2:
        return explicit_nonlinear(P_next[..., None], n, params, grid, schedule,
                                  work)[..., 0]
    w = _Workspace(grid, P_next.shape[2]) if work is None else work
    P, DS, Df, Db, vf, vb, L2 = P_next, w.DS, w.Df, w.Db, w.vf, w.vb, w.L2
    dt = grid.dt(params.T)
    t_next = (n + 1) * dt
    ds, dq, l, C = grid.ds, grid.dq, params.l, params.C
    np.multiply(schedule, t_next, out=w.shift); w.shift /= params.T
    # The stencils run on the flattened stack, where price row i of inventory
    # column j of member k sits at i + R*(j + (J+1)*k): one contiguous
    # difference serves every column of every member, and the entries it
    # computes across a column's (or a member's) edge are rewritten one-sided
    # right after.
    R = P.shape[0]
    Pf, DSf, Dff, Dbf, vff = (a.ravel("F") for a in (P, DS, Df, Db, vf))
    DS_in = DSf[1:-1]
    np.subtract(Pf[2:], Pf[:-2], out=DS_in); DS_in /= 2.0 * ds
    np.subtract(Pf[1::R], Pf[::R], out=DSf[::R]); DSf[::R] /= ds
    np.subtract(Pf[R - 1::R], Pf[R - 2::R], out=DSf[R - 1::R]); DSf[R - 1::R] /= ds
    # forward and backward inventory differences share 4*P[:, 1:-1] (in vf);
    # the slices hold inventory columns 0..J-2, 1..J-1 and 2..J
    P_lo, P_mid, P_hi = Pf[:-2 * R], Pf[R:-R], Pf[2 * R:]
    vf_lo, Df_lo, Db_hi = vff[:-2 * R], Dff[:-2 * R], Dbf[2 * R:]
    np.multiply(P_mid, 4.0, out=vf_lo)
    np.multiply(P_lo, -3.0, out=Df_lo)
    Df_lo += vf_lo; Df_lo -= P_hi; Df_lo /= 2.0 * dq
    np.subtract(P[:, -1], P[:, -2], out=Df[:, -2]); Df[:, -2] /= dq
    Df[:, -1] = Df[:, -2]
    np.multiply(P_hi, 3.0, out=Db_hi)
    Db_hi -= vf_lo; Db_hi += P_lo; Db_hi /= 2.0 * dq
    np.subtract(P[:, 1], P[:, 0], out=Db[:, 1]); Db[:, 1] /= dq
    Db[:, 0] = Db[:, 1]
    # q_eff into vb; the risk term into L2, then b*q_eff - b*dP/dS into DS
    np.subtract(w.q, w.shift, out=vb)
    np.subtract(vb, DS, out=L2); np.square(L2, out=L2)
    L2 *= (-0.5 * np.float64(params.sigma)**2 * params.gamma
           * np.exp(params.r * (params.T - t_next)))
    vb *= params.b; DS *= params.b; np.subtract(vb, DS, out=DS)
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
    return _sweep([P_next], n + 1, n, params, grid, [schedule], ab)[0][0]


def _sweep(P_terminals, n_hi: int, n_lo: int, params: MarketParams,
           grid: GridSpec, schedules=None, ab: np.ndarray | None = None,
           every_layer: bool = False) -> list[np.ndarray]:
    """Backward sweep of a stack of terminal layers from layer n_hi down to n_lo.

    Member k starts from the (I+1, J+1) layer P_terminals[k] and has the
    schedule schedules[k] (0 for every member when None); all members share
    params and grid, so one gtsv call per step solves every member's columns.
    Returns one C-ordered array per member: its layers n_lo..n_hi when
    every_layer, else its layer n_lo alone, of shape (1, I+1, J+1).  The
    non-finite and explicit-increment checks look at each member on its own
    scale.
    """
    members = len(P_terminals)
    schedules = (np.zeros(members) if schedules is None
                 else np.array(schedules, dtype=float))
    if ab is None:
        ab = build_banded(params, grid)
    dt = grid.dt(params.T)
    if params.C * dt > 0.6 * grid.dq * (1.0 + 1e-12):
        warnings.warn(
            f"C*dt = {params.C * dt:.4g} exceeds 0.6*dq = {0.6 * grid.dq:.4g}: "
            "the upwind Hamiltonian step can lose stability; keep "
            "C*dt <= dq/2 (increase n_steps or coarsen the inventory grid)",
            RuntimeWarning)
    w = _Workspace(grid, members)
    shape = w.P.shape
    src = (params.mu - params.r * grid.s_nodes())[:, None] * grid.q_nodes()[None, :]
    dt_src = np.empty(shape, order="F")
    dt_src[...] = (dt * src)[..., None]
    # the members whose source moves in t; their dt_src is rebuilt per step
    moving = [k for k in range(members) if params.mu * schedules[k] != 0.0]
    du, d, dl = ab[0, 1:], ab[1, :], ab[2, :-1]
    P = w.P
    for k, P_T in enumerate(P_terminals):
        P[..., k] = P_T
    if every_layer:
        try:
            layers = [np.empty((n_hi - n_lo + 1, grid.I + 1, grid.J + 1))
                      for _ in range(members)]
        except ValueError as exc:   # a size numpy cannot index: no memory can hold it
            raise MemoryError(f"every layer of the sweep: {exc}") from exc
        for out, P_T in zip(layers, P_terminals):
            out[-1] = P_T
    # max |a| of each member, |a| going through vb (free between steps)
    abs_a, abs_by_member = w.vb, w.vb.reshape(-1, members, order="F")

    def absmax(a, out):
        np.abs(a, out=abs_a)
        return np.maximum.reduce(abs_by_member, axis=0, out=out)

    # each member's scale max(1, max|P|); max|P| is not finite exactly when P is not
    scale = np.empty(members)
    np.maximum(absmax(P, scale), 1.0, out=scale)
    # per step and member: max|dt*L2| over the member's scale before the step
    ratios = np.zeros((n_hi - n_lo, members))
    for n in range(n_hi - 1, n_lo - 1, -1):
        rhs = explicit_nonlinear(P, n, params, grid, schedules, w)
        rhs *= dt   # max|dt*L2| is dt*max|L2| exactly: rounding is monotone
        ratio = ratios[n - n_lo]
        np.divide(absmax(rhs, ratio), scale, out=ratio)
        for k in moving:
            np.subtract(src, params.mu * schedules[k] * (n * dt) / params.T,
                        out=dt_src[..., k])
            dt_src[..., k] *= dt
        # -P + dt*L2 + dt*src: x - y is x + (-y), and a sum of two commutes
        rhs -= P; rhs += dt_src
        w.L2 = P   # the next increment overwrites the layer just used
        x, info = _dgtsv(dl, d, du, rhs.reshape(shape[0], -1, order="F"),
                         overwrite_b=True)[3:]
        if info > 0:
            raise SingularTridiagonal("singular matrix")
        P = x.reshape(shape, order="F")
        if not math.isfinite(absmax(P, scale).max()):
            raise NonFinite(f"surface became non-finite at time step {n}")
        np.maximum(scale, 1.0, out=scale)
        if every_layer:
            for k, out in enumerate(layers):
                out[n - n_lo] = P[..., k]
    worst = ratios.max(initial=0.0)
    if worst > _EXPLICIT_GUARD:
        warnings.warn(
            f"explicit increment reached {worst:.2f} of the surface scale; "
            "the time step is too coarse for these parameters", RuntimeWarning)
    if every_layer:
        return layers
    return [np.ascontiguousarray(P[..., k])[None] for k in range(members)]


def _price_affine(spec: ContractSpec | None, params: MarketParams) -> bool:
    """Whether the fee of spec at params is affine in S.

    At r = 0 every non-collar fee is a(t, q) + N*S, or the TWAP reduction's
    price-free U; its control, which reads dP/dS, is then constant in S.
    """
    return spec is not None and not spec.family.is_collar and params.r == 0.0


def _terminal_layer(spec: ContractSpec, params: MarketParams,
                    grid: GridSpec) -> tuple[GridSpec, np.ndarray, float]:
    """The grid a solve of spec runs on, its terminal layer P(T) =
    terminal_fee and its schedule; the one place a sweep member is set up.

    The scheme and bilinear lookup are exact on an affine field, so the
    price-affine solves (see _price_affine) take a 3-node price axis on the
    same hull.

    TWAP families are solved through a state reduction (r = 0 only): the
    reduced value U(t, S, q) satisfies the fee equation with q replaced by
    q - N*t/T in the risk, impact and source terms, and U(T, q) = L(q), the
    fee at A = S; the fee at t = 0 is U(0, S, q).  Their schedule is N.
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
    if _price_affine(spec, params):
        grid = replace(grid, I=2)
    S, q = grid.s_nodes()[:, None], grid.q_nodes()[None, :]
    P_T = terminal_fee(spec, q, S, params) + np.zeros((grid.I + 1, grid.J + 1))
    return grid, P_T, params.N if twap else 0.0


def solve_fee_surfaces(specs, params: MarketParams, grid: GridSpec,
                       every_layer: bool = False) -> list[FeeSurface]:
    """Fee surfaces of several contracts at one params, in specs order.

    Every contract is set up (_terminal_layer) before the first sweep, so
    each set-up check fails before any solve.  The contracts that run on the
    same grid are then solved as one stacked sweep, the grids in the order
    their first contract comes.  A surface holds every layer when
    every_layer, for a caller that simulates, and its t = 0 layer alone
    otherwise.
    """
    members = [_terminal_layer(spec, params, grid) for spec in specs]
    surfaces = [None] * len(specs)
    for solved in dict.fromkeys(g for g, _, _ in members):
        stack = [k for k, (g, _, _) in enumerate(members) if g == solved]
        values = _sweep([members[k][1] for k in stack], solved.n_steps, 0, params,
                        solved, [members[k][2] for k in stack], every_layer=every_layer)
        for k, v in zip(stack, values):
            surfaces[k] = FeeSurface(grid=solved, params=params, values=v,
                                     contract=specs[k], schedule=members[k][2])
    return surfaces


def solve_fee_surface(spec: ContractSpec, params: MarketParams,
                      grid: GridSpec) -> FeeSurface:
    """Full backward solve of the fee equation for any contract family."""
    return solve_fee_surfaces([spec], params, grid, every_layer=True)[0]


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
    once per approval probability in p_values.  The mixture is one
    log-sum-exp of g*P1 + log p and g*P0 + log(1-p): a zero weight is a log
    of -inf that drops its branch, so p = 1 and p = 0 give P1 and P0 up to
    the rounding of g*P/g.  A mixture that is not finite comes only from g*P overflowing,
    and the pre-decision sweep reports it as NonFinite.

    The two branches are one stacked sweep from T down to tau, and the
    mixtures of every p another from tau down to 0.  Returns one FeeSurface
    per p, in p_values order, each holding the single t = 0 layer of its
    pre-decision sweep; of each branch only its layer at tau is kept.
    """
    specs = [RegulatorySpec(p=p, tau=tau) for p in p_values]
    n_tau = specs[0].snapped_step(params, grid)
    (solved, P1_T, _), (_, P0_T, _) = (
        _terminal_layer(ContractSpec(family), params, grid)
        for family in (Family.LINEAR_PHYSICAL, Family.LINEAR_CASH))
    P1, P0 = (layer[0] for layer in _sweep([P1_T, P0_T], grid.n_steps, n_tau,
                                            params, solved))
    tau = n_tau * solved.dt(params.T)   # the grid time tau snaps to
    g = params.gamma * np.exp(params.r * (params.T - tau))
    with np.errstate(divide="ignore"):
        mixtures = [np.logaddexp(g * P1 + np.log(spec.p), g * P0 + np.log1p(-spec.p)) / g
                    for spec in specs]
    return [FeeSurface(grid=solved, params=params, values=values)
            for values in _sweep(mixtures, n_tau, 0, params, solved)]


def extract_control(surface: FeeSurface, params: MarketParams,
                    out: np.ndarray | None = None) -> FeeSurface:
    """Clamped optimal speed v* = clip((b*y - b*dP/dS - dP/dq)/(2l), [-C, C]).

    Central differences in the interior, second-order one-sided at the edges;
    at the inventory boundaries the speed is additionally restricted to point
    into the grid, matching the solver's boundary Hamiltonian.  y = q -
    schedule*t/T.  The layers are taken _EXTRACT_BLOCK at a time, one array
    expression per block, with the formulas of a layer on its own.

    The control is written to `out`, an array of the surface's shape, or to
    a fresh one when None.  `out` may be `surface.values` itself: each block
    of layers is read in full before its control overwrites it, and no other
    layer is read.  A price-affine contract (see _price_affine) solved on its
    3-node price axis has a control constant in S, and keeps row 1 of it, the
    middle node's: a view of shape (n_layers, 1, J+1).
    """
    g = surface.grid
    ds, dq, b = g.ds, g.dq, params.b
    q = g.q_nodes()[None, None, :]
    if out is None:
        out = np.empty_like(surface.values)
    elif out.shape != surface.values.shape:
        raise ValueError(f"out: shape {out.shape} is not the surface's "
                         f"{surface.values.shape}")
    size = min(_EXTRACT_BLOCK, surface.n_layers)
    DS_block, Dq_block = (np.empty((size,) + out.shape[1:]) for _ in range(2))
    for k in range(0, surface.n_layers, size):
        P = surface.values[k:k + size]
        v = out[k:k + size]
        DS, Dq = DS_block[:len(P)], Dq_block[:len(P)]
        np.subtract(P[:, 2:, :], P[:, :-2, :], out=DS[:, 1:-1, :])
        DS[:, 1:-1, :] /= 2.0 * ds
        DS[:, 0, :] = (-3.0 * P[:, 0, :] + 4.0 * P[:, 1, :] - P[:, 2, :]) / (2.0 * ds)
        DS[:, -1, :] = (3.0 * P[:, -1, :] - 4.0 * P[:, -2, :] + P[:, -3, :]) / (2.0 * ds)
        np.subtract(P[:, :, 2:], P[:, :, :-2], out=Dq[:, :, 1:-1])
        Dq[:, :, 1:-1] /= 2.0 * dq
        Dq[:, :, 0] = (-3.0 * P[:, :, 0] + 4.0 * P[:, :, 1] - P[:, :, 2]) / (2.0 * dq)
        Dq[:, :, -1] = (3.0 * P[:, :, -1] - 4.0 * P[:, :, -2] + P[:, :, -3]) / (2.0 * dq)
        t = np.arange(k, k + len(P)) * g.dt(params.T)
        y = q - (surface.schedule * t / params.T)[:, None, None]
        # P is spent: v may be P itself from here on
        DS *= b
        np.subtract(b * y, DS, out=v); v -= Dq; v /= 2.0 * params.l
        np.clip(v, -params.C, params.C, out=v)
        np.maximum(v[:, :, 0], 0.0, out=v[:, :, 0])
        np.minimum(v[:, :, -1], 0.0, out=v[:, :, -1])
    if g.I == 2 and _price_affine(surface.contract, params):
        out = out[:, 1:2]
    return replace(surface, values=out, kind="control")
