"""Euler simulation of price/inventory/wealth paths under a control surface.

Paths share Brownian increments across contract families (common random
numbers) so trajectory comparisons isolate the contract effect.  Increments
are drawn per path from a counter-based generator keyed by (seed, path index),
so any subset of paths is reproducible independently.

One Euler kernel steps a stack of contracts whose controls share a grid and
a shape: the expected-payoff metric steps each such group as one stack,
reading each step's noise once, one noise block at a time, and a trajectory
run is a stack of one.  A control of one price row (a price-affine
contract's, see hjb.extract_control) reads no price: it is looked up in
inventory alone, and its inventory, the same on every path, is stepped
once.  Every path starts at price s0, inventory q0 and cash
x0 - q0*s0 + fee: sim.x0 is the broker's wealth before the contract, and
the fee, set by indifference, is held as cash from t = 0.  Each member's
states are bit for bit those of a stack of its own.  Both count the hull
clamps the lookup marks at every step: the budget holds per member in the
metric and per path in a trajectory run, and its OutOfGrid names the
member's contract.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contracts import (ContractSpec, MarketParams, check_count, check_real,
                        terminal_fee)
from .errors import ConfigError, NonFinite, OutOfGrid
from .hjb import FeeSurface, _Lookup, _empty

# abort when more than this fraction of lookups had to be clamped to the hull
_CLAMP_BUDGET = 0.01
# paths per noise block of expected_payoff_metric; fixes its summation order
_CHUNK = 8192
# past 2**63 numpy builds the Philox key in float64: 2**63 + 1 rounds to 2**63
_MAX_SEED = 2**63


@dataclass(frozen=True)
class SimConfig:
    """Monte-Carlo settings; defaults follow the baseline experiments."""

    n_paths: int = 100_000
    n_steps: int = 1000
    seed: int = 20240901
    x0: float = 22.5           # the broker's wealth before the contract
    q0: float = 0.5
    s0: float = 45.0
    zero_noise: bool = False   # trajectory runs: suppress the Brownian term

    def __post_init__(self):
        for name in ("n_paths", "n_steps"):
            check_count(f"sim.{name}", getattr(self, name), 1)
        check_count("sim.seed", self.seed, 0, _MAX_SEED)
        for name in ("x0", "q0", "s0"):
            check_real(f"sim.{name}", getattr(self, name))
        if not isinstance(self.zero_noise, bool):
            raise ConfigError("sim.zero_noise: must be true or false, "
                              f"got {self.zero_noise!r}")


@dataclass
class SimPath:
    """Realized trajectories, one column per path; v[k] acts on [times[k], times[k+1]).

    S, Q, X and A have shape (n_steps + 1, n_paths), v has (n_steps, n_paths).
    """

    times: np.ndarray
    S: np.ndarray
    Q: np.ndarray
    X: np.ndarray
    v: np.ndarray
    A: np.ndarray


@dataclass
class PayoffEstimate:
    """E[Y] - x0 and the certainty equivalent CE, each with its standard error."""

    estimate: float
    stderr: float | None
    ce: float
    ce_stderr: float | None
    arbitrage: bool


def common_noise_batch(cfg: SimConfig, params: MarketParams,
                       start: int = 0, count: int | None = None) -> np.ndarray:
    """Brownian increments for paths [start, start+count), shape (count, n_steps).

    Row p is the stream of the counter-based generator keyed (seed, start+p);
    increments have variance dt = T / n_steps.  One generator serves every
    row: its state is reset to the row's key, counter 0 and an empty buffer,
    which is what a generator built fresh from that key starts from.
    """
    if count is None:
        count = cfg.n_paths - start
    dt = params.T / cfg.n_steps
    out = _empty("the noise block", (count, cfg.n_steps))
    bitgen = np.random.Philox(key=[cfg.seed, start])
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    for p in range(count):
        state["state"]["key"][1] = start + p
        bitgen.state = state
        gen.standard_normal(cfg.n_steps, out=out[p])
    out *= np.sqrt(dt)
    return out


def _euler_batch(controls: list[FeeSurface], params: MarketParams, cfg: SimConfig,
                 fees, increments: np.ndarray, record: bool = False):
    """Shared Euler kernel; returns (terminal states, trajectories if record).

    `controls` is a stack of K controls on one grid with the same layers
    and price rows, all stepped on the same increments; member m starts
    every path at (cfg.s0, cfg.q0) with cash cfg.x0 - cfg.q0*cfg.s0 + fees[m].
    States have shape (K, n), trajectories (n_steps + 1, K, n); a stack of
    one-row controls reads no price, so its paths trade alike: it steps Q
    and v once per member, (K, 1), and broadcasts them into the returned Q
    and the trajectories.  Every per-step array is allocated before the
    first step, and each member's arithmetic is that of a stack of its own,
    bit for bit.  One (K, n) count of the states the lookup clamped to the
    hull serves the clamp budget per member, and per path too in record mode.
    """
    g = controls[0].grid
    n, n_steps = increments.shape
    shape = (len(controls), n)
    qshape = (len(controls), 1 if controls[0].values.shape[1] == 1 else n)
    dt = params.T / n_steps
    S, X, Q = np.full(shape, cfg.s0), np.empty(shape), np.full(qshape, cfg.q0)
    X[:] = np.add(cfg.x0 - cfg.q0 * cfg.s0, fees)[:, None]
    A_int = np.zeros(shape)
    tmp, tmp2, noise = np.empty(shape), np.empty(shape), np.empty(n)
    # products of v alone, in v's shape: a view of tmp2, as tmp is the
    # output v*l + S is added into, which would overlap it
    tmp_v = tmp2[:, :qshape[1]]
    lookup = _Lookup(controls, qshape, shape)
    clamped = np.zeros(shape, dtype=np.int64)
    if record:
        traj = {k: np.empty((n_steps + 1,) + shape) for k in ("S", "Q", "X", "A")}
        traj["v"] = np.empty((n_steps,) + shape)
        for key, x0 in (("S", S), ("Q", Q), ("X", X), ("A", S)):
            traj[key][0] = x0
    for k in range(n_steps):
        # layer of t = k*dt without rounding through dt: a step at a grid
        # time reads that layer alone
        v = lookup.at(k * g.n_steps / n_steps, S, Q)
        if lookup.outside.any():   # most steps clamp nothing; any() is the cheap test
            clamped += lookup.outside
        np.clip(v, -params.C, params.C, out=v)
        # X += (r*X - v*(S + l*v))*dt
        np.multiply(v, params.l, out=tmp_v); np.add(tmp_v, S, out=tmp); tmp *= v
        np.multiply(X, params.r, out=tmp2); tmp2 -= tmp; tmp2 *= dt; X += tmp2
        np.multiply(S, dt, out=tmp); A_int += tmp
        # S += (mu + b*v)*dt + sigma*dW, the noise column read once
        np.multiply(increments[:, k], params.sigma, out=noise)
        np.multiply(v, params.b, out=tmp_v); tmp_v += params.mu; tmp_v *= dt
        S += tmp_v; S += noise
        np.multiply(v, dt, out=tmp_v); Q += tmp_v
        if record:
            traj["v"][k] = v
            traj["S"][k + 1] = S; traj["Q"][k + 1] = Q; traj["X"][k + 1] = X
            np.divide(A_int, (k + 1) * dt, out=traj["A"][k + 1])
    fracs = (clamped / float(n_steps) if record
             else clamped.sum(axis=1, keepdims=True) / float(n * n_steps))
    for control, member in zip(controls, fracs):
        over = member[member > _CLAMP_BUDGET]
        if over.size:
            name = f" ({control.contract.family.value})" if control.contract else ""
            raise OutOfGrid(f"{100 * over[0]:.2f}% of simulated steps left the grid "
                            f"hull{name}")
    return ((S, np.broadcast_to(Q, shape), X, A_int / params.T),
            traj if record else None)


def simulate_path(control: FeeSurface, params: MarketParams, cfg: SimConfig,
                  increments: np.ndarray, *, fee: float = 0.0) -> SimPath:
    """Euler paths under the interpolated control, one per row of `increments`.

    `increments` is (n_paths, n_steps); the SimPath holds one column per
    path, each with its own hull-clamp budget, so a column equals the path
    that its row alone gives.  The paths are a stack of one control and
    start as expected_payoff_metric's do, with cash x0 - q0*s0 + fee: x0 is
    the broker's wealth before the contract, `fee` the contract's at t = 0.
    """
    n_steps = increments.shape[1]
    _, traj = _euler_batch([control], params, cfg, [fee], increments, record=True)
    times = np.arange(n_steps + 1) * (params.T / n_steps)
    return SimPath(times=times, **{key: a[:, 0] for key, a in traj.items()})


def realized_payoff(terminal, spec: ContractSpec, params: MarketParams):
    """Terminal wealth Y(T) from the (S, Q, X, A) terminal states: cash plus
    inventory at S, less the settlement the fee equation prices."""
    S, Q, X, A = terminal
    return X + Q * S - terminal_fee(spec, Q, S, params, A)


def expected_payoff_metric(params: MarketParams, cfg: SimConfig,
                           contracts) -> list[PayoffEstimate]:
    """Monte-Carlo estimate of E[Y(T) | X(0) = x0 - q0*s0 + fee] - x0, per contract.

    `contracts` is a sequence of (spec, control, fee), the control and fee
    coming from the contract's fee surface; one estimate is returned per
    contract, in order.  Each noise chunk is drawn once and every contract is
    stepped on it (common random numbers): the contracts whose controls share
    grid, layers and price rows as one stack, in the order of their first
    contract.  A chunk's block is released before the next is drawn, so one
    block is held at a time.  Paths start as simulate_path's do, x0 being
    the broker's wealth before the contract and the fee held as cash from
    t=0.  Each contract keeps its own accumulators and hull-clamp budget per
    chunk, so each estimate equals the one a single-contract call gives.  A
    positive estimate beyond two standard errors flags a statistical
    arbitrage.  The same paths give the certainty equivalent
    CE = -log(mean w)/gamma with w = exp(-gamma*(Y - x0)), which the
    indifference fee sets to 0, and se(CE) = sd(w)/(sqrt(n)*gamma*mean w).
    Paths are accumulated chunk by chunk in a fixed order, so the estimates
    do not depend on scheduling.
    """
    contracts = list(contracts)
    g = params.gamma
    n = cfg.n_paths
    stacks = {}
    for i, (_, control, _) in enumerate(contracts):
        key = (control.grid, control.values.shape)
        stacks.setdefault(key, []).append(i)
    # per contract: sum Y, sum Y^2, sum w, sum w^2
    totals = [[0.0, 0.0, 0.0, 0.0] for _ in contracts]
    done = 0
    while done < n:
        m = min(_CHUNK, n - done)
        dW = common_noise_batch(cfg, params, start=done, count=m)
        for stack in stacks.values():
            members = [contracts[i] for i in stack]
            terminal = _euler_batch([control for _, control, _ in members], params,
                                    cfg, [fee for _, _, fee in members], dW)[0]
            for member, ((spec, _, _), i) in enumerate(zip(members, stack)):
                Y = realized_payoff([x[member] for x in terminal], spec, params)
                w = np.exp(-g * (Y - cfg.x0))
                acc = totals[i]
                acc[0] += float(Y.sum())
                acc[1] += float((Y * Y).sum())
                acc[2] += float(w.sum())
                acc[3] += float((w * w).sum())
            del terminal, Y, w   # the next stack steps without this one's states
        del dW   # the next chunk is drawn without this one's block
        done += m
    for (spec, _, _), acc in zip(contracts, totals):
        if not np.isfinite(acc).all():
            raise NonFinite(f"{spec.family.value}: the Monte-Carlo path sums are "
                            "not finite")
    return [_estimate(acc, n, cfg.x0, g) for acc in totals]


def _estimate(totals, n: int, x0: float, g: float) -> PayoffEstimate:
    """PayoffEstimate from one contract's path sums (Y, Y^2, w, w^2)."""
    total, total_sq, total_w, total_w2 = totals
    mean = total / n
    mean_w = total_w / n
    est = mean - x0
    ce = float(-np.log(mean_w) / g)
    if n > 1:
        var = max(0.0, (total_sq - n * mean**2) / (n - 1))
        stderr = float(np.sqrt(var / n))
        sd_w = np.sqrt(max(0.0, (total_w2 - n * mean_w**2) / (n - 1)))
        ce_stderr = float(sd_w / (np.sqrt(n) * g * mean_w))
        arb = est > 2.0 * stderr
    else:
        stderr = ce_stderr = None
        arb = False
    return PayoffEstimate(estimate=est, stderr=stderr, ce=ce, ce_stderr=ce_stderr,
                          arbitrage=arb)
