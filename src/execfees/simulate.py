"""Euler simulation of price/inventory/wealth paths under a control surface.

Paths share Brownian increments across contract families (common random
numbers) so trajectory comparisons isolate the contract effect.  Increments
are drawn per path from a counter-based generator keyed by (seed, path index),
so any subset of paths is reproducible independently.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contracts import (ContractSpec, GridSpec, MarketParams, check_count,
                        collar_per_share, liquidation_cost)
from .errors import OutOfGrid
from .hjb import ControlSurface, _bilinear, _interpolate

# abort when more than this fraction of lookups had to be clamped to the hull
_CLAMP_BUDGET = 0.01
# paths per noise block of expected_payoff_metric; fixes its summation order
_CHUNK = 8192


@dataclass(frozen=True)
class SimConfig:
    """Monte-Carlo settings; defaults follow the baseline experiments."""

    n_paths: int = 100_000
    n_steps: int = 1000
    seed: int = 20240901
    x0: float = 22.5
    q0: float = 0.5
    s0: float = 45.0
    zero_noise: bool = False   # trajectory runs: suppress the Brownian term

    def __post_init__(self):
        for name in ("n_paths", "n_steps"):
            check_count(f"sim.{name}", getattr(self, name), 1)


@dataclass
class SimPath:
    """One realized trajectory; v[k] acts on [times[k], times[k+1])."""

    times: np.ndarray
    S: np.ndarray
    Q: np.ndarray
    X: np.ndarray
    v: np.ndarray
    A: np.ndarray | None


@dataclass
class PayoffEstimate:
    estimate: float
    stderr: float | None
    fee: float
    n_paths: int
    seed: int
    arbitrage: bool


def common_noise_batch(cfg: SimConfig, params: MarketParams,
                       start: int = 0, count: int | None = None) -> np.ndarray:
    """Brownian increments for paths [start, start+count), shape (count, n_steps).

    Row p is the stream of the counter-based generator keyed (seed, start+p);
    increments have variance dt = T / n_steps.
    """
    if count is None:
        count = cfg.n_paths - start
    dt = params.T / cfg.n_steps
    out = np.empty((count, cfg.n_steps))
    root = np.sqrt(dt)
    for p in range(count):
        gen = np.random.Generator(np.random.Philox(key=[cfg.seed, start + p]))
        out[p] = gen.standard_normal(cfg.n_steps) * root
    return out


def interpolate_control(control: ControlSurface, t: float, q, S):
    """Speed at (t, q, S): bilinear in (S, q), linear in t, clamped to [-C, C].

    Coordinates outside the grid hull are clamped to it.
    """
    return np.clip(_interpolate(control, t, S, q),
                   -control.params.C, control.params.C)


def _hull_clamps(g: GridSpec, S, q) -> int:
    eps = 1e-9
    return int(np.count_nonzero((S < g.s_min - eps) | (S > g.s_max + eps)
                                | (q < g.q_min - eps) | (q > g.q_max + eps)))


def _euler_batch(control: ControlSurface, params: MarketParams, cfg: SimConfig,
                 increments: np.ndarray, record: bool = False):
    """Shared Euler kernel; returns (terminal states, trajectories if record)."""
    g = control.grid
    n = increments.shape[0]
    n_steps = increments.shape[1]
    dt = params.T / n_steps
    layers = control.values.shape[0]
    aligned = (n_steps == layers - 1 and control.n0 == 0)
    S = np.full(n, cfg.s0); Q = np.full(n, cfg.q0); X = np.full(n, cfg.x0)
    A_int = np.zeros(n)
    clamped = 0
    if record:
        traj = {k: np.empty((n_steps + 1, n)) for k in ("S", "Q", "X", "A")}
        traj["v"] = np.empty((n_steps, n))
        for key, x0 in (("S", S), ("Q", Q), ("X", X)):
            traj[key][0] = x0
        traj["A"][0] = S
    for k in range(n_steps):
        clamped += _hull_clamps(g, S, Q)
        if aligned:
            v = np.clip(_bilinear(control.values[k], g, S, Q),
                        -params.C, params.C)
        else:
            v = interpolate_control(control, k * dt, Q, S)
        X = X + (params.r * X - v * (S + params.l * v)) * dt
        A_int = A_int + S * dt
        S = S + (params.mu + params.b * v) * dt + params.sigma * increments[:, k]
        Q = Q + v * dt
        if record:
            traj["v"][k] = v
            traj["S"][k + 1] = S; traj["Q"][k + 1] = Q; traj["X"][k + 1] = X
            traj["A"][k + 1] = A_int / ((k + 1) * dt)
    frac = clamped / float(n * n_steps)
    if frac > _CLAMP_BUDGET:
        raise OutOfGrid(f"{100 * frac:.2f}% of simulated steps left the grid hull")
    return (S, Q, X, A_int / params.T), (traj if record else None)


def simulate_path(control: ControlSurface, params: MarketParams, cfg: SimConfig,
                  increments: np.ndarray) -> SimPath:
    """Single Euler path under the interpolated control."""
    increments = np.atleast_2d(increments)
    n_steps = increments.shape[1]
    _, traj = _euler_batch(control, params, cfg, increments, record=True)
    times = np.arange(n_steps + 1) * (params.T / n_steps)
    return SimPath(times=times,
                   S=traj["S"][:, 0], Q=traj["Q"][:, 0], X=traj["X"][:, 0],
                   v=traj["v"][:, 0], A=traj["A"][:, 0])


def realized_payoff(terminal, spec: ContractSpec, params: MarketParams):
    """Terminal contract payoff Y(T) from the (S, Q, X, A) terminal states."""
    S, Q, X, A = terminal
    L = liquidation_cost(Q, spec.liquidation_target, params.alpha)
    fam = spec.family
    if fam.is_twap:
        return X + Q * S + params.N * (A - S) - L
    if fam.is_collar:
        return X - params.N * collar_per_share(S, spec.K1, spec.K2) + Q * S - L
    return X - (params.N - Q) * S - L


def expected_payoff_metric(spec: ContractSpec, params: MarketParams,
                           cfg: SimConfig, control: ControlSurface,
                           fee: float) -> PayoffEstimate:
    """Monte-Carlo estimate of E[Y(T) | X(0) = x0 - q0*s0 + fee] - x0.

    `control` and `fee` come from the contract's fee surface.  The initial
    wealth convention makes the broker's cash at t=0 equal to the
    indifference fee; a positive estimate beyond two standard errors flags a
    statistical arbitrage.  Paths are accumulated chunk by chunk in a fixed
    order, so the estimate does not depend on scheduling.
    """
    start_cfg = SimConfig(n_paths=cfg.n_paths, n_steps=cfg.n_steps, seed=cfg.seed,
                          x0=cfg.x0 - cfg.q0 * cfg.s0 + fee, q0=cfg.q0, s0=cfg.s0)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < cfg.n_paths:
        m = min(_CHUNK, cfg.n_paths - done)
        dW = common_noise_batch(cfg, params, start=done, count=m)
        terminal, _ = _euler_batch(control, params, start_cfg, dW)
        Y = realized_payoff(terminal, spec, params)
        total += float(Y.sum())
        total_sq += float((Y * Y).sum())
        done += m
    mean = total / cfg.n_paths
    est = mean - cfg.x0
    if cfg.n_paths > 1:
        var = max(0.0, (total_sq - cfg.n_paths * mean**2) / (cfg.n_paths - 1))
        stderr = float(np.sqrt(var / cfg.n_paths))
        arb = est > 2.0 * stderr
    else:
        stderr = None
        arb = False
    return PayoffEstimate(estimate=est, stderr=stderr, fee=fee,
                          n_paths=cfg.n_paths, seed=cfg.seed, arbitrage=arb)
