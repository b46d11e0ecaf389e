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
                        check_real, collar_per_share, liquidation_cost)
from .errors import ConfigError, OutOfGrid
from .hjb import ControlSurface, _interpolate, _layer_position

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
        check_count("sim.seed", self.seed, 0)
        for name in ("x0", "q0", "s0"):
            check_real(f"sim.{name}", getattr(self, name))
        if not isinstance(self.zero_noise, bool):
            raise ConfigError("sim.zero_noise: must be true or false, "
                              f"got {self.zero_noise!r}")


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
    """E[Y] - x0 and the certainty equivalent CE, each with its standard error."""

    estimate: float
    stderr: float | None
    ce: float
    ce_stderr: float | None
    fee: float
    n_paths: int
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
    return np.clip(_interpolate(control, _layer_position(control, t), S, q),
                   -control.params.C, control.params.C)


def _hull_clamps(g: GridSpec, S, q) -> int:
    eps = 1e-9
    return int(np.count_nonzero((S < g.s_min - eps) | (S > g.s_max + eps)
                                | (q < g.q_min - eps) | (q > g.q_max + eps)))


def _euler_batch(control: ControlSurface, params: MarketParams, cfg: SimConfig,
                 increments: np.ndarray, record: bool = False):
    """Shared Euler kernel; returns (terminal states, trajectories if record)."""
    g = control.grid
    n, n_steps = increments.shape
    dt = params.T / n_steps
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
        # layer of t = k*dt without rounding through dt: a step at a grid
        # time reads that layer alone
        v = np.clip(_interpolate(control, k * g.n_steps / n_steps - control.n0, S, Q),
                    -params.C, params.C)
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
    statistical arbitrage.  The same paths give the certainty equivalent
    CE = -log(mean w)/gamma with w = exp(-gamma*(Y - x0)), which the
    indifference fee sets to 0, and se(CE) = sd(w)/(sqrt(n)*gamma*mean w).
    Paths are accumulated chunk by chunk in a fixed order, so the estimates
    do not depend on scheduling.
    """
    start_cfg = SimConfig(n_paths=cfg.n_paths, n_steps=cfg.n_steps, seed=cfg.seed,
                          x0=cfg.x0 - cfg.q0 * cfg.s0 + fee, q0=cfg.q0, s0=cfg.s0)
    g = params.gamma
    n = cfg.n_paths
    total = total_sq = total_w = total_w2 = 0.0
    done = 0
    while done < n:
        m = min(_CHUNK, n - done)
        dW = common_noise_batch(cfg, params, start=done, count=m)
        terminal, _ = _euler_batch(control, params, start_cfg, dW)
        Y = realized_payoff(terminal, spec, params)
        w = np.exp(-g * (Y - cfg.x0))
        total += float(Y.sum())
        total_sq += float((Y * Y).sum())
        total_w += float(w.sum())
        total_w2 += float((w * w).sum())
        done += m
    mean = total / n
    mean_w = total_w / n
    est = mean - cfg.x0
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
                          fee=fee, n_paths=n, arbitrage=arb)
