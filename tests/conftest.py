import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

import execfees as ef

settings.register_profile("suite", max_examples=60, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

BASELINE_FAMILIES = ("linear_physical", "linear_cash",
                     "collar_physical", "collar_cash")
# price-affine at r = 0: their controls hold one price row
S_FREE_FAMILIES = ("linear_physical", "linear_cash", "twap_physical", "twap_cash")


def twap_ode_coefficients(params, target, t=0.0):
    """Independent oracle: quadratic ansatz U = c0 + c1*y + c2*y^2 in
    y = q - N*t/T reduces the transformed equation to three coefficient ODEs,
    integrated back from T; returns (c0, c1, c2) at time t."""
    s2g = params.sigma**2 * params.gamma

    def rhs(t, c):
        c0, c1, c2 = c
        dc2 = (params.b - 2 * c2) ** 2 / (4 * params.l) - 0.5 * s2g
        dc1 = (2 * params.N / params.T) * c2 \
            - (params.b - 2 * c2) * c1 / (2 * params.l)
        dc0 = (params.N / params.T) * c1 + c1**2 / (4 * params.l)
        return [dc0, dc1, dc2]

    off = params.N - target
    c_T = [params.alpha * off**2, 2 * params.alpha * off, params.alpha]
    sol = solve_ivp(rhs, [params.T, t], c_T, rtol=1e-10, atol=1e-13)
    return sol.y[:, -1]


def twap_reduced_ode_value(params, target, q0):
    """The oracle's reduced value U(0, q0); at t = 0, y = q0."""
    c0, c1, c2 = twap_ode_coefficients(params, target)
    return c0 + c1 * q0 + c2 * q0**2


def deterministic_optimum(spec, params, grid, S, q, t=0.0):
    """Independent oracle for sigma = mu = r = 0: the fee equation is then a
    deterministic control problem whose optimal speed is constant, so the fee
    at (t, S, q) is a 1-D minimisation over the terminal inventory q_T,

        Pi(S + b(q_T - q)) + alpha(q_T - target)^2 - b(q_T^2 - q^2)/2
            + l(q_T - q)^2/(T - t),

    over q_T in [max(q_min, q - C(T - t)), min(q_max, q + C(T - t))], q_min
    and q_max being the grid's inventory bounds: a fine scan, then a bounded
    minimize_scalar around the best scan point.  Returns the fee and its
    minimiser q_T*, which the optimal speed (q_T* - q)/(T - t) reaches."""
    fam = spec.family
    target = params.N if fam.is_physical else 0.0
    b, horizon = params.b, params.T - t

    def cost(qT):
        price = S + b * (qT - q)
        if fam.is_collar:
            price = np.clip(price, spec.K1, spec.K2)
        return (params.N * price + params.alpha * (qT - target) ** 2
                - b * (qT**2 - q**2) / 2 + params.l * (qT - q) ** 2 / horizon)

    scan = np.linspace(max(grid.q_min, q - params.C * horizon),
                       min(grid.q_max, q + params.C * horizon), 4001)
    k = int(np.argmin(cost(scan)))
    lo, hi = scan[max(k - 1, 0)], scan[min(k + 1, scan.size - 1)]
    best = minimize_scalar(cost, bounds=(lo, hi), method="bounded",
                           options={"xatol": 1e-12})
    q_T = min(best.x, scan[k], key=cost)
    return float(cost(q_T)), float(q_T)


def cash_unwind_inventory(params, q0):
    """Q*(T) of the zero-noise cash unwind from q0: the inventory ODE
    dQ/dt = v*(t, Q) under the clipped closed-form control."""
    def ode(t, y):
        return [float(ef.control_closed(t, y[0], ef.Family.LINEAR_CASH, params))]
    return solve_ivp(ode, [0.0, params.T], [q0], rtol=1e-10, atol=1e-12).y[0, -1]


def zero_noise_path(control, params):
    """The one path of a control on zero noise: 1000 Euler steps from the
    baseline (s0, q0), with no fee in its cash (its callers read S, Q and v)."""
    cfg = ef.SimConfig(n_paths=1, n_steps=1000, seed=0)
    return ef.simulate_path(control, params, cfg, np.zeros((1, 1000)), fee=0.0)


def sign_changes(v):
    """Sign flips of a speed path, counting only speeds above 1e-3 of its peak."""
    live = np.abs(v) > 1e-3 * np.abs(v).max()
    s = np.sign(v[live])
    return int(np.sum(s[1:] != s[:-1]))


def reference_extract_control(surface, params):
    """Oracle of extract_control: its formulas applied one layer at a time,
    into a fresh array of the surface's shape."""
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
        t = k * g.dt(params.T)
        y = q - surface.schedule * t / params.T
        v = (params.b * y - params.b * DS - Dq) / (2.0 * params.l)
        np.clip(v, -params.C, params.C, out=v)
        v[:, 0] = np.maximum(v[:, 0], 0.0)
        v[:, -1] = np.minimum(v[:, -1], 0.0)
        out[k] = v
    return out


def reference_bilinear(V, g, S, q):
    """Oracle of the bilinear lookup of one layer: fresh numpy expressions,
    integer parts by truncation to int.  A layer of one price row is constant
    in S: linear in q between its two inventory neighbours."""
    qi = np.clip((q - g.q_min) / g.dq, 0.0, g.J - 1e-12)
    j0 = qi.astype(int)
    fq = qi - j0
    if V.shape[0] == 1:
        row = V[0]
        return row.take(j0) * (1 - fq) + row.take(j0 + 1) * fq
    si = np.clip((S - g.s_min) / g.ds, 0.0, g.I - 1e-12)
    i0 = si.astype(int)
    fs = si - i0
    flat, row = V.ravel(), V.shape[1]
    idx = i0 * row + j0
    return (flat.take(idx) * (1 - fs) * (1 - fq) + flat.take(idx + row) * fs * (1 - fq)
            + flat.take(idx + 1) * (1 - fs) * fq + flat.take(idx + (row + 1)) * fs * fq)


def reference_euler_terminal(control, params, start, increments):
    """Oracle of the Euler kernel: one contract, every path from `start` =
    (s0, q0, x0), each step written as fresh numpy expressions; returns the
    terminal (S, Q, X, A).  A control of one price row is read in q alone
    (see reference_bilinear)."""
    g = control.grid
    n, n_steps = increments.shape
    n_layers = control.values.shape[0]
    dt = params.T / n_steps
    S, Q, X = (np.full(n, x) for x in start)
    A_int = np.zeros(n)
    for k in range(n_steps):
        pos = min(max(k * g.n_steps / n_steps, 0.0), n_layers - 1.0)
        k0 = int(pos); k1 = min(k0 + 1, n_layers - 1)
        wk = pos - k0
        v = reference_bilinear(control.values[k0], g, S, Q)
        if wk > 0.0:
            v = (1.0 - wk) * v + wk * reference_bilinear(control.values[k1], g, S, Q)
        v = np.clip(v, -params.C, params.C)
        X = X + (params.r * X - v * (S + params.l * v)) * dt
        A_int = A_int + S * dt
        S = S + (params.mu + params.b * v) * dt + params.sigma * increments[:, k]
        Q = Q + v * dt
    return S, Q, X, A_int / params.T


def exact_premium_and_ce(family, params, grid):
    """Independent oracle, at r = 0 only and any drift mu: (E[Y] - x0, CE) of
    an S-free (linear or TWAP) contract under the Euler scheme, from one
    zero-noise path.

    Its control reads no price there, so every path trades as the zero-noise
    path does, and Y is that path's payoff Y0 plus the hedge integral
    sigma * sum_k c_k dW_k with c_k = Q_{k+1} - N*w_{k+1} (w = 1 linear,
    w = t/T TWAP; test_payoff_is_the_zero_noise_payoff_plus_the_hedge_integral).
    Y is Gaussian, so E[Y] = Y0 and the CARA certainty equivalent is
        CE = Y0 - x0 - (gamma/2) * sigma^2 * dt * sum_k c_k^2.
    The path takes one Euler step per grid time step and starts at the
    baseline (s0, q0) with the fee as cash."""
    assert params.r == 0.0
    spec = ef.make_contract(family)
    assert not spec.family.is_collar
    surface = ef.solve_fee_surface(spec, params, grid)
    cfg = ef.SimConfig(n_paths=1, n_steps=grid.n_steps)
    fee = surface.value_at(0.0, cfg.s0, cfg.q0)
    control = ef.extract_control(surface, params, out=surface.values)
    path = ef.simulate_path(control, params, cfg, np.zeros((1, cfg.n_steps)), fee=fee)
    assert path.X[0, 0] == cfg.x0 - cfg.q0 * cfg.s0 + fee
    terminal = (path.S[-1], path.Q[-1], path.X[-1], path.A[-1])
    premium = float(ef.realized_payoff(terminal, spec, params)[0]) - cfg.x0
    w = path.times[1:] / params.T if spec.family.is_twap else 1.0
    c = path.Q[1:, 0] - params.N * w
    dt = params.T / cfg.n_steps
    return premium, premium - 0.5 * params.gamma * params.sigma**2 * dt * float(c @ c)


# grid of the memory tests, and the bytes of one full-layer surface on it
MEMORY_GRID = ef.GridSpec(I=40, J=40, n_steps=400)
ONE_SURFACE = 8 * (MEMORY_GRID.n_steps + 1) * (MEMORY_GRID.I + 1) * (MEMORY_GRID.J + 1)


def traced_memory(fn):
    """fn(), and the bytes it left allocated and allocated at its peak,
    counted by tracemalloc (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - start, peak - start


@pytest.fixture(scope="session")
def params():
    return ef.MarketParams()


@pytest.fixture(scope="session")
def grid():
    return ef.GridSpec()


@pytest.fixture(scope="session")
def node():
    """Grid indices of the experiment point (S0=45, q0=0.5)."""
    return 50, 75


@pytest.fixture(scope="session")
def surfaces(params, grid):
    """Baseline fee surfaces for the four non-TWAP contracts, solved once."""
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for fam in BASELINE_FAMILIES:
            out[fam] = ef.solve_fee_surface(ef.make_contract(fam), params, grid)
    return out


@pytest.fixture(scope="session")
def controls(surfaces, params):
    return {fam: ef.extract_control(s, params) for fam, s in surfaces.items()}


@pytest.fixture(scope="session")
def twap_surfaces(params, grid):
    return {side: ef.solve_fee_surface(ef.make_contract(f"twap_{side}", params),
                                       params, grid)
            for side in ("physical", "cash")}


@pytest.fixture(scope="session")
def refined_fees(params, grid):
    """Fee at (t=0, S0=45, q0=0.5) of all six families on grid.refine(2).

    Each refined surface is dropped once its fee is read: a refined collar
    surface holds 2001 layers of 201x201 nodes, 650 MB.
    """
    fine = grid.refine(2)
    return {fam: ef.solve_fee_surface(ef.make_contract(fam), params, fine)
            .value_at(0.0, 45.0, 0.5)
            for fam in BASELINE_FAMILIES + ("twap_physical", "twap_cash")}
