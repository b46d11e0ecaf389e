import dataclasses
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import execfees as ef
from execfees.errors import ConfigError, OutOfGrid
from execfees.hjb import _interpolate, _layer_position
from execfees.hjb import solve_fee_surfaces
from execfees.simulate import _CHUNK, _MAX_SEED, _euler_batch

from conftest import (BASELINE_FAMILIES, S_FREE_FAMILIES, cash_unwind_inventory,
                      exact_premium_and_ce, reference_bilinear,
                      reference_euler_terminal)

ALL_FAMILIES = BASELINE_FAMILIES + ("twap_physical", "twap_cash")


def zero_control(params, grid, n_layers=None):
    n = grid.n_steps + 1 if n_layers is None else n_layers
    return ef.FeeSurface(grid=grid, params=params,
                         values=np.zeros((n, grid.I + 1, grid.J + 1)), kind="control")


# ---------------------------------------------------------------------------
# common random numbers

def test_common_noise_reproducible(params):
    cfg = ef.SimConfig(n_paths=16, n_steps=50, seed=99)
    a = ef.common_noise_batch(cfg, params)
    b = ef.common_noise_batch(cfg, params)
    assert np.array_equal(a, b)
    c = ef.common_noise_batch(ef.SimConfig(n_paths=16, n_steps=50, seed=100), params)
    assert not np.array_equal(a, c)


def test_common_noise_subsets_are_independent_of_batch(params):
    cfg = ef.SimConfig(n_paths=12, n_steps=30, seed=7)
    full = ef.common_noise_batch(cfg, params)
    part = ef.common_noise_batch(cfg, params, start=5, count=3)
    assert np.array_equal(full[5:8], part)


def test_common_noise_moments(params):
    cfg = ef.SimConfig(n_paths=400, n_steps=100, seed=3)
    dw = ef.common_noise_batch(cfg, params)
    n = dw.size
    dt = params.T / cfg.n_steps
    assert abs(dw.mean()) < 3.0 * np.sqrt(dt) / np.sqrt(n)
    assert abs(dw.var() - dt) < 3.0 * dt * np.sqrt(2.0 / n)


def test_largest_seed_keys_its_own_stream(params):
    # the largest accepted seed reaches Philox exactly and quietly; one more
    # would be rounded onto its stream
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        key = np.random.Philox(key=[_MAX_SEED, 3]).state["state"]["key"]
        dw = ef.common_noise_batch(ef.SimConfig(n_paths=4, n_steps=20, seed=_MAX_SEED),
                                   params)
    assert [int(k) for k in key] == [_MAX_SEED, 3]
    own = np.random.Generator(np.random.Philox(key=np.array([_MAX_SEED, 3], np.uint64)))
    assert np.array_equal(dw[3], own.standard_normal(20) * np.sqrt(params.T / 20))
    assert int(np.random.Philox(key=[_MAX_SEED + 1, 3]).state["state"]["key"][0]) \
        == _MAX_SEED
    with pytest.raises(ConfigError, match="sim.seed"):
        ef.SimConfig(seed=_MAX_SEED + 1)


@pytest.mark.parametrize("seed", [0, _MAX_SEED])
def test_common_noise_rows_equal_fresh_generators(params, seed):
    # the reused generator gives every row exactly the stream of a generator
    # built fresh from the row's key, at any start
    cfg = ef.SimConfig(n_paths=20, n_steps=37, seed=seed)
    start = 11
    dw = ef.common_noise_batch(cfg, params, start=start, count=6)
    root = np.sqrt(params.T / cfg.n_steps)
    for p in range(6):
        key = np.array([seed, start + p], np.uint64)
        fresh = np.random.Generator(np.random.Philox(key=key))
        assert np.array_equal(dw[p], fresh.standard_normal(cfg.n_steps) * root), p


# ---------------------------------------------------------------------------
# control interpolation

def test_interpolation_hits_node_values(params, controls, grid):
    ctrl = controls["collar_physical"]   # solved on the configured grid
    S = grid.s_nodes(); q = grid.q_nodes()
    for (k, i, j) in ((0, 50, 75), (500, 3, 10), (1000, 100, 100)):
        t = k * grid.dt(params.T)
        # node coordinates are not exactly representable; 1 ulp of index
        # wobble turns into ~1e-10 of value wobble
        assert _interpolate(ctrl, _layer_position(ctrl, t), S[i], q[j]) == \
            pytest.approx(ctrl.values[k, i, j], abs=1e-9)


def test_interpolation_constant_and_linear_fields(params, grid):
    ctrl = zero_control(params, grid, n_layers=2)
    ctrl.values[:] = 2.5
    assert _interpolate(ctrl, _layer_position(ctrl, 0.3), 41.03, 0.137) == \
        pytest.approx(2.5)
    # linear in q: bilinear interpolation reproduces it exactly
    qn = grid.q_nodes()
    ctrl.values[:] = (1.5 * qn - 0.25)[None, None, :]
    for qq in (-0.513, 0.0, 0.721):
        assert _interpolate(ctrl, 0.0, 45.0, qq) == pytest.approx(1.5 * qq - 0.25,
                                                                  abs=1e-12)
    # FeeSurface.value_at shares the kernel: off-node and between layers it
    # equals the control lookup on the same field
    ctrl.values[1] *= 2.0
    surf = ef.FeeSurface(grid=grid, params=params, values=ctrl.values)
    t = 0.4 * grid.dt(params.T)
    for qq, SS in ((-0.513, 41.03), (0.721, 57.77)):
        assert surf.value_at(t, SS, qq) == _interpolate(ctrl, _layer_position(ctrl, t),
                                                        SS, qq)
        assert surf.value_at(t, SS, qq) == pytest.approx(1.4 * (1.5 * qq - 0.25),
                                                         abs=1e-12)


def test_interpolation_reclamps(params, grid):
    ctrl = zero_control(params, grid, n_layers=2)
    ctrl.values[:] = 50.0   # out-of-bound field: an Euler step trades at most C
    cfg = ef.SimConfig(n_paths=1, n_steps=1)
    path = ef.simulate_path(ctrl, params, cfg, np.zeros((1, 1)))
    assert path.v[0, 0] == params.C
    assert path.Q[1, 0] == cfg.q0 + params.C * params.T


@pytest.mark.parametrize("n_steps", [400, 200, 800])
def test_euler_reads_grid_time_layers_exactly(params, n_steps):
    # a step at a grid time reads that layer alone, bit for bit, whether or
    # not the simulation's time grid is the solver's
    g = ef.GridSpec(I=40, J=40, n_steps=400)
    rng = np.random.default_rng(5)
    ctrl = ef.FeeSurface(grid=g, params=params,
                         values=rng.uniform(-1.0, 1.0, (401, 41, 41)), kind="control")
    cfg = ef.SimConfig(n_paths=1, n_steps=n_steps, seed=3)
    path = ef.simulate_path(ctrl, params, cfg, ef.common_noise_batch(cfg, params))
    v, S, Q = path.v[:, 0], path.S[:, 0], path.Q[:, 0]
    on_grid = [k for k in range(n_steps) if k * 400 % n_steps == 0]
    assert len(on_grid) == min(n_steps, 400)
    for k in on_grid:
        assert v[k] == np.clip(_interpolate(ctrl, k * 400 // n_steps, S[k], Q[k]),
                               -params.C, params.C), k


def test_lookup_keeps_the_signed_zeros_of_truncation():
    # at S = -0.0 on a hull from 0 the price fraction is -0.0, as
    # truncation to int gives it; here it decides the sign of a zero lookup
    g = ef.GridSpec(s_min=0.0, s_max=4.0, I=4, q_min=0.0, q_max=4.0, J=4)
    V = np.zeros((5, 5))
    V[0, :2] = -0.0
    V[1, :2] = 1.0
    want = reference_bilinear(V, g, np.array([-0.0]), np.array([0.0]))
    surface = ef.FeeSurface(grid=g, params=ef.MarketParams(), values=V[None])
    got = _interpolate(surface, 0, np.array([-0.0]), np.array([0.0]))
    assert want[0] == 0.0 and np.signbit(want[0])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# path mechanics

def test_idle_path_grows_at_riskfree_rate():
    p = ef.MarketParams(r=0.05, sigma=0.0, b=0.0)
    g = ef.GridSpec(I=4, J=4, n_steps=8)
    cfg = ef.SimConfig(n_paths=1, n_steps=8, seed=0, x0=10.0)
    path = ef.simulate_path(zero_control(p, g, 9), p, cfg, np.zeros((1, 8)))
    dt = p.T / 8
    assert np.all(path.S == cfg.s0)
    assert np.all(path.Q == cfg.q0)
    assert path.X[-1, 0] == pytest.approx(10.0 * (1 + p.r * dt) ** 8, rel=1e-14)


def test_wealth_identity_zero_rate(params, controls):
    cfg = ef.SimConfig(n_paths=1, n_steps=1000, seed=4)
    dw = ef.common_noise_batch(cfg, params, count=1)
    path = ef.simulate_path(controls["linear_cash"], params, cfg, dw)
    v, S, X = path.v[:, 0], path.S[:, 0], path.X[:, 0]
    dt = params.T / cfg.n_steps
    spend = np.sum(v * (S[:-1] + params.l * v) * dt)
    assert X[-1] - X[0] == pytest.approx(-spend, abs=1e-10)


def test_inventory_increments_bounded(params, controls):
    cfg = ef.SimConfig(n_paths=1, n_steps=1000, seed=5)
    dw = ef.common_noise_batch(cfg, params, count=1)
    path = ef.simulate_path(controls["linear_physical"], params, cfg, dw)
    dq = np.diff(path.Q[:, 0])
    dt = params.T / cfg.n_steps
    assert np.abs(dq).max() <= params.C * dt + 1e-12
    assert np.allclose(dq, path.v[:, 0] * dt)


def test_running_average_left_rule(params, controls):
    cfg = ef.SimConfig(n_paths=1, n_steps=100, seed=6)
    dw = ef.common_noise_batch(cfg, ef.MarketParams(), count=1)[:, :100]
    path = ef.simulate_path(zero_control(params, ef.GridSpec(I=4, J=4, n_steps=100), 101),
                            params, cfg, dw)
    A, S = path.A[:, 0], path.S[:, 0]
    assert A[0] == S[0]
    k = 40
    assert A[k] == pytest.approx(S[:k].mean(), rel=1e-12)


def _zero_noise_path(fam, params, controls):
    """(Q, v) of the one zero-noise path."""
    cfg = ef.SimConfig(n_paths=1, n_steps=1000, seed=0)
    path = ef.simulate_path(controls[fam], params, cfg, np.zeros((1, 1000)))
    return path.Q[:, 0], path.v[:, 0]


def _sign_changes(v):
    live = np.abs(v) > 1e-3 * np.abs(v).max()
    s = np.sign(v[live])
    return int(np.sum(s[1:] != s[:-1]))


@pytest.mark.parametrize("fam", S_FREE_FAMILIES)
def test_s_free_inventory_paths_equal_the_zero_noise_path(params, fam):
    # at r = 0 a linear or TWAP control reads no price, so every noisy path
    # trades exactly as the zero-noise path does
    g = ef.GridSpec(I=40, J=40, n_steps=400)
    surface = ef.solve_fee_surface(ef.make_contract(fam, params), params, g)
    control = ef.extract_control(surface, params, out=surface.values)
    cfg = ef.SimConfig(n_paths=50, n_steps=400, seed=23)
    noisy = ef.simulate_path(control, params, cfg, ef.common_noise_batch(cfg, params))
    quiet = ef.simulate_path(control, params, cfg, np.zeros((1, cfg.n_steps)))
    assert not np.array_equal(noisy.S[:, :1], quiet.S)
    for got, want in ((noisy.Q, quiet.Q), (noisy.v, quiet.v)):
        assert np.array_equal(got.view(np.uint64),
                              np.broadcast_to(want, got.shape).view(np.uint64))


def test_deterministic_path_physical(params, controls):
    Q, v = _zero_noise_path("linear_physical", params, controls)
    assert abs(Q[-1] - params.N) <= 0.02
    assert _sign_changes(v) == 0


def test_deterministic_path_cash(params, controls):
    # the exact optimal unwind leaves ~0.052 shares at T (finite alpha);
    # the simulated path must land near that value, with one buy->sell flip
    q_exact = cash_unwind_inventory(params, 0.5)
    Q, v = _zero_noise_path("linear_cash", params, controls)
    assert q_exact == pytest.approx(0.0523, abs=5e-4)
    assert abs(Q[-1] - q_exact) <= 0.015
    assert _sign_changes(v) == 1


def test_out_of_grid_detection(params, grid):
    ctrl = zero_control(params, grid)
    ctrl.values[:] = params.C   # buy at full speed: leaves q_max quickly
    cfg = ef.SimConfig(n_paths=2, n_steps=1000, seed=1)
    with pytest.raises(OutOfGrid):
        ef.simulate_path(ctrl, params, cfg, np.zeros((1, 1000)))


@pytest.mark.parametrize("record", [False, True])
def test_one_clamp_count_in_both_modes(params, record):
    # one path of 100 lookups under a zero control: the budget allows one
    # outside the hull, not two; a state on any edge of the hull is inside
    # it, and 1e-6 beyond that edge outside
    assert params.mu == 0.0   # an idle path moves only with the noise
    g = ef.GridSpec(I=4, J=4, n_steps=100)
    control = [zero_control(params, g, 101)]
    jump = (g.s_max + 1.0 - 45.0) / params.sigma

    def run(s0, q0=0.5, out_from=None):
        """Euler from (s0, q0), the path jumping beyond s_max at step out_from."""
        dW = np.zeros((1, 100))
        if out_from is not None:
            dW[0, out_from] = jump
        return _euler_batch(control, params, [(s0, q0, 0.0)], dW, record=record)

    run(45.0, out_from=98)   # the lookup of step 99 alone is outside
    with pytest.raises(OutOfGrid, match=r"^2\.00% of simulated steps"):
        run(45.0, out_from=97)
    for s0, q0, beyond_s, beyond_q in ((g.s_min, 0.5, -1e-6, 0.0),
                                       (g.s_max, 0.5, 1e-6, 0.0),
                                       (45.0, g.q_min, 0.0, -1e-6),
                                       (45.0, g.q_max, 0.0, 1e-6)):
        run(s0, q0)
        with pytest.raises(OutOfGrid, match=r"^100\.00% of simulated steps"):
            run(s0 + beyond_s, q0 + beyond_q)


@pytest.mark.parametrize("record", [False, True])
def test_s_free_member_leaving_the_price_hull_is_out_of_grid(params, record):
    # a one-row control reads no price, yet its states keep the price hull:
    # the jump after the first lookup takes the member started at 45 beyond
    # s_max and the one started at 30 not; the error names the one that left
    g = ef.GridSpec(I=4, J=4, n_steps=100)
    specs = [ef.make_contract(fam) for fam in ("linear_physical", "linear_cash")]
    stack = [ef.extract_control(surface, params)
             for surface in solve_fee_surfaces(specs, params, g, every_layer=True)]
    assert [control.values.shape for control in stack] == [(101, 1, 5)] * 2
    starts = [(30.0, 0.5, 0.0), (45.0, 0.5, 0.0)]
    dW = np.zeros((1, 100))
    _euler_batch(stack, params, starts, dW, record=record)
    dW[0, 0] = (g.s_max + 1.0 - 45.0) / params.sigma
    with pytest.raises(OutOfGrid, match=r"^99\.00% of simulated steps.*"
                                        r"\(linear_cash\)$"):
        _euler_batch(stack, params, starts, dW, record=record)


def test_clamp_budget_is_per_path(params):
    # one path of 200 leaves the price hull at step 0 and never returns: the
    # batch is out for 99/20000 < 1% of its lookups, that path for 99%
    g = ef.GridSpec(I=4, J=4, n_steps=100)
    cfg = ef.SimConfig(n_paths=200, n_steps=100, seed=0)
    dw = np.zeros((200, 100))
    dw[17, 0] = 2.0 * (g.s_max - cfg.s0) / params.sigma
    ctrl = zero_control(params, g, 101)
    with pytest.raises(OutOfGrid):
        ef.simulate_path(ctrl, params, cfg, dw)
    with pytest.raises(OutOfGrid):
        ef.simulate_path(ctrl, params, cfg, dw[17:18])
    path = ef.simulate_path(ctrl, params, cfg, np.delete(dw, 17, axis=0))
    assert path.S.shape == (101, 199) and path.v.shape == (100, 199)


# ---------------------------------------------------------------------------
# payoffs and the expected-payoff metric

def test_realized_payoff_formulas(params):
    S, Q, X, A = 45.0, 1.0, 3.0, 46.0
    phys = ef.make_contract("linear_physical")
    assert ef.realized_payoff((S, Q, X, A), phys, params) == pytest.approx(3.0)
    cash = ef.make_contract("linear_cash")
    # Q(T)=0: Y = X - N*S
    assert ef.realized_payoff((S, 0.0, X, A), cash, params) == pytest.approx(3.0 - 45.0)
    colc = ef.make_contract("collar_cash")
    assert ef.realized_payoff((S, 0.0, X, A), colc, params) == pytest.approx(3.0 - 45.0)
    colp = ef.make_contract("collar_physical")
    # Q(T)=N inside the band: Y = X + N*S - N*Z(S) = X
    assert ef.realized_payoff((S, Q, X, A), colp, params) == pytest.approx(3.0)
    twp = ef.make_contract("twap_physical")
    #  X + Q*S + N*(A - S) - 0
    assert ef.realized_payoff((S, Q, X, A), twp, params) == pytest.approx(
        3.0 + 45.0 + 1.0)
    twc = ef.make_contract("twap_cash")
    #  X + Q*S + N*(A - S) - alpha*Q**2 at Q(T) = 0.5
    assert ef.realized_payoff((S, 0.5, X, A), twc, params) == pytest.approx(
        3.0 + 0.5 * 45.0 + 1.0 - 0.2 * 0.25)


def test_realized_payoff_is_wealth_less_the_terminal_fee(params):
    # the Monte Carlo settles what the fee equation prices, bit for bit
    rng = np.random.default_rng(5)
    S, A = rng.uniform(20.0, 70.0, (2, 64))
    Q, X = rng.uniform(-1.0, 1.0, 64), rng.uniform(-50.0, 50.0, 64)
    for fam in ALL_FAMILIES:
        spec = ef.make_contract(fam)
        assert np.array_equal(ef.realized_payoff((S, Q, X, A), spec, params),
                              X + Q * S - ef.terminal_fee(spec, Q, S, params, A))


def _semi_analytic_metric(params, fam):
    """E[Y] - x0 for the exact closed-form strategy, independent of the
    simulator: deterministic inventory ODE plus exact expectation algebra."""
    family = ef.Family(fam)
    target = params.N if family.is_physical else 0.0

    def rhs(t, y):
        v = float(ef.control_closed(t, y[0], family, params))
        return [v, params.l * v**2]

    sol = solve_ivp(rhs, [0.0, params.T], [0.5, 0.0], rtol=1e-10, atol=1e-12)
    q_T, cost = sol.y[0, -1], sol.y[1, -1]
    if family == ef.Family.LINEAR_PHYSICAL:
        fee_h = ef.fee_physical_closed(0.0, 0.5, 0.0, params)
    else:
        fee_h = ef.fee_trs_closed(0.0, 0.5, 0.0, params)
    return (fee_h - params.b * (q_T - 0.5) ** 2 / 2.0
            + params.b * (q_T - params.N) * (q_T - 0.5)
            - cost - params.alpha * (q_T - target) ** 2)


@pytest.mark.parametrize("fam", ["linear_physical", "linear_cash"])
def test_metric_matches_semi_analytic_value(params, surfaces, controls, fam):
    cfg = ef.SimConfig(n_paths=20_000, seed=31)
    spec = ef.make_contract(fam)
    fee = surfaces[fam].value_at(0.0, 45.0, 0.5)
    [est] = ef.expected_payoff_metric(params, cfg, [(spec, controls[fam], fee)])
    truth = _semi_analytic_metric(params, fam)
    # allow Monte-Carlo noise plus a small discretization margin
    assert est.estimate == pytest.approx(truth, abs=3 * est.stderr + 2e-3)


def test_metric_deterministic_for_fixed_seed(params, surfaces, controls):
    cfg = ef.SimConfig(n_paths=3000, seed=77)
    spec = ef.make_contract("linear_physical")
    fee = surfaces["linear_physical"].value_at(0.0, 45.0, 0.5)
    contracts = [(spec, controls["linear_physical"], fee)]
    [a] = ef.expected_payoff_metric(params, cfg, contracts)
    [b] = ef.expected_payoff_metric(params, cfg, contracts)
    assert (a.estimate, a.stderr, a.ce, a.ce_stderr) == (
        b.estimate, b.stderr, b.ce, b.ce_stderr)


def test_metric_single_path_has_no_stderr(params, surfaces, controls):
    cfg = ef.SimConfig(n_paths=1, seed=2)
    spec = ef.make_contract("linear_physical")
    fee = surfaces["linear_physical"].value_at(0.0, 45.0, 0.5)
    [est] = ef.expected_payoff_metric(params, cfg,
                                      [(spec, controls["linear_physical"], fee)])
    assert est.stderr is None and est.ce_stderr is None
    assert est.arbitrage is False


# At r = 0 the linear and TWAP controls do not read the price, whatever the
# drift mu, so every path trades as the zero-noise path does, and its payoff
# differs from that path's by the hedge integral
# sigma * sum_k (Q_{k+1} - N*w_{k+1}) dW_k, with w = 1 for linear contracts
# and w = t/T for TWAP ones.  The zero-noise payoff is the oracle's.
@pytest.mark.parametrize("fam, mu", [
    pytest.param(fam, mu, id=fam if mu == 0.0 else f"{fam}-mu={mu:g}")
    for mu in (0.0, 0.5, -0.3)
    for fam in ("linear_physical", "linear_cash", "twap_physical", "twap_cash")])
def test_payoff_is_the_zero_noise_payoff_plus_the_hedge_integral(fam, mu):
    params = ef.MarketParams(mu=mu)
    assert params.r == 0.0
    grid = ef.GridSpec(I=40, J=40, n_steps=400)
    cfg = ef.SimConfig(n_paths=2000, n_steps=400, seed=7)
    spec = ef.make_contract(fam)
    surface = ef.solve_fee_surface(spec, params, grid)
    fee = surface.value_at(0.0, cfg.s0, cfg.q0)
    control = ef.extract_control(surface, params, out=surface.values)
    start = dataclasses.replace(cfg, x0=cfg.x0 - cfg.q0 * cfg.s0 + fee)

    def gains(dW):
        """Y - x0 on each path of the increments dW, and the paths."""
        path = ef.simulate_path(control, params, start, dW)
        terminal = (path.S[-1], path.Q[-1], path.X[-1], path.A[-1])
        return ef.realized_payoff(terminal, spec, params) - cfg.x0, path

    dW = ef.common_noise_batch(cfg, params)
    noisy, path = gains(dW)
    [quiet], _ = gains(np.zeros((1, cfg.n_steps)))
    w = path.times[1:, None] / params.T if spec.family.is_twap else 1.0
    hedge = params.sigma * ((path.Q[1:] - params.N * w) * dW.T).sum(axis=0)
    assert np.abs(noisy - hedge - quiet).max() <= 1e-12
    assert exact_premium_and_ce(fam, params, grid)[0] == quiet
    [est] = ef.expected_payoff_metric(params, cfg, [(spec, control, fee)])
    assert abs(est.estimate - noisy.mean()) <= 1e-12


# |CE| the indifference fee leaves each S-free contract under the Euler
# scheme, exact (conftest.exact_premium_and_ce), at the baseline grid;
# measured: linear_physical +2.3e-5, linear_cash -3.40e-4, twap_physical
# +3.0e-5, twap_cash -2.83e-4.  Criterion 6's Monte Carlo sees the CE only
# to its standard error, 1.7-3.6e-3.
EXACT_CE_BOUNDS = {"linear_physical": 5e-5, "linear_cash": 4e-4,
                   "twap_physical": 5e-5, "twap_cash": 4e-4}


@pytest.fixture(scope="module")
def exact_ce(params, grid):
    return {fam: exact_premium_and_ce(fam, params, grid)[1] for fam in S_FREE_FAMILIES}


def test_exact_ce_of_s_free_contracts_is_small(exact_ce):
    for fam, bound in EXACT_CE_BOUNDS.items():
        assert abs(exact_ce[fam]) <= bound, (fam, exact_ce)


def test_exact_cash_ce_falls_with_the_time_step(params, grid, exact_ce):
    # the cash CE is mostly time error: 1000 -> 2000 steps shrinks it
    # 2.7x (linear_cash) and 2.4x (twap_cash), measured
    fine = dataclasses.replace(grid, n_steps=2 * grid.n_steps)
    for fam in ("linear_cash", "twap_cash"):
        _, ce = exact_premium_and_ce(fam, params, fine)
        assert abs(ce) * 2.0 <= abs(exact_ce[fam]), (fam, ce, exact_ce[fam])


STACK_GRID = ef.GridSpec(I=10, J=10, n_steps=100)


def _assert_stacked_metric_equals_one_contract_calls(params, n_steps, g=STACK_GRID):
    """Drawing each noise chunk once and stepping each group of contracts as
    one stack changes no bit of any contract's estimate; 9000 paths span two
    chunks, on a 100-step grid."""
    assert 9000 > _CHUNK
    cfg = ef.SimConfig(n_paths=9000, n_steps=n_steps, seed=13)
    contracts = []
    for fam in ALL_FAMILIES:
        spec = ef.make_contract(fam)
        surface = ef.solve_fee_surface(spec, params, g)
        fee = surface.value_at(0.0, cfg.s0, cfg.q0)
        contracts.append((spec, ef.extract_control(surface, params), fee))
    together = ef.expected_payoff_metric(params, cfg, contracts)
    assert len(together) == len(ALL_FAMILIES)
    for entry, est in zip(contracts, together):
        [alone] = ef.expected_payoff_metric(params, cfg, [entry])
        assert (est.estimate, est.stderr, est.ce, est.ce_stderr, est.arbitrage) == (
            alone.estimate, alone.stderr, alone.ce, alone.ce_stderr, alone.arbitrage)


def test_metric_over_all_contracts_equals_one_contract_calls(params):
    _assert_stacked_metric_equals_one_contract_calls(params, 100)


def test_metric_over_all_contracts_blending_layers_equals_one_contract_calls(params):
    # 150 steps on the 100-step grid: most steps blend two layers
    _assert_stacked_metric_equals_one_contract_calls(params, 150)


def test_metric_on_a_three_node_grid_equals_one_contract_calls(params):
    # with I = 2 configured, the collars and the price-affine contracts share
    # the grid but not the control's shape (3 price rows against 1), so they
    # are stepped as two stacks
    g = ef.GridSpec(I=2, J=10, n_steps=100)
    shapes = {ef.extract_control(ef.solve_fee_surface(ef.make_contract(fam, params),
                                                      params, g), params).values.shape
              for fam in ("collar_cash", "linear_cash")}
    assert shapes == {(101, 3, 11), (101, 1, 11)}
    _assert_stacked_metric_equals_one_contract_calls(params, 100, g)


@pytest.mark.parametrize("n_steps, in_place", [
    pytest.param(n_steps, in_place, id=f"{n_steps}-in_place" if in_place else str(n_steps))
    for in_place in (False, True) for n_steps in (100, 150)])
def test_stacked_euler_equals_reference_step_bitwise(params, n_steps, in_place):
    # each member of a stack ends bit for bit where the step's formulas,
    # applied to it alone, take it; each member starts from its own wealth.
    # Written over its fee surface, as statarb writes it, an S-free control
    # is a one-row view of a 3-row buffer, each member a buffer of its own
    g = ef.GridSpec(I=10, J=10, n_steps=100)
    cfg = ef.SimConfig(n_paths=300, n_steps=n_steps, seed=17)
    dW = ef.common_noise_batch(cfg, params)
    specs = [ef.make_contract(fam, params) for fam in ALL_FAMILIES]
    surfaces = solve_fee_surfaces(specs, params, g, every_layer=True)
    stacks = {}
    for surface in surfaces:
        out = surface.values if in_place else None
        control = ef.extract_control(surface, params, out=out)
        if in_place and control.values.shape[1] == 1:
            assert control.values.base is surface.values
        stacks.setdefault(surface.grid, []).append(control)
    assert sorted(len(stack) for stack in stacks.values()) == [2, 4]
    for stack in stacks.values():
        starts = [(cfg.s0, cfg.q0, cfg.x0 + 0.1 * m) for m in range(len(stack))]
        terminal = _euler_batch(stack, params, starts, dW)[0]
        for m, (control, start) in enumerate(zip(stack, starts)):
            expected = reference_euler_terminal(control, params, start, dW)
            for got, want in zip(terminal, expected):
                assert np.array_equal(got[m].view(np.uint64), want.view(np.uint64))


def test_metric_budget_is_per_contract(params):
    # four idle controls and one that buys at full speed from layer 90 on:
    # its inventory leaves the hull for the last 3-4% of its lookups, which
    # pooled over the five contracts would be under the 1% budget; the error
    # from the stack names the buyer's contract
    g = ef.GridSpec(I=4, J=4, n_steps=100)
    cfg = ef.SimConfig(n_paths=50, n_steps=100, seed=3)
    spec = ef.make_contract("linear_physical")
    idle = [(spec, zero_control(params, g, 101), 0.0) for _ in range(4)]
    cash = ef.make_contract("linear_cash")
    buyer = dataclasses.replace(zero_control(params, g, 101), contract=cash)
    buyer.values[90:] = params.C
    with pytest.raises(OutOfGrid, match=r"^[34]\.\d\d% of simulated steps"):
        ef.expected_payoff_metric(params, cfg, [(cash, buyer, 0.0)])
    stacked = idle[:2] + [(cash, buyer, 0.0)] + idle[2:]
    with pytest.raises(OutOfGrid, match=r"^[34]\.\d\d% of simulated steps.*"
                                        r"\(linear_cash\)$"):
        ef.expected_payoff_metric(params, cfg, stacked)
    assert len(ef.expected_payoff_metric(params, cfg, idle)) == 4
