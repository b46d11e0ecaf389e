import numpy as np
import pytest
from scipy.integrate import solve_ivp

import execfees as ef
from execfees.errors import OutOfGrid
from execfees.hjb import _bilinear

from conftest import cash_unwind_inventory, contract


def zero_control(params, grid, n_layers=None):
    n = grid.n_steps + 1 if n_layers is None else n_layers
    return ef.ControlSurface(grid=grid, params=params,
                             values=np.zeros((n, grid.I + 1, grid.J + 1)))


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


# ---------------------------------------------------------------------------
# control interpolation

def test_interpolation_hits_node_values(params, controls, grid):
    ctrl = controls["linear_physical"]
    S = grid.s_nodes(); q = grid.q_nodes()
    for (k, i, j) in ((0, 50, 75), (500, 3, 10), (1000, 100, 100)):
        t = k * grid.dt(params.T)
        # node coordinates are not exactly representable; 1 ulp of index
        # wobble turns into ~1e-10 of value wobble
        assert ef.interpolate_control(ctrl, t, q[j], S[i]) == pytest.approx(
            ctrl.values[k, i, j], abs=1e-9)


def test_interpolation_constant_and_linear_fields(params, grid):
    ctrl = zero_control(params, grid, n_layers=2)
    ctrl.values[:] = 2.5
    assert ef.interpolate_control(ctrl, 0.3, 0.137, 41.03) == pytest.approx(2.5)
    # linear in q: bilinear interpolation reproduces it exactly
    qn = grid.q_nodes()
    ctrl.values[:] = (1.5 * qn - 0.25)[None, None, :]
    for qq in (-0.513, 0.0, 0.721):
        assert ef.interpolate_control(ctrl, 0.0, qq, 45.0) == pytest.approx(
            1.5 * qq - 0.25, abs=1e-12)
    # FeeSurface.value_at shares the kernel: off-node and between layers it
    # equals the control lookup on the same field
    ctrl.values[1] *= 2.0
    surf = ef.FeeSurface(grid=grid, params=params, values=ctrl.values)
    t = 0.4 * grid.dt(params.T)
    for qq, SS in ((-0.513, 41.03), (0.721, 57.77)):
        assert surf.value_at(t, SS, qq) == ef.interpolate_control(ctrl, t, qq, SS)
        assert surf.value_at(t, SS, qq) == pytest.approx(1.4 * (1.5 * qq - 0.25),
                                                         abs=1e-12)


def test_interpolation_reclamps(params, grid):
    ctrl = zero_control(params, grid, n_layers=2)
    ctrl.values[:] = 50.0   # out-of-bound field: lookups stay within [-C, C]
    assert ef.interpolate_control(ctrl, 0.0, 0.0, 45.0) == params.C


@pytest.mark.parametrize("n_steps", [400, 200, 800])
def test_euler_reads_grid_time_layers_exactly(params, n_steps):
    # a step at a grid time reads that layer alone, bit for bit, whether or
    # not the simulation's time grid is the solver's
    g = ef.GridSpec(I=40, J=40, n_steps=400)
    rng = np.random.default_rng(5)
    ctrl = ef.ControlSurface(grid=g, params=params,
                             values=rng.uniform(-1.0, 1.0, (401, 41, 41)))
    cfg = ef.SimConfig(n_paths=1, n_steps=n_steps, seed=3)
    path = ef.simulate_path(ctrl, params, cfg, ef.common_noise_batch(cfg, params))
    on_grid = [k for k in range(n_steps) if k * 400 % n_steps == 0]
    assert len(on_grid) == min(n_steps, 400)
    for k in on_grid:
        layer = ctrl.values[k * 400 // n_steps]
        assert path.v[k] == np.clip(_bilinear(layer, g, path.S[k], path.Q[k]),
                                    -params.C, params.C), k


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
    assert path.X[-1] == pytest.approx(10.0 * (1 + p.r * dt) ** 8, rel=1e-14)


def test_wealth_identity_zero_rate(params, controls):
    cfg = ef.SimConfig(n_paths=1, n_steps=1000, seed=4)
    dw = ef.common_noise_batch(cfg, params, count=1)
    path = ef.simulate_path(controls["linear_cash"], params, cfg, dw)
    dt = params.T / cfg.n_steps
    spend = np.sum(path.v * (path.S[:-1] + params.l * path.v) * dt)
    assert path.X[-1] - path.X[0] == pytest.approx(-spend, abs=1e-10)


def test_inventory_increments_bounded(params, controls):
    cfg = ef.SimConfig(n_paths=1, n_steps=1000, seed=5)
    dw = ef.common_noise_batch(cfg, params, count=1)
    path = ef.simulate_path(controls["linear_physical"], params, cfg, dw)
    dq = np.diff(path.Q)
    dt = params.T / cfg.n_steps
    assert np.abs(dq).max() <= params.C * dt + 1e-12
    assert np.allclose(dq, path.v * dt)


def test_running_average_left_rule(params, controls):
    cfg = ef.SimConfig(n_paths=1, n_steps=100, seed=6)
    dw = ef.common_noise_batch(cfg, ef.MarketParams(), count=1)[:, :100]
    path = ef.simulate_path(zero_control(params, ef.GridSpec(I=4, J=4, n_steps=100), 101),
                            params, cfg, dw)
    assert path.A[0] == path.S[0]
    k = 40
    assert path.A[k] == pytest.approx(path.S[:k].mean(), rel=1e-12)


def _zero_noise_path(fam, params, controls):
    cfg = ef.SimConfig(n_paths=1, n_steps=1000, seed=0)
    return ef.simulate_path(controls[fam], params, cfg, np.zeros((1, 1000)))


def _sign_changes(v):
    live = np.abs(v) > 1e-3 * np.abs(v).max()
    s = np.sign(v[live])
    return int(np.sum(s[1:] != s[:-1]))


def test_deterministic_path_physical(params, controls):
    path = _zero_noise_path("linear_physical", params, controls)
    assert abs(path.Q[-1] - params.N) <= 0.02
    assert _sign_changes(path.v) == 0


def test_deterministic_path_cash(params, controls):
    # the exact optimal unwind leaves ~0.052 shares at T (finite alpha);
    # the simulated path must land near that value, with one buy->sell flip
    q_exact = cash_unwind_inventory(params, 0.5)
    path = _zero_noise_path("linear_cash", params, controls)
    assert q_exact == pytest.approx(0.0523, abs=5e-4)
    assert abs(path.Q[-1] - q_exact) <= 0.015
    assert _sign_changes(path.v) == 1


def test_out_of_grid_detection(params, grid):
    ctrl = zero_control(params, grid)
    ctrl.values[:] = params.C   # buy at full speed: leaves q_max quickly
    cfg = ef.SimConfig(n_paths=2, n_steps=1000, seed=1)
    with pytest.raises(OutOfGrid):
        ef.simulate_path(ctrl, params, cfg, np.zeros((1, 1000)))


# ---------------------------------------------------------------------------
# payoffs and the expected-payoff metric

def test_realized_payoff_formulas(params):
    S, Q, X, A = 45.0, 1.0, 3.0, 46.0
    phys = contract("linear_physical", params)
    assert ef.realized_payoff((S, Q, X, A), phys, params) == pytest.approx(3.0)
    cash = contract("linear_cash", params)
    # Q(T)=0: Y = X - N*S
    assert ef.realized_payoff((S, 0.0, X, A), cash, params) == pytest.approx(3.0 - 45.0)
    colc = contract("collar_cash", params)
    assert ef.realized_payoff((S, 0.0, X, A), colc, params) == pytest.approx(3.0 - 45.0)
    twp = contract("twap_physical", params)
    #  X + Q*S + N*(A - S) - 0
    assert ef.realized_payoff((S, Q, X, A), twp, params) == pytest.approx(
        3.0 + 45.0 + 1.0)


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
    spec = contract(fam, params)
    fee = surfaces[fam].values[0, 50, 75]
    est = ef.expected_payoff_metric(spec, params, cfg,
                                    control=controls[fam], fee=fee)
    truth = _semi_analytic_metric(params, fam)
    # allow Monte-Carlo noise plus a small discretization margin
    assert est.estimate == pytest.approx(truth, abs=3 * est.stderr + 2e-3)


def test_metric_deterministic_for_fixed_seed(params, surfaces, controls):
    cfg = ef.SimConfig(n_paths=3000, seed=77)
    spec = contract("linear_physical", params)
    fee = surfaces["linear_physical"].values[0, 50, 75]
    kw = dict(control=controls["linear_physical"], fee=fee)
    a = ef.expected_payoff_metric(spec, params, cfg, **kw)
    b = ef.expected_payoff_metric(spec, params, cfg, **kw)
    assert (a.estimate, a.stderr, a.ce, a.ce_stderr) == (
        b.estimate, b.stderr, b.ce, b.ce_stderr)


def test_metric_single_path_has_no_stderr(params, surfaces, controls):
    cfg = ef.SimConfig(n_paths=1, seed=2)
    spec = contract("linear_physical", params)
    est = ef.expected_payoff_metric(spec, params, cfg,
                                    control=controls["linear_physical"],
                                    fee=surfaces["linear_physical"].values[0, 50, 75])
    assert est.stderr is None and est.ce_stderr is None
    assert est.arbitrage is False
