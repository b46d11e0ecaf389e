"""The paper's claims, stated as facts of the model at the baseline config.

Claim 1: a cash-settled contract costs more than its physically delivered
twin, in each family.  The linear and TWAP fees have oracles computed
without the PDE, so their ordering is checked against the solver error; the
collar fees have none, so their ordering is checked under grid refinement.

Claim 2: cash-settled and time-average contracts are exposed to
manipulation.  The manipulation channel is the expected-payoff gain of the
impact-aware control v_b (solved at impact b) over the impact-blind v_0
(solved at b = 0), both run from the same fee in the market with impact b.
At mu = r = 0 the linear and TWAP controls do not read the price, so one
zero-noise path per control gives each expected payoff of the Euler scheme
exactly, and the gain is their difference.  The same paths show that a
cash-settled linear or TWAP contract leaves the broker a larger risk premium
at the indifference fee than its physical twin.
"""
import dataclasses

import numpy as np
import pytest
from scipy.optimize import lsq_linear

import execfees as ef

from conftest import cash_unwind_inventory, twap_reduced_ode_value

Q0, S0 = 0.5, 45.0


@pytest.fixture(scope="module")
def fees(surfaces, twap_surfaces):
    """PDE fee at (t=0, S0, q0) of all six families on the baseline grid."""
    every = {**surfaces, **{f"twap_{side}": s for side, s in twap_surfaces.items()}}
    return {fam: surface.value_at(0.0, S0, Q0) for fam, surface in every.items()}


def _oracle_fees(family, params):
    """(physical, cash) fees at (t=0, S0, q0), computed without the PDE."""
    if family == "linear":
        return (ef.fee_physical_closed(0.0, Q0, S0, params),
                ef.fee_trs_closed(0.0, Q0, S0, params))
    return (twap_reduced_ode_value(params, params.N, Q0),
            twap_reduced_ode_value(params, 0.0, Q0))


@pytest.mark.parametrize("family", ["linear", "collar", "twap"])
def test_cash_fee_above_physical_fee(fees, family):
    assert fees[f"{family}_cash"] > fees[f"{family}_physical"]


@pytest.mark.parametrize("family", ["linear", "twap"])
def test_fee_gap_is_far_above_the_solver_error(fees, params, family):
    # baseline: linear 45.0128 > 45.0029, TWAP 0.0110 > 0.0029, each gap
    # more than 30 times the summed error of its two fees
    phys, cash = fees[f"{family}_physical"], fees[f"{family}_cash"]
    oracle_phys, oracle_cash = _oracle_fees(family, params)
    error = abs(phys - oracle_phys) + abs(cash - oracle_cash)
    assert oracle_cash > oracle_phys
    assert cash - phys > 10.0 * error


def test_collar_fee_ordering_holds_on_the_refined_grid(refined_fees):
    assert refined_fees["collar_cash"] > refined_fees["collar_physical"]


S_FREE = ("linear_physical", "linear_cash", "twap_physical", "twap_cash")


def _zero_noise_payoffs(solve_params, market_params, grid, fees=None):
    """Y - x0 of the zero-noise path of each S-free family, under the control
    solved at solve_params and run in market_params, and the fees it starts
    from: the solve's own, or `fees`."""
    specs = [ef.make_contract(fam, solve_params) for fam in S_FREE]
    out = {}
    for fam, spec in zip(S_FREE, specs):
        surface = ef.solve_fee_surface(spec, solve_params, grid)
        fee = surface.value_at(0.0, S0, Q0) if fees is None else fees[fam]
        control = ef.extract_control(surface, solve_params, out=surface.values)
        cfg = ef.SimConfig(n_paths=1, n_steps=grid.n_steps, s0=S0, q0=Q0)
        start = dataclasses.replace(cfg, x0=cfg.x0 - Q0 * S0 + fee)
        path = ef.simulate_path(control, market_params, start,
                                np.zeros((1, grid.n_steps)))
        terminal = (path.S[-1], path.Q[-1], path.X[-1], path.A[-1])
        out[fam] = (float(ef.realized_payoff(terminal, spec, market_params)[0])
                    - cfg.x0, fee)
    return out


# floors on the gain, each below the value measured on the baseline grid
# (written beside it); |gain| of linear_physical is at most 2.0e-6 measured
GAIN_FLOORS = {
    5e-3: {"linear_cash": 1.0e-4,     # measured +1.98e-4
           "twap_physical": 1.0e-4,   # measured +1.88e-4
           "twap_cash": 1.0e-4},      # measured +1.39e-4
    2e-2: {"linear_cash": 8.0e-4,     # measured +1.16e-3
           "twap_physical": 8.0e-4,   # measured +1.69e-3
           "twap_cash": 8.0e-4},      # measured +1.78e-3
}
PHYSICAL_GAIN_BOUND = 1e-5


def test_impact_aware_control_gains_except_linear_physical(params, grid):
    assert params.mu == params.r == 0.0
    blind = dataclasses.replace(params, b=0.0)
    for b, floors in GAIN_FLOORS.items():
        market = dataclasses.replace(params, b=b)
        aware = _zero_noise_payoffs(market, market, grid)
        fees = {fam: fee for fam, (_, fee) in aware.items()}
        naive = _zero_noise_payoffs(blind, market, grid, fees)
        gain = {fam: aware[fam][0] - naive[fam][0] for fam in S_FREE}
        assert abs(gain["linear_physical"]) <= PHYSICAL_GAIN_BOUND, (b, gain)
        for fam, floor in floors.items():
            assert gain[fam] >= floor, (b, fam, gain)


# At mu = r = 0 each S-free contract's zero-noise payoff is its expected
# payoff (the hedge integral has mean 0): the risk premium E[Y] - x0 that
# the indifference fee leaves the broker.  Measured on the baseline grid:
# linear_physical +0.001395, linear_cash +0.005913, twap_physical +0.001428,
# twap_cash +0.005990.  linear_cash and twap_cash are not ranked: their gap
# is inside the discretization spread.
PREMIUM_GAP_FLOORS = {"linear": 3e-3,   # measured +0.004518
                      "twap": 3e-3}     # measured +0.004563
PREMIUM_RANGE = (0.001, 0.008)          # README, "Known discrepancies" item 2


@pytest.fixture(scope="module")
def premia(params, grid):
    """Zero-noise E[Y] - x0 of each S-free family at the baseline."""
    assert params.mu == params.r == 0.0
    return {fam: y for fam, (y, _) in _zero_noise_payoffs(params, params, grid).items()}


def test_cash_premium_above_physical_premium_for_s_free_contracts(premia):
    for family, floor in PREMIUM_GAP_FLOORS.items():
        gap = premia[f"{family}_cash"] - premia[f"{family}_physical"]
        assert gap >= floor, (family, premia)
    lo, hi = PREMIUM_RANGE
    for fam, premium in premia.items():
        assert lo <= premium <= hi, (fam, premia)


# At mu = r = 0 a cash linear contract's expected profit under any strategy is
#   E[Y] - x0 = P - N*s0 - N*b*E[Q_T - q0] + (b/2 - alpha)*E[Q_T^2]
#               - b*q0^2/2 - l*E[int v^2 dt],
# the impact cross-term being a function of Q_T alone.  Dropping the last
# term (<= 0) leaves a quadratic in Q_T, concave as alpha > b/2, whose
# maximum at Q_T = b*N/(b - 2*alpha) bounds every strategy's profit.
CASH_LINEAR_PROFIT_BOUND = 0.01343   # README, "Known discrepancies" item 2


def test_cash_linear_profit_bound_is_the_readme_figure(params, premia):
    assert params.mu == params.r == 0.0
    N, b, alpha = params.N, params.b, params.alpha
    fee = float(ef.fee_trs_closed(0.0, Q0, S0, params))
    q_top = b * N / (b - 2.0 * alpha)
    bound = (fee - N * S0 - N * b * (q_top - Q0) + (b / 2.0 - alpha) * q_top**2
             - b * Q0**2 / 2.0)
    assert bound == pytest.approx(CASH_LINEAR_PROFIT_BOUND, abs=1e-5)
    assert premia["linear_cash"] < bound   # measured +0.005913


# README, "Known discrepancies" item 3: among speed-bounded unwinds the best
# cash one ends at Q(T) ~ 0.0508, below the 0.0523 that the clipped
# closed-form control leaves, and far above the reference's 0.02.
CASH_UNWIND_PROGRAM_QT = 0.0508


def _cash_unwind_program(params, q0, n_steps):
    """Q(T) of the linear cash unwind from q0 that maximises E[Y] - (gamma/2)*Var[Y]
    over n_steps constant speeds v_k in [-C, C] (a deterministic strategy).

    At mu = r = 0 its Q-dependent part is, up to a constant,
        -N*b*Q_T + (b/2 - alpha)*Q_T^2 - l*dt*sum v_k^2
            - (gamma/2)*sigma^2*dt*sum (Q_{k+1} - N)^2,
    concave as alpha > b/2: with the square in Q_T completed it is a
    bound-constrained least-squares problem in v, which bvls solves exactly.
    """
    p = params
    dt = p.T / n_steps
    Q = np.tril(np.full((n_steps, n_steps), dt))   # Q_{k+1} - q0 = (Q @ v)[k]
    risk, end = np.sqrt(p.gamma * p.sigma**2 * dt / 2.0), np.sqrt(p.alpha - p.b / 2.0)
    A = np.vstack([np.sqrt(p.l * dt) * np.eye(n_steps), risk * Q, end * Q[-1:]])
    y = np.concatenate([np.zeros(n_steps), np.full(n_steps, risk * (p.N - q0)),
                        [-end * (q0 + p.N * p.b / (2.0 * end**2))]])
    v = lsq_linear(A, y, bounds=(-p.C, p.C), method="bvls").x
    return q0 + dt * v.sum()


def test_cash_unwind_program_is_the_readme_figure(params):
    assert params.mu == params.r == 0.0
    # Q(T) is first order in the step: 0.051911 at 250 steps, 0.051346 at
    # 500, 0.051064 at 1000, so the extrapolation is the program's
    # continuous-time value, 0.050781 from 250/500 as from 500/1000
    coarse, fine = (_cash_unwind_program(params, Q0, n) for n in (250, 500))
    assert 2.0 * fine - coarse == pytest.approx(CASH_UNWIND_PROGRAM_QT, abs=5e-5)
    assert 2.0 * fine - coarse < cash_unwind_inventory(params, Q0)   # 0.0523
