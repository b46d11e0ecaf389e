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
exactly, and the gain is their difference.
"""
import dataclasses

import numpy as np
import pytest

import execfees as ef

from conftest import twap_reduced_ode_value

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
