"""The paper's claims, stated as facts of the model at the baseline config.

Claim 1: a cash-settled contract costs more than its physically delivered
twin, in each family.  The linear and TWAP fees have oracles computed
without the PDE, so their ordering is checked against the solver error; the
collar fees have none, so their ordering is checked under grid refinement.
"""
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
