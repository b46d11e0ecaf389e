import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import execfees as ef
from execfees.errors import ConfigError


prices = st.floats(min_value=-200.0, max_value=200.0,
                   allow_nan=False, allow_infinity=False)


ALL_CONTRACTS = tuple(ef.make_contract(f) for f in ef.Family)


def test_liquidation_cost_examples():
    assert ef.liquidation_cost(1.0, 1.0, 0.2) == 0.0
    assert ef.liquidation_cost(0.0, 1.0, 0.2) == pytest.approx(0.2)
    assert ef.liquidation_cost(0.5, 0.0, 0.2) == pytest.approx(0.05)


@given(q=st.floats(-5, 5), target=st.sampled_from([0.0, 1.0]),
       alpha=st.floats(0.0, 2.0))
def test_liquidation_cost_properties(q, target, alpha):
    c = ef.liquidation_cost(q, target, alpha)
    assert c >= 0.0
    assert ef.liquidation_cost(target, target, alpha) == 0.0
    # symmetric about the target
    assert c == pytest.approx(ef.liquidation_cost(2 * target - q, target, alpha))


def test_payoff_pi_examples(params):
    lin = ef.make_contract("linear_physical")
    assert ef.payoff_pi(lin, 45.0, 1.0) == 45.0
    col = ef.make_contract("collar_cash")
    assert ef.payoff_pi(col, 45.0, 1.0) == 45.0   # inside the band: Z = S
    assert ef.payoff_pi(col, 55.0, 1.0) == 50.0   # capped at K2
    assert ef.payoff_pi(col, 35.0, 1.0) == 40.0   # floored at K1


@given(s1=prices, s2=prices)
def test_payoff_lipschitz_in_price(s1, s2):
    params = ef.MarketParams()
    for spec in ALL_CONTRACTS:
        d = abs(ef.payoff_pi(spec, s1, params.N) - ef.payoff_pi(spec, s2, params.N))
        assert d <= params.N * abs(s1 - s2) + 1e-12


@given(s1=prices, s2=prices)
def test_collar_monotone_and_flat_outside_band(s1, s2):
    lo, hi = min(s1, s2), max(s1, s2)
    zlo, zhi = ef.collar_per_share(lo, 40.0, 50.0), ef.collar_per_share(hi, 40.0, 50.0)
    assert zlo <= zhi + 1e-12
    if hi <= 40.0 or lo >= 50.0:
        assert zlo == pytest.approx(zhi)


def test_terminal_fee_examples(params):
    phys = ef.make_contract("linear_physical")
    assert ef.terminal_fee(phys, 1.0, 45.0, params) == 45.0
    cash = ef.make_contract("linear_cash")
    assert ef.terminal_fee(cash, 0.5, 45.0, params) == pytest.approx(45.05)
    colp = ef.make_contract("collar_physical")
    assert ef.terminal_fee(colp, 1.0, 55.0, params) == pytest.approx(50.0)


@pytest.mark.parametrize("family", ["twap_physical", "twap_cash"])
def test_twap_terminal_fee_settles_against_the_average(params, family):
    spec = ef.make_contract(family)
    q, S, A = 0.3, 47.0, 44.5
    target = spec.target(params.N)
    assert ef.terminal_fee(spec, q, S, params, A) == pytest.approx(
        params.N * (S - A) + params.alpha * (q - target) ** 2)
    # A omitted is A = S, where the state reduction starts: the fee is L(q)
    qs = np.linspace(-1.0, 1.0, 9)
    assert np.array_equal(ef.terminal_fee(spec, qs, S, params),
                          ef.liquidation_cost(qs, target, params.alpha))


def test_liquidation_targets_follow_family(params):
    for N in (params.N, 0.5):
        assert ef.make_contract("linear_physical").target(N) == N
        assert ef.make_contract("twap_physical").target(N) == N
        assert ef.make_contract("collar_physical").target(N) == N
        assert ef.make_contract("linear_cash").target(N) == 0.0
        assert ef.make_contract("collar_cash").target(N) == 0.0
        assert ef.make_contract("twap_cash").target(N) == 0.0


def test_contract_validation(params):
    with pytest.raises(ConfigError):
        ef.make_contract("collar_cash", params, K1=50.0, K2=40.0)
    with pytest.raises(ConfigError):
        ef.make_contract("collar_cash", params, K1=55.0, K2=None)   # K2 = 50 < K1
    with pytest.raises(ConfigError):
        ef.make_contract("no_such_family", params)


def test_params_validation():
    with pytest.raises(ConfigError):
        ef.MarketParams(sigma=-1.0)
    with pytest.raises(ConfigError):
        ef.MarketParams(l=-1.0)
    with pytest.raises(ConfigError):
        ef.MarketParams(l=0.0)
    with pytest.raises(ConfigError):
        ef.MarketParams(alpha=-0.1)
    # sigma = 0 is the valid deterministic limit; alpha = 0 drops the penalty
    assert ef.MarketParams(sigma=0.0).sigma == 0.0
    assert ef.MarketParams(alpha=0.0).alpha == 0.0


def test_grid_validation():
    with pytest.raises(ConfigError):
        ef.GridSpec(s_min=75.0, s_max=15.0)
    with pytest.raises(ConfigError):
        ef.GridSpec(I=1)
    with pytest.raises(ConfigError):
        ef.GridSpec(n_steps=0)
    g = ef.GridSpec()
    assert g.ds == pytest.approx(0.6)
    assert g.dq == pytest.approx(0.02)
    assert g.dt(1.0) == pytest.approx(1e-3)
    assert np.all(np.diff(g.s_nodes()) > 0)
