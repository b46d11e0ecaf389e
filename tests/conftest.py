import warnings

import pytest
from hypothesis import HealthCheck, settings

import execfees as ef

settings.register_profile("suite", max_examples=60, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

BASELINE_FAMILIES = ("linear_physical", "linear_cash",
                     "collar_physical", "collar_cash")


def contract(family, params, **kw):
    if ef.Family(family).is_collar:
        kw.setdefault("K1", 40.0)
        kw.setdefault("K2", 50.0)
    return ef.make_contract(family, params, **kw)


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
            out[fam] = ef.solve_fee_surface(contract(fam, params), params, grid)
    return out


@pytest.fixture(scope="session")
def controls(surfaces, params):
    return {fam: ef.extract_control(s, params) for fam, s in surfaces.items()}


@pytest.fixture(scope="session")
def twap_surfaces(params, grid):
    return {side: ef.solve_fee_surface(ef.make_contract(f"twap_{side}", params),
                                       params, grid)
            for side in ("physical", "cash")}
