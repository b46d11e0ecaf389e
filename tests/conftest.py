import warnings

import pytest
from hypothesis import HealthCheck, settings
from scipy.integrate import solve_ivp

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


def cash_unwind_inventory(params, q0):
    """Q*(T) of the zero-noise cash unwind from q0: the inventory ODE
    dQ/dt = v*(t, Q) under the clipped closed-form control."""
    def ode(t, y):
        return [float(ef.control_closed(t, y[0], ef.Family.LINEAR_CASH, params))]
    return solve_ivp(ode, [0.0, params.T], [q0], rtol=1e-10, atol=1e-12).y[0, -1]


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


@pytest.fixture(scope="session")
def refined_fees(params, grid):
    """Fee at (t=0, S0=45, q0=0.5) of all six families on grid.refine(2).

    Each refined surface is dropped once its fee is read: a refined collar
    surface holds 2001 layers of 201x201 nodes, 650 MB.
    """
    fine = grid.refine(2)
    return {fam: ef.solve_fee_surface(contract(fam, params), params, fine)
            .value_at(0.0, 45.0, 0.5)
            for fam in BASELINE_FAMILIES + ("twap_physical", "twap_cash")}
