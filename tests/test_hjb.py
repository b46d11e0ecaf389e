import numpy as np
import pytest

import execfees as ef
from execfees.errors import (ConfigError, NonFinite, RequiresZeroRate,
                             SingularTridiagonal)
from execfees.hjb import _sweep, build_banded

from conftest import contract, twap_reduced_ode_value


# ---------------------------------------------------------------------------
# implicit operator

def _interior_bands(ab):
    """(sub, diag, super) of the interior price rows 1..I-1 of build_banded."""
    return ab[2, :-2], ab[1, 1:-1], ab[0, 2:]


def test_implicit_row_baseline_coefficients(params, grid):
    # plug the baseline spacings into the printed coefficients by hand
    ab = build_banded(params, grid)
    sub, diag, sup = _interior_bands(ab)
    off = np.full(grid.I - 1, 25.0 * 1e-3 / (2 * 0.36))
    assert sub == pytest.approx(off, rel=1e-12)
    assert sup == pytest.approx(off, rel=1e-12)
    assert diag == pytest.approx(np.full(grid.I - 1, -(25.0 * 1e-3 / 0.36 + 1.0)),
                                 rel=1e-12)
    assert ab[0, 0] == 0.0 and ab[2, -1] == 0.0   # unused corners of the storage


def test_implicit_row_symmetry_and_copy_limit(grid):
    sub, _, sup = _interior_bands(build_banded(ef.MarketParams(mu=0.0), grid))
    assert np.array_equal(sub, sup)
    p0 = ef.MarketParams(sigma=0.0, mu=0.0, r=0.0)
    sub, diag, sup = _interior_bands(build_banded(p0, grid))
    assert (set(sub), set(diag), set(sup)) == ({0.0}, {-1.0}, {0.0})


def test_boundary_rows_no_drift(params, grid):
    ab = build_banded(params, grid)
    assert (ab[1, 0], ab[0, 1]) == (-1.0, 0.0)    # r = mu = 0: pure copy row at S_min
    assert (ab[2, -2], ab[1, -1]) == (0.0, -1.0)  # and at S_max


# ---------------------------------------------------------------------------
# explicit nonlinear operator

def test_explicit_zero_for_flat_surface(params, grid):
    P = np.full((grid.I + 1, grid.J + 1), 7.0)
    L2 = ef.explicit_nonlinear(P, 0, params, grid)
    j0 = 50   # q = 0 node
    assert L2[:, j0] == pytest.approx(np.zeros(grid.I + 1), abs=1e-14)


def test_explicit_vanishes_at_perfect_hedge_node(params, grid):
    # P = N*S exactly and q = N: risk and Hamiltonian both vanish
    P = params.N * grid.s_nodes()[:, None] + np.zeros((1, grid.J + 1))
    L2 = ef.explicit_nonlinear(P, 0, params, grid)
    jN = 100   # q = 1 = N
    assert L2[5:-5, jN] == pytest.approx(np.zeros(grid.I - 9), abs=1e-12)


def test_explicit_hand_evaluated_node(params, grid, node):
    # independent scalar evaluation at (S=45, q=0.5) on the terminal layer
    i0, j0 = node
    spec = contract("linear_physical", params)
    P = ef.terminal_fee(spec, grid.q_nodes()[None, :], grid.s_nodes()[:, None], params)
    L2 = ef.explicit_nonlinear(P, grid.n_steps - 1, params, grid)

    dS_P = 1.0                      # central difference of the linear leg
    risk = -0.5 * 25.0 * 1e-2 * (0.5 - dS_P) ** 2               # = -0.03125
    dq_P = -0.2                     # one-sided 2nd order on the exact quadratic
    lin = 1e-3 * 0.5 - 1e-3 * dS_P - dq_P                       # = 0.1995
    v_buy = min(lin / (2e-3), 10.0)                             # clamps at C
    ham = -1e-3 * v_buy**2 + lin * v_buy                        # = 1.895
    assert risk + ham == pytest.approx(1.86375, abs=1e-12)
    # the vectorized stencil differences numbers of size ~45, so allow
    # cancellation-level rounding around the exact hand value
    assert L2[i0, j0] == pytest.approx(risk + ham, abs=1e-9)


# ---------------------------------------------------------------------------
# stepping

def test_step_backward_fixed_point():
    p = ef.MarketParams(sigma=0.0, b=0.0)
    g = ef.GridSpec(I=10, J=10, n_steps=4)
    P = np.outer(np.sin(g.s_nodes()), np.ones(g.J + 1))   # flat in q
    P_prev = ef.step_backward(P, 2, p, g)
    assert np.array_equal(P_prev, P)


def test_step_backward_singular_matrix(params, grid):
    P = np.zeros((grid.I + 1, grid.J + 1))
    with pytest.raises(SingularTridiagonal):
        ef.step_backward(P, 0, params, grid, ab=np.zeros((3, grid.I + 1)))


def test_sweep_raises_on_nonfinite(params):
    g = ef.GridSpec(I=8, J=8, n_steps=2)
    P = np.zeros((9, 9))
    P[4, 4] = np.inf
    with pytest.raises(NonFinite):
        _sweep(P, 2, 0, params, g)


def test_explicit_guard_warns_on_coarse_time():
    p = ef.MarketParams(sigma=60.0)
    g = ef.GridSpec(I=20, J=20, n_steps=5)
    with pytest.warns(RuntimeWarning, match="explicit increment"):
        ef.solve_fee_surface(contract("linear_physical", p), p, g)


# ---------------------------------------------------------------------------
# full solves vs the closed-form oracle

def test_pde_matches_closed_forms(params, surfaces, node):
    i0, j0 = node
    for surf in surfaces.values():
        assert np.isfinite(surf.values).all()
    phys = surfaces["linear_physical"].values[0, i0, j0]
    cash = surfaces["linear_cash"].values[0, i0, j0]
    assert phys == pytest.approx(ef.fee_physical_closed(0.0, 0.5, 45.0, params),
                                 abs=1e-3)
    assert cash == pytest.approx(ef.fee_trs_closed(0.0, 0.5, 45.0, params), abs=1e-3)


def test_oracle_equivalence_window(params, grid, surfaces):
    # max |PDE - closed| over S in [30, 60], q in [0, 1] at t = 0
    S = grid.s_nodes(); q = grid.q_nodes()
    ii = (S >= 30.0) & (S <= 60.0)
    jj = (q >= 0.0) & (q <= 1.0)
    Sw = S[ii][:, None]; qw = q[jj][None, :]
    for fam, closed in (("linear_physical", ef.fee_physical_closed),
                        ("linear_cash", ef.fee_trs_closed)):
        pde = surfaces[fam].values[0][np.ix_(ii, jj)]
        assert np.abs(pde - closed(0.0, qw, Sw, params)).max() <= 2e-3


def test_terminal_layer_is_exact(params, grid, surfaces):
    S = grid.s_nodes()[:, None]; q = grid.q_nodes()[None, :]
    for fam, surf in surfaces.items():
        expected = ef.terminal_fee(contract(fam, params), q, S, params)
        assert np.array_equal(surf.values[-1], expected + np.zeros_like(surf.values[-1]))


def test_collar_fees_match_reported_values(surfaces, node):
    i0, j0 = node
    assert surfaces["collar_physical"].values[0, i0, j0] == pytest.approx(45.0042,
                                                                          abs=2e-3)
    assert surfaces["collar_cash"].values[0, i0, j0] == pytest.approx(45.0078,
                                                                      abs=2e-3)


def test_fee_monotone_in_price(surfaces):
    for surf in surfaces.values():
        assert np.diff(surf.values[0], axis=0).min() >= 0.0


def test_offgrid_strike_warns(params):
    g = ef.GridSpec(I=100, J=10, n_steps=5)   # ds=0.6: strikes 40/50 sit off-node
    with pytest.warns(RuntimeWarning, match="strike"):
        ef.solve_fee_surface(contract("collar_cash", params), params, g)


# ---------------------------------------------------------------------------
# control extraction

def test_controls_bounded(controls, params):
    for ctrl in controls.values():
        assert np.abs(ctrl.values).max() <= params.C


def test_control_matches_closed_form(controls, params, node):
    i0, j0 = node
    v_pde = controls["linear_physical"].values[0, i0, j0]
    v_cf = ef.control_closed(0.0, 0.5, ef.Family.LINEAR_PHYSICAL, params)
    assert v_pde == pytest.approx(v_cf, abs=1e-2)
    v_pde = controls["linear_cash"].values[0, i0, j0]
    v_cf = ef.control_closed(0.0, 0.5, ef.Family.LINEAR_CASH, params)
    assert v_pde == pytest.approx(v_cf, abs=1e-2)


def test_control_near_target_and_saturation(controls, params, grid, node):
    i0, _ = node
    jN = grid.J   # q = 1 = N
    assert controls["linear_physical"].values[-1, i0, jN] == pytest.approx(0.0,
                                                                           abs=1e-6)
    # cash contract close to maturity with full inventory sells at the bound
    n95 = int(round(0.95 * grid.n_steps))
    assert controls["linear_cash"].values[n95, i0, jN] == -params.C


# ---------------------------------------------------------------------------
# regulatory switching

def test_regulatory_endpoints_recover_single_contract(params, grid, surfaces, node):
    i0, j0 = node
    for p_val, fam in ((1.0, "linear_physical"), (0.0, "linear_cash")):
        res = ef.solve_regulatory(ef.RegulatorySpec(p=p_val, tau=0.5), params, grid)
        assert res.pre.values[0, i0, j0] == pytest.approx(
            surfaces[fam].values[0, i0, j0], abs=1e-9)


def test_regulatory_tau_validation(params, grid):
    with pytest.raises(ConfigError):
        ef.RegulatorySpec(p=0.5, tau=2.0).snapped_step(params, grid)
    with pytest.raises(ConfigError):
        ef.RegulatorySpec(p=1.5, tau=0.5)
    with pytest.raises(ConfigError, match="regulatory.tau"):
        ef.RegulatorySpec(p=0.5, tau=0.5004).snapped_step(params, grid)
    assert ef.RegulatorySpec(p=0.5, tau=0.5).snapped_step(params, grid) == 500


# ---------------------------------------------------------------------------
# TWAP state reduction

def test_twap_requires_zero_rate(grid):
    with pytest.raises(RequiresZeroRate):
        p = ef.MarketParams(r=0.01)
        ef.solve_fee_surface(contract("twap_physical", p), p, grid)


def test_twap_surface_is_price_independent(twap_surfaces):
    for surf in twap_surfaces.values():
        assert np.abs(np.diff(surf.values[0], axis=0)).max() < 1e-10


def test_twap_terminal_is_liquidation_cost(params, grid, twap_surfaces):
    q = grid.q_nodes()
    for side, target in (("physical", params.N), ("cash", 0.0)):
        expected = params.alpha * (q - target) ** 2
        assert np.array_equal(twap_surfaces[side].values[-1],
                              np.tile(expected, (grid.I + 1, 1)))


def test_twap_matches_reduced_ode_oracle(params, twap_surfaces, node):
    i0, j0 = node
    for side, target in (("physical", params.N), ("cash", 0.0)):
        u0 = twap_surfaces[side].values[0, i0, j0]
        oracle = twap_reduced_ode_value(params, target, 0.5)
        assert u0 == pytest.approx(oracle, abs=5e-4)


def _deterministic_dp_value(params, target, q0, J=500, n_steps=250, n_v=501):
    """Brute-force dynamic program over trading speeds on a (t, q) grid."""
    qg = np.linspace(-1.0, 1.0, J + 1)
    dt = params.T / n_steps
    W = params.alpha * (qg - target) ** 2
    v = np.linspace(-params.C, params.C, n_v)[:, None]
    for _ in range(n_steps):
        foot = np.clip(qg[None, :] + v * dt, -1.0, 1.0)
        W = (params.l * v**2 * dt + np.interp(foot, qg, W)).min(axis=0)
    return float(np.interp(q0, qg, W))


def test_twap_deterministic_limit(grid):
    # sigma -> 0, b -> 0: price risk gone, the reduction is a pure tracking
    # problem with an exact linear-quadratic value
    p0 = ef.MarketParams(sigma=0.0, b=0.0)
    surf = ef.solve_fee_surface(contract("twap_physical", p0), p0, grid)
    u0 = surf.values[0, 50, 75]
    exact = (0.5 - p0.N) ** 2 / (1.0 / p0.alpha + p0.T / p0.l)
    assert u0 == pytest.approx(exact, abs=5e-5)
    dp = _deterministic_dp_value(p0, p0.N, 0.5)
    assert u0 == pytest.approx(dp, abs=1e-4)
