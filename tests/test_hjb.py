import dataclasses
import os
import pathlib
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs, solve_banded

import execfees as ef
from execfees.errors import (ConfigError, NonFinite, RequiresZeroRate,
                             SingularTridiagonal)
from execfees import hjb
from execfees.simulate import _euler_batch
from execfees.hjb import (_EXTRACT_BLOCK, _interpolate, _layer_position, _sweep,
                          _terminal_layer, build_banded)

from conftest import (BASELINE_FAMILIES, MEMORY_GRID, ONE_SURFACE, S_FREE_FAMILIES,
                      deterministic_optimum, reference_extract_control,
                      traced_memory, twap_ode_coefficients, twap_reduced_ode_value)


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
    spec = ef.make_contract("linear_physical")
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

# the warning of a time step beyond the upwind Hamiltonian's stability bound
CFL = r"exceeds 0\.6\*dq"


def test_step_backward_fixed_point():
    p = ef.MarketParams(sigma=0.0, b=0.0)
    g = ef.GridSpec(I=10, J=10, n_steps=4)
    P = np.outer(np.sin(g.s_nodes()), np.ones(g.J + 1))   # flat in q
    with pytest.warns(RuntimeWarning, match=CFL):
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
    with np.errstate(invalid="ignore"), pytest.warns(RuntimeWarning, match=CFL), \
            pytest.raises(NonFinite):
        _sweep([P], 2, 0, params, g)


def test_stacked_sweep_raises_when_one_member_overflows(params):
    # the first member alone sweeps cleanly; the second overflows in the risk
    # term's square, and the stack stops on it
    g = ef.GridSpec(I=8, J=8, n_steps=2)
    P_T = ef.terminal_fee(ef.make_contract("linear_physical"), g.q_nodes()[None, :],
                          g.s_nodes()[:, None], params) + np.zeros((9, 9))
    with pytest.warns(RuntimeWarning, match="explicit increment"), \
            pytest.warns(RuntimeWarning, match=CFL):
        assert np.isfinite(_sweep([P_T], 2, 0, params, g)[0]).all()
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.warns(RuntimeWarning, match=CFL), pytest.raises(NonFinite):
        _sweep([P_T, 1e200 * P_T], 2, 0, params, g)


def test_explicit_guard_warns_on_coarse_time():
    p = ef.MarketParams(sigma=60.0)
    g = ef.GridSpec(I=20, J=20, n_steps=5)
    with pytest.warns(RuntimeWarning, match=r"explicit increment reached 43\.43 "), \
            pytest.warns(RuntimeWarning, match=CFL):
        ef.solve_fee_surface(ef.make_contract("linear_physical"), p, g)


def test_explicit_guard_of_a_stack_reads_its_worst_member():
    # collar_physical alone reads 40.91 and collar_cash 39.96: the stack's
    # figure is the worst over every step of its second member
    p = ef.MarketParams(sigma=60.0)
    g = ef.GridSpec(I=20, J=20, n_steps=5)
    with pytest.warns(RuntimeWarning, match=r"explicit increment reached 40\.91 "), \
            pytest.warns(RuntimeWarning, match=CFL):
        hjb.solve_fee_surfaces([ef.make_contract("collar_cash"),
                                ef.make_contract("collar_physical")], p, g)


def test_cfl_warning_fires_beyond_its_bound(params):
    P = np.zeros((11, 101))
    g = ef.GridSpec(I=10, n_steps=800)                 # C*dt = 0.625*dq
    with pytest.warns(RuntimeWarning, match=CFL):
        _sweep([P], 2, 0, params, g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _sweep([P], 2, 0, params, ef.GridSpec(I=10))    # C*dt = 0.5*dq


def test_explicit_calls_return_arrays_they_own(params, grid):
    spec = ef.make_contract("linear_cash")
    P_T = ef.terminal_fee(spec, grid.q_nodes()[None, :], grid.s_nodes()[:, None], params)
    P_T = P_T + np.zeros((grid.I + 1, grid.J + 1))
    P_prev = ef.step_backward(P_T, grid.n_steps - 1, params, grid)
    first = ef.explicit_nonlinear(P_T, grid.n_steps - 1, params, grid)
    kept = first.copy()
    second = ef.explicit_nonlinear(P_prev, grid.n_steps - 2, params, grid)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)
    assert not np.array_equal(first, second)


def _reference_sweep(P_T, n_hi, n_lo, p, g, schedule):
    """The backward step written plainly: fresh arrays and scipy's solve_banded."""
    ab = build_banded(p, g)
    dt, ds, dq = g.dt(p.T), g.ds, g.dq
    S, q = g.s_nodes()[:, None], g.q_nodes()[None, :]
    layers, P = [P_T], P_T
    for n in range(n_hi - 1, n_lo - 1, -1):
        t_next = (n + 1) * dt
        DS = np.empty_like(P)
        DS[1:-1] = (P[2:] - P[:-2]) / (2.0 * ds)
        DS[0] = (P[1] - P[0]) / ds
        DS[-1] = (P[-1] - P[-2]) / ds
        Df, Db = np.empty_like(P), np.empty_like(P)
        Df[:, :-2] = (-3.0 * P[:, :-2] + 4.0 * P[:, 1:-1] - P[:, 2:]) / (2.0 * dq)
        Df[:, -2] = Df[:, -1] = (P[:, -1] - P[:, -2]) / dq
        Db[:, 2:] = (3.0 * P[:, 2:] - 4.0 * P[:, 1:-1] + P[:, :-2]) / (2.0 * dq)
        Db[:, 1] = Db[:, 0] = (P[:, 1] - P[:, 0]) / dq
        q_eff = q - schedule * t_next / p.T
        risk = (-0.5 * p.sigma**2 * p.gamma * np.exp(p.r * (p.T - t_next))
                * (q_eff - DS) ** 2)
        lin_f = p.b * q_eff - p.b * DS - Df
        lin_b = p.b * q_eff - p.b * DS - Db
        v_f = np.clip(lin_f / (2.0 * p.l), 0.0, p.C)
        v_b = np.clip(lin_b / (2.0 * p.l), -p.C, 0.0)
        v_f[:, -1] = 0.0
        v_b[:, 0] = 0.0
        L2 = risk + np.maximum(-p.l * v_f**2 + lin_f * v_f, -p.l * v_b**2 + lin_b * v_b)
        src = (p.mu - p.r * S) * q - p.mu * schedule * (n * dt) / p.T
        P = solve_banded((1, 1), ab, -P + dt * L2 + dt * src)
        layers.append(P)
    return np.array(layers[::-1])


# the stacked families, params, the sweep's layers (n_hi, n_lo) on the
# baseline time grid
REFERENCE_SWEEPS = {
    "collar_cash": (("collar_cash",), {}, (50, 0)),              # 101x101 grid
    "linear_cash": (("linear_cash",), {}, (50, 0)),              # 3 price nodes
    "twap_cash": (("twap_cash",), {"mu": 0.05}, (50, 0)),
    "twap_physical_mu0": (("twap_physical",), {}, (50, 0)),  # source fixed in t
    "linear_physical_r": (("linear_physical",), {"r": 0.01}, (50, 0)),
    # a regulatory branch: from T down to tau, so n_lo > 0
    "branch_to_tau": (("linear_physical",), {"mu": 0.05}, (1000, 950)),
    # stacks: schedules 0, 0, N, N with a source that moves in t
    "stack_affine_mu": (("linear_physical", "linear_cash", "twap_physical",
                         "twap_cash"), {"mu": 0.05}, (50, 0)),
    "stack_collars": (("collar_physical", "collar_cash"), {}, (50, 0)),
    "stack_branches": (("linear_physical", "linear_cash"), {"mu": 0.05}, (1000, 950)),
}


@pytest.mark.parametrize("case", list(REFERENCE_SWEEPS))
def test_sweep_equals_reference_step_bitwise(case):
    families, kw, (n_hi, n_lo) = REFERENCE_SWEEPS[case]
    p = ef.MarketParams(**kw)
    solves = [_terminal_layer(ef.make_contract(f), p, ef.GridSpec()) for f in families]
    g = solves[0][0]
    assert all(solved == g for solved, _, _ in solves)
    P_Ts = [P_T for _, P_T, _ in solves]
    schedules = [schedule for _, _, schedule in solves]
    assert schedules == [p.N if ef.Family(f).is_twap else 0.0 for f in families]
    got = _sweep(P_Ts, n_hi, n_lo, p, g, schedules, every_layer=True)
    lowest = _sweep(P_Ts, n_hi, n_lo, p, g, schedules)
    assert len(got) == len(lowest) == len(families)
    for P_T, schedule, layers, layer in zip(P_Ts, schedules, got, lowest):
        assert layers.shape == (n_hi - n_lo + 1, g.I + 1, g.J + 1)
        assert np.array_equal(layers, _reference_sweep(P_T, n_hi, n_lo, p, g, schedule))
        assert layer.shape == (1, g.I + 1, g.J + 1)
        assert np.array_equal(layer, layers[:1])


def _fresh_interpreter(code: str) -> str:
    """Standard output of `code` run by a new Python with src and tests importable."""
    root = pathlib.Path(__file__).resolve().parent.parent
    path = [str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_scipy_linalg_unimported():
    # gtsv comes from scipy's compiled LAPACK extension, not the linalg package
    out = _fresh_interpreter("""
        import sys
        import execfees.cli
        print("scipy.linalg" in sys.modules)
        """)
    assert out.split() == ["False"]


def test_gtsv_is_scipys_routine_in_either_import_order():
    # here scipy.linalg came first (through conftest): the solver reused its module
    assert hjb._dgtsv is get_lapack_funcs(("gtsv",), (np.zeros(3),))[0]
    # the solver first: scipy.linalg then reuses the extension module the solver
    # loaded, and a sweep still equals the solve_banded reference bit for bit
    out = _fresh_interpreter("""
        import numpy as np
        from execfees import hjb
        import scipy.linalg
        import execfees as ef
        from test_hjb import _reference_sweep
        print(scipy.linalg.get_lapack_funcs(("gtsv",), (np.zeros(3),))[0]
              is hjb._dgtsv)
        p = ef.MarketParams()
        g, P_T, schedule = hjb._terminal_layer(ef.make_contract("collar_cash"), p,
                                               ef.GridSpec())
        got, = hjb._sweep([P_T], 50, 0, p, g, [schedule], every_layer=True)
        print(np.array_equal(got, _reference_sweep(P_T, 50, 0, p, g, schedule)))
        """)
    assert out.split() == ["True", "True"]


# ---------------------------------------------------------------------------
# full solves vs the closed-form oracle

def test_pde_matches_closed_forms(params, surfaces):
    for surf in surfaces.values():
        assert np.isfinite(surf.values).all()
    phys = surfaces["linear_physical"].value_at(0.0, 45.0, 0.5)
    cash = surfaces["linear_cash"].value_at(0.0, 45.0, 0.5)
    # the accuracy README states: 7e-6 (physical) and 3e-4 (cash)
    assert phys == pytest.approx(ef.fee_physical_closed(0.0, 0.5, 45.0, params),
                                 abs=1e-5)
    assert cash == pytest.approx(ef.fee_trs_closed(0.0, 0.5, 45.0, params), abs=3e-4)


def test_oracle_equivalence_window(params, grid, surfaces):
    # max |PDE - closed| over the configured grid's nodes with S in [30, 60],
    # q in [0, 1] at t = 0, looked up on the grid each surface was solved on
    S = grid.s_nodes(); q = grid.q_nodes()
    ii = (S >= 30.0) & (S <= 60.0)
    jj = (q >= 0.0) & (q <= 1.0)
    Sw = S[ii][:, None]; qw = q[jj][None, :]
    for fam, closed in (("linear_physical", ef.fee_physical_closed),
                        ("linear_cash", ef.fee_trs_closed)):
        pde = _interpolate(surfaces[fam], 0, Sw, qw)
        assert np.abs(pde - closed(0.0, qw, Sw, params)).max() <= 2e-3


def test_terminal_layer_is_exact(params, surfaces):
    for fam, surf in surfaces.items():
        S = surf.grid.s_nodes()[:, None]; q = surf.grid.q_nodes()[None, :]
        expected = ef.terminal_fee(ef.make_contract(fam), q, S, params)
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
    with pytest.warns(RuntimeWarning, match="strike"), \
            pytest.warns(RuntimeWarning, match="explicit increment"), \
            pytest.warns(RuntimeWarning, match=CFL):
        ef.solve_fee_surface(ef.make_contract("collar_cash"), params, g)


# ---------------------------------------------------------------------------
# control extraction

def test_controls_bounded(controls, params):
    for ctrl in controls.values():
        assert np.abs(ctrl.values).max() <= params.C


def test_control_matches_closed_form(controls, params):
    v_pde = _interpolate(controls["linear_physical"], 0, 45.0, 0.5)
    v_cf = ef.control_closed(0.0, 0.5, ef.Family.LINEAR_PHYSICAL, params)
    assert v_pde == pytest.approx(v_cf, abs=1e-2)
    v_pde = _interpolate(controls["linear_cash"], 0, 45.0, 0.5)
    v_cf = ef.control_closed(0.0, 0.5, ef.Family.LINEAR_CASH, params)
    assert v_pde == pytest.approx(v_cf, abs=1e-2)


@pytest.mark.parametrize("fam", ["collar_cash", "twap_cash", "linear_physical"])
def test_control_written_over_its_surface_equals_fresh_control(params, fam):
    g = ef.GridSpec(I=20, J=20, n_steps=200)
    surface = ef.solve_fee_surface(ef.make_contract(fam), params, g)
    fresh = ef.extract_control(surface, params)
    values = surface.values
    # a fresh control, one row or every row, owns its memory
    assert not np.shares_memory(fresh.values, values)
    in_place = ef.extract_control(surface, params, out=surface.values)
    if fam == "collar_cash":
        assert in_place.values is values
    else:   # an S-free control takes the middle price row of the buffer
        assert fresh.values.shape == (g.n_steps + 1, 1, g.J + 1)
        assert np.shares_memory(in_place.values, values)
        assert np.array_equal(values[:, 1:2], fresh.values)
    assert np.array_equal(in_place.values, fresh.values)
    assert in_place.grid == fresh.grid
    with pytest.raises(ValueError, match="not the surface's"):
        ef.extract_control(surface, params, out=np.empty_like(fresh.values[:, :, 1:]))


def _twap_window(params):
    """Layers 0..74 of a 3-node TWAP surface: a moving schedule and a layer
    count that is no multiple of the extraction block."""
    full = ef.solve_fee_surface(ef.make_contract("twap_cash", params), params,
                                ef.GridSpec(I=40, J=40, n_steps=400))
    assert full.grid.I == 2 and full.schedule == params.N
    window = dataclasses.replace(full, values=full.values[:75].copy())
    assert window.n_layers % _EXTRACT_BLOCK != 0
    return window


def _bits(a):
    return a.view(np.uint64)


@pytest.mark.parametrize("case", ["twap_window", "baseline_collar"])
def test_blocked_control_equals_layer_by_layer_reference(params, surfaces, controls,
                                                         case):
    if case == "twap_window":
        surface = _twap_window(params)
        control = ef.extract_control(surface, params)
    else:   # the session's control of the baseline collar
        surface, control = surfaces["collar_cash"], controls["collar_cash"]
    assert surface.n_layers > _EXTRACT_BLOCK
    expected = reference_extract_control(surface, params)
    if case == "twap_window":   # S-free: the middle price row alone
        expected = expected[:, 1:2]
    assert np.array_equal(_bits(control.values), _bits(expected))


def test_blocked_control_written_over_its_surface_equals_reference(params):
    surface = _twap_window(params)
    expected = reference_extract_control(surface, params)[:, 1:2]
    values = surface.values
    control = ef.extract_control(surface, params, out=surface.values)
    assert np.shares_memory(control.values, values)
    assert np.array_equal(_bits(values[:, 1:2]), _bits(expected))
    assert np.array_equal(_bits(control.values), _bits(expected))


def test_s_free_controls_are_the_middle_row_of_the_full_control(params):
    # at r = 0 the price-affine families keep one price row of the control,
    # the middle node's of their 3-node axis, bit for bit
    g = ef.GridSpec(I=20, J=20, n_steps=200)
    for fam in S_FREE_FAMILIES:
        surface = ef.solve_fee_surface(ef.make_contract(fam, params), params, g)
        control = ef.extract_control(surface, params)
        assert control.values.shape == (g.n_steps + 1, 1, g.J + 1), fam
        expected = reference_extract_control(surface, params)[:, 1:2]
        assert np.array_equal(_bits(control.values), _bits(expected)), fam


def test_controls_off_the_affine_rule_keep_every_price_row():
    # at r != 0 the linear controls read the price, and a collar's always
    # does, even on a configured grid of 3 price nodes
    g = ef.GridSpec(I=20, J=20, n_steps=200)
    p_r = ef.MarketParams(r=0.01)
    for fam in ("linear_physical", "linear_cash"):
        surface = ef.solve_fee_surface(ef.make_contract(fam), p_r, g)
        control = ef.extract_control(surface, p_r)
        assert control.values.shape == (g.n_steps + 1, g.I + 1, g.J + 1), fam
        assert np.array_equal(_bits(control.values),
                              _bits(reference_extract_control(surface, p_r))), fam
    p, g3 = ef.MarketParams(), dataclasses.replace(g, I=2)
    collar = ef.solve_fee_surface(ef.make_contract("collar_cash"), p, g3)
    assert ef.extract_control(collar, p).values.shape == (g.n_steps + 1, 3, g.J + 1)


def test_lookup_refuses_a_stack_of_mixed_layer_shapes():
    # on a configured 3-node price axis a linear control keeps one price row
    # and a collar's all three: one lookup cannot serve both
    p, g3 = ef.MarketParams(), ef.GridSpec(I=2, J=20, n_steps=200)
    stack = [ef.extract_control(ef.solve_fee_surface(ef.make_contract(fam), p, g3), p)
             for fam in ("linear_cash", "collar_cash")]
    with pytest.raises(ValueError) as err:
        _euler_batch(stack, p, [(45.0, 0.5, 0.0)] * 2, np.zeros((1, g3.n_steps)))
    assert "(1, 21)" in str(err.value) and "(3, 21)" in str(err.value), err.value


def test_control_near_target_and_saturation(controls, params, grid):
    # at S = 45 and q = 1 = N, on the last layer (t = T)
    assert _interpolate(controls["linear_physical"], grid.n_steps, 45.0,
                        1.0) == pytest.approx(0.0, abs=1e-6)
    # cash contract close to maturity with full inventory sells at the bound
    k95 = int(round(0.95 * grid.n_steps))
    assert _interpolate(controls["linear_cash"], k95, 45.0, 1.0) == -params.C


# ---------------------------------------------------------------------------
# regulatory switching

def test_regulatory_endpoints_recover_single_contract(params, grid, surfaces):
    res = ef.solve_regulatory(0.5, [1.0, 0.0], params, grid)
    for pre, fam in zip(res, ("linear_physical", "linear_cash")):
        assert pre.value_at(0.0, 45.0, 0.5) == pytest.approx(
            surfaces[fam].value_at(0.0, 45.0, 0.5), abs=1e-9)


def test_regulatory_endpoints_recover_single_contract_far_apart():
    # at gamma = 1000 the branches differ by far more than 745/g at some
    # node: a weight of 0 still drops its branch instead of underflowing
    p, g = ef.MarketParams(gamma=1000.0), ef.GridSpec(I=10, J=10, n_steps=50)
    with pytest.warns(RuntimeWarning, match="explicit increment"), \
            pytest.warns(RuntimeWarning, match=CFL):
        res = ef.solve_regulatory(0.5, [1.0, 0.0], p, g)
    for pre, fam in zip(res, ("linear_physical", "linear_cash")):
        with pytest.warns(RuntimeWarning, match="explicit increment"), \
                pytest.warns(RuntimeWarning, match=CFL):
            alone = ef.solve_fee_surface(ef.make_contract(fam), p, g)
        assert pre.value_at(0.0, 45.0, 0.5) == pytest.approx(
            alone.value_at(0.0, 45.0, 0.5), rel=1e-12), fam


def test_regulatory_branches_serve_every_p_exactly():
    # one call sweeps the branches once for all p; each pre-decision surface
    # is bitwise the surface of a call for that p alone
    g = ef.GridSpec(I=40, J=40, n_steps=400)
    for p in (ef.MarketParams(), ef.MarketParams(r=0.01)):
        p_values = [0.0, 0.2, 0.5, 0.8, 1.0]
        together = ef.solve_regulatory(0.5, p_values, p, g)
        assert len(together) == len(p_values)
        for p_val, pre in zip(p_values, together):
            alone = ef.solve_regulatory(0.5, [p_val], p, g)[0]
            assert np.array_equal(pre.values, alone.values), p_val


def test_regulatory_keeps_one_layer_per_p():
    # r != 0 keeps the configured price axis; the two branches and five
    # pre-decision sweeps are each dropped down to the layer the caller reads
    pre, held, peak = traced_memory(lambda: ef.solve_regulatory(
        0.5, [0.0, 0.2, 0.5, 0.8, 1.0], ef.MarketParams(r=0.01), MEMORY_GRID))
    assert held <= 0.05 * ONE_SURFACE, held / ONE_SURFACE
    assert peak < ONE_SURFACE, peak / ONE_SURFACE
    assert [surface.n_layers for surface in pre] == [1] * 5


def test_fee_only_solve_holds_nothing_sized_by_its_step_count():
    # its kept layer is one per member, and the explicit-increment check keeps
    # one running ratio per member: a record per step would add 8 bytes per
    # step and member, 12.8 KB from 400 to 2000 steps
    def peak(name, n_steps):
        return traced_memory(lambda: hjb.solve_fee_surfaces(
            [ef.make_contract(name)], ef.MarketParams(),
            ef.GridSpec(I=20, J=20, n_steps=n_steps)))[2]

    for name in ("linear_cash", "collar_cash"):
        peak(name, 400)   # the first call's one-off allocations (the strike warning's)
        assert peak(name, 2000) - peak(name, 400) < 4096, name


def test_value_at_reads_only_the_stored_layers():
    # a fee-only surface holds t = 0 alone, so a later t raises instead of
    # returning the t = 0 fee; a stored t reads what the lookup reads there
    p, g = ef.MarketParams(), ef.GridSpec(I=20, J=20, n_steps=200)
    pre = ef.solve_regulatory(0.5, [0.5], p, g)[0]
    assert pre.n_layers == 1
    assert pre.value_at(0.0, 45.0, 0.5) == _interpolate(pre, 0, 45.0, 0.5)
    with pytest.raises(ValueError, match="outside the stored layers"):
        pre.value_at(0.9, 45.0, 0.5)
    full = ef.solve_fee_surface(ef.make_contract("linear_cash"), p, g)
    dt = g.dt(p.T)
    for t in (0.0, 0.3 + 0.25 * dt, p.T, p.T + 1e-12 * dt):   # rounding allowed
        assert full.value_at(t, 45.0, 0.5) == _interpolate(
            full, _layer_position(full, t), 45.0, 0.5), t
    for t in (p.T + 1e-6 * dt, 1.5, -0.1):
        with pytest.raises(ValueError, match="outside the stored layers"):
            full.value_at(t, 45.0, 0.5)


def test_regulatory_tau_validation(params, grid):
    with pytest.raises(ConfigError):
        ef.RegulatorySpec(p=0.5, tau=2.0).snapped_step(params, grid)
    with pytest.raises(ConfigError):
        ef.RegulatorySpec(p=1.5, tau=0.5)
    with pytest.raises(ConfigError, match="regulatory.tau"):
        ef.RegulatorySpec(p=0.5, tau=0.5004).snapped_step(params, grid)
    assert ef.RegulatorySpec(p=0.5, tau=0.5).snapped_step(params, grid) == 500


def test_regulatory_empty_p_list_gives_no_surface_but_checks_tau():
    p, g = ef.MarketParams(), ef.GridSpec(I=10, J=10, n_steps=50)
    assert ef.solve_regulatory(0.5, [], p, g) == []
    with pytest.raises(ConfigError, match="regulatory.tau"):
        ef.solve_regulatory(0.55, [], p, g)


# ---------------------------------------------------------------------------
# TWAP state reduction

def test_twap_requires_zero_rate(grid):
    with pytest.raises(RequiresZeroRate):
        p = ef.MarketParams(r=0.01)
        ef.solve_fee_surface(ef.make_contract("twap_physical"), p, grid)


def test_twap_surface_is_price_independent(twap_surfaces):
    for surf in twap_surfaces.values():
        assert np.abs(np.diff(surf.values[0], axis=0)).max() < 1e-10


def test_twap_terminal_is_liquidation_cost(params, twap_surfaces):
    for side, target in (("physical", params.N), ("cash", 0.0)):
        g = twap_surfaces[side].grid
        expected = params.alpha * (g.q_nodes() - target) ** 2
        assert np.array_equal(twap_surfaces[side].values[-1],
                              np.tile(expected, (g.I + 1, 1)))


def test_twap_matches_reduced_ode_oracle(params, twap_surfaces):
    for side, target in (("physical", params.N), ("cash", 0.0)):
        u0 = twap_surfaces[side].value_at(0.0, 45.0, 0.5)
        oracle = twap_reduced_ode_value(params, target, 0.5)
        assert u0 == pytest.approx(oracle, abs=5e-4)


@pytest.mark.parametrize("t", [0.25, 0.5])
def test_twap_control_matches_reduced_ode_oracle(params, grid, twap_surfaces, t):
    # dU/dS = 0 and dU/dq = c1 + 2*c2*y, so v* = clip((b*y - c1 - 2*c2*y)/(2l), C)
    q = np.linspace(-0.5, 0.9, 15)
    y = q - params.N * t / params.T
    for side, target in (("physical", params.N), ("cash", 0.0)):
        _, c1, c2 = twap_ode_coefficients(params, target, t)
        oracle = np.clip((params.b * y - c1 - 2 * c2 * y) / (2 * params.l),
                         -params.C, params.C)
        ctrl = ef.extract_control(twap_surfaces[side], params)
        got = _interpolate(ctrl, t / grid.dt(params.T), 45.0, q)
        assert np.abs(got - oracle).max() < 1e-2, side


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
    surf = ef.solve_fee_surface(ef.make_contract("twap_physical"), p0, grid)
    u0 = surf.value_at(0.0, 45.0, 0.5)
    exact = (0.5 - p0.N) ** 2 / (1.0 / p0.alpha + p0.T / p0.l)
    assert u0 == pytest.approx(exact, abs=5e-5)
    dp = _deterministic_dp_value(p0, p0.N, 0.5)
    assert u0 == pytest.approx(dp, abs=1e-4)


# b -> tolerance. At b = 0.5 the q_T objective is concave (b > 2(alpha + l/T),
# about 0.40), so the minimum sits on the inventory bound of the grid.
# Measured worst errors: 2.6e-5 (physical) and 1.4e-6 (cash) at b = 1e-3,
# 2.1e-4 for every family at b = 0.5.
DETERMINISTIC_TOL = {1e-3: 1e-4, 0.5: 5e-4}


@pytest.mark.parametrize("b", list(DETERMINISTIC_TOL))
@pytest.mark.parametrize("fam", BASELINE_FAMILIES)
def test_deterministic_limit_matches_oracle(grid, fam, b):
    # sigma = 0: the fee at t = 0 is a minimisation over q_T. Every point is
    # at least two price nodes (1.2) from the strikes 40 and 50, even after
    # the largest impact shift b*(q_T - q) of 0.75, so no kink is sampled.
    params = ef.MarketParams(sigma=0.0, b=b)
    spec = ef.make_contract(fam)
    surf = ef.solve_fee_surface(spec, params, grid)
    for S in (30.0, 45.0, 60.0):
        for q in (-0.5, 0.0, 0.5):
            oracle, _ = deterministic_optimum(spec, params, grid, S, q)
            assert surf.value_at(0.0, S, q) == pytest.approx(
                oracle, abs=DETERMINISTIC_TOL[b]), (S, q)


@pytest.mark.parametrize("fam", BASELINE_FAMILIES)
def test_deterministic_limit_control_matches_oracle(grid, fam):
    # sigma = 0: from (t, S, q) the optimal speed is constant, the one that
    # reaches the oracle's q_T* at T. The extracted control is first order in
    # the grid spacing; measured worst errors 0.034 (physical, at t = 0.5) and
    # 0.0092 (cash), about half as large on grid.refine(). Every point is at
    # least two price nodes (1.2) from the strikes 40 and 50, even after the
    # largest impact shift b*(q_T - q) of 0.0015, so no kink is sampled.
    params = ef.MarketParams(sigma=0.0)
    spec = ef.make_contract(fam)
    surf = ef.solve_fee_surface(spec, params, grid)
    ctrl = ef.extract_control(surf, params, out=surf.values)
    for t in (0.0, 0.5):
        for S in (30.0, 45.0, 60.0):
            for q in (-0.5, 0.0, 0.5):
                _, q_T = deterministic_optimum(spec, params, grid, S, q, t)
                v_star = np.clip((q_T - q) / (params.T - t), -params.C, params.C)
                v = _interpolate(ctrl, _layer_position(ctrl, t), S, q)
                assert v == pytest.approx(v_star, abs=0.05), (t, S, q)


def test_collar_kink_error_falls_with_the_price_step():
    # sigma = 0: at the strikes S = 40 and 50 the fee is read bilinearly
    # across the terminal kink, an error no time step removes. Refining the
    # price axis alone narrows the cell the kink sits in: measured worst
    # errors over both collars and q in {-0.5, 0, 0.5}, 0.1333 at I = 100
    # (ds = 0.6) and 0.0667 at I = 200, a ratio of 0.500
    params = ef.MarketParams(sigma=0.0)
    specs = [ef.make_contract(fam) for fam in ("collar_physical", "collar_cash")]
    worst = []
    for I in (100, 200):
        g = ef.GridSpec(I=I)
        surfaces = hjb.solve_fee_surfaces(specs, params, g)
        worst.append(max(
            abs(surface.value_at(0.0, S, q)
                - deterministic_optimum(spec, params, g, S, q)[0])
            for spec, surface in zip(specs, surfaces)
            for S in (40.0, 50.0) for q in (-0.5, 0.0, 0.5)))
    assert worst[0] == pytest.approx(0.1333, abs=0.01)
    assert worst[1] / worst[0] == pytest.approx(0.5, abs=0.05)


# ---------------------------------------------------------------------------
# price axis: at r = 0 the affine families solve on 3 price nodes

AXIS_GRID = ef.GridSpec(I=40, J=40, n_steps=400)   # (45, 0.5) is node (20, 30)


def _assert_matches_full_axis(coarse, full, params):
    """Fee at (45, 0.5) within 1e-9; control within 1e-6 at every full node."""
    g = AXIS_GRID
    assert coarse.grid == ef.GridSpec(I=2, J=40, n_steps=400)
    assert coarse.value_at(0.0, 45.0, 0.5) == pytest.approx(full.values[0, 20, 30],
                                                             abs=1e-9)
    coarse_ctrl = ef.extract_control(coarse, params)
    full_ctrl = ef.extract_control(full, params)
    S = g.s_nodes()[:, None]; q = g.q_nodes()[None, :]
    for k in range(full.n_layers):
        assert np.abs(_interpolate(coarse_ctrl, k, S, q)
                      - full_ctrl.values[k]).max() <= 1e-6, k


@pytest.mark.parametrize("sigma", [1.0, 5.0])
@pytest.mark.parametrize("mu", [0.0, 0.05])
def test_affine_families_solve_exactly_on_three_price_nodes(sigma, mu):
    p = ef.MarketParams(sigma=sigma, mu=mu)
    g = AXIS_GRID
    S = g.s_nodes()[:, None]; q = g.q_nodes()[None, :]
    zeros = np.zeros((g.I + 1, g.J + 1))
    for fam in ("linear_physical", "linear_cash", "twap_physical", "twap_cash"):
        spec = ef.make_contract(fam)
        schedule = p.N if spec.family.is_twap else 0.0
        P_T = (ef.liquidation_cost(q, spec.target(p.N), p.alpha)
               if spec.family.is_twap else ef.terminal_fee(spec, q, S, p)) + zeros
        full = ef.FeeSurface(grid=g, params=p, contract=spec, schedule=schedule,
                             values=_sweep([P_T], g.n_steps, 0, p, g, [schedule],
                                           every_layer=True)[0])
        _assert_matches_full_axis(ef.solve_fee_surface(spec, p, g), full, p)
    # regulatory mixture at p = 1/2, mixed independently of solve_regulatory on
    # both axes; solve_regulatory keeps only t = 0, so its fee is held to the full
    # axis and the every-layer check runs on the test's own 3-node sweep
    pre = ef.solve_regulatory(0.5, [0.5], p, g)[0]
    full = _mixture_at_half(p, g)
    _assert_matches_full_axis(_mixture_at_half(p, pre.grid), full, p)
    assert pre.n_layers == 1
    assert pre.value_at(0.0, 45.0, 0.5) == pytest.approx(full.values[0, 20, 30],
                                                         abs=1e-9)


def _mixture_at_half(p, g):
    """Pre-decision surface at p = 1/2, tau = 0.5, swept on grid g."""
    n_tau = ef.RegulatorySpec(p=0.5, tau=0.5).snapped_step(p, g)
    S = g.s_nodes()[:, None]; q = g.q_nodes()[None, :]
    zeros = np.zeros((g.I + 1, g.J + 1))
    P1, P0 = (_sweep([ef.terminal_fee(ef.make_contract(fam), q, S, p) + zeros],
                     g.n_steps, n_tau, p, g)[0][0]
              for fam in ("linear_physical", "linear_cash"))
    P_tau = (np.logaddexp(p.gamma * P1, p.gamma * P0) + np.log(0.5)) / p.gamma
    return ef.FeeSurface(grid=g, params=p,
                         values=_sweep([P_tau], n_tau, 0, p, g, every_layer=True)[0])


def test_collars_and_nonzero_rate_keep_the_configured_grid():
    g = ef.GridSpec(I=40, J=10, n_steps=100)
    p = ef.MarketParams()
    p_r = ef.MarketParams(r=0.01)
    for fam in ("collar_physical", "collar_cash"):
        assert ef.solve_fee_surface(ef.make_contract(fam), p, g).grid == g
    for fam in ("linear_physical", "linear_cash"):
        assert ef.solve_fee_surface(ef.make_contract(fam), p_r, g).grid == g
    assert ef.solve_regulatory(0.5, [0.5], p_r, g)[0].grid == g
