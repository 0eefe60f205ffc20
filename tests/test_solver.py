"""Coordinate-descent solver tests: OLS oracle, brute-force oracle, invariants."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_frame
from hydrovarx import (
    DesignMatrix,
    FittedModel,
    LagSpec,
    Penalty,
    build_design,
    fit,
    lambda_max,
    objective,
    predict_one_step,
    predict_rows,
    standardize,
)
from hydrovarx.errors import CompatibilityError, ContractError, DegenerateFitError
from hydrovarx.solver import _cd_solve


def _random_design(seed, n=60, m=2, p=2, s=1, k=1):
    rng = np.random.default_rng(seed)
    targets = rng.normal(size=(n, k)).cumsum(axis=0) * 0.2 + rng.normal(size=(n, k))
    exog = rng.normal(size=(n, m))
    frame = make_frame(targets, exog)
    return build_design(frame, LagSpec(p=p, s=s))


def _ols_reference(design):
    """Normal-equations OLS with intercept, one column per target."""
    X = np.hstack([np.ones((design.n_eff, 1)), design.Z])
    coef, *_ = np.linalg.lstsq(X, design.Y, rcond=None)
    return coef  # (1 + q, k)


def test_lambda_zero_matches_ols():
    design = _random_design(0)
    model = fit(design, Penalty(0.0, 0.5))
    ref = _ols_reference(design)
    np.testing.assert_allclose(model.nu, ref[0], rtol=1e-7, atol=1e-9)
    np.testing.assert_allclose(model.coeffs[0], ref[1:, 0],
                               rtol=1e-7, atol=1e-9)


def test_lambda_zero_matches_ols_multitarget():
    design = _random_design(1, k=2, m=3)
    model = fit(design, Penalty(0.0, 0.5))
    ref = _ols_reference(design)
    np.testing.assert_allclose(model.nu, ref[0], rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(model.coeffs, ref[1:].T, rtol=1e-6, atol=1e-8)


def _brute_force_1d(z, y, lam, alpha, lo=-3.0, hi=3.0, step=1e-4):
    """Grid-minimize RSS + lam*(alpha|b| + (1-alpha) b^2) over one coefficient.

    The unpenalized intercept is profiled out exactly by centering, so the
    grid search scans the same objective the solver minimizes.
    """
    zc, yc = z - z.mean(), y - y.mean()
    b = np.arange(lo, hi + step, step)
    resid = yc[:, None] - zc[:, None] * b[None, :]
    obj = (resid ** 2).sum(axis=0) + lam * (alpha * np.abs(b)
                                            + (1 - alpha) * b ** 2)
    return b[int(np.argmin(obj))]


def test_single_coefficient_matches_brute_force():
    rng = np.random.default_rng(123)
    for trial in range(6):
        n = 40
        z = rng.normal(size=n)
        y = 1.3 * z + rng.normal(size=n) * 0.5
        dates = np.datetime64("2001-01-01") + np.arange(n)
        design = DesignMatrix(Y=y[:, None], Z=z[:, None], row_dates=dates,
                              col_labels=("x11",), target_names=("Y1",),
                              exog_names=("x1",), p=0, s=1, mode="positional")
        for lam in (1.0, 10.0, 100.0):
            for alpha in (0.0, 0.5, 1.0):
                model = fit(design, Penalty(lam, alpha),
                            standardize_design=False)
                want = _brute_force_1d(z, y, lam, alpha)
                assert abs(model.coeffs[0, 0] - want) < 2e-4, \
                    (trial, lam, alpha)


def _scaled_objective(design, model, penalty):
    """Penalized RSS on the standardized scale the solver minimizes."""
    scaled = standardize(design)[0]
    resid = scaled.Y - model.scaled_intercept - scaled.Z @ model.scaled_coeffs.T
    return float(np.sum(resid * resid)) + penalty.value(model.scaled_coeffs)


def test_objective_history_monotone():
    design = _random_design(7, n=120, m=4, p=3, s=2)
    penalty = Penalty(25.0, 0.5)
    model = fit(design, penalty)
    (sweeps,) = model.n_iter
    assert sweeps >= 2
    # a fit cut off after t sweeps holds the iterate of sweep t
    values = []
    for t in range(1, sweeps + 1):
        cut = fit(design, penalty, max_iter=t)
        assert cut.n_iter == (t,)
        values.append(_scaled_objective(design, cut, penalty))
    np.testing.assert_array_equal(cut.scaled_coeffs, model.scaled_coeffs)
    steps = np.diff(values)
    assert np.all(steps <= 1e-12 * np.abs(values[1:])), steps


def test_objective_is_minimal_at_solution():
    design = _random_design(8, n=80)
    penalty = Penalty(12.0, 0.5)
    model = fit(design, penalty, standardize_design=False)
    best = objective(design, model, penalty)
    eps = 1e-3
    for j in range(design.q):
        for sign in (1.0, -1.0):
            coeffs = model.coeffs.copy()
            coeffs[0, j] += sign * eps
            moved = replace(model, coeffs=coeffs)
            assert best <= objective(design, moved, penalty), (j, sign)
    for sign in (1.0, -1.0):
        moved = replace(model, nu=model.nu + sign * eps)
        assert best <= objective(design, moved, penalty), sign


def reference_cd_solve(G, c, diag, penalty, b, tol, max_iter):
    """Numpy-scalar coordinate descent: the loop the list-based kernel replaced.

    Returns (b, sweeps, converged) with b a numpy array.
    """
    q = len(c)
    thr = penalty.lam * penalty.alpha / 2.0
    den = diag + penalty.lam * (1.0 - penalty.alpha)
    rho = c - G @ b
    sweeps = 0
    converged = False

    def soft(u, t):
        if u > t:
            return u - t
        if u < -t:
            return u + t
        return 0.0

    def sweep(idx) -> float:
        nonlocal rho
        delta = 0.0
        for j in idx:
            old = b[j]
            u = rho[j] + diag[j] * old
            new = soft(u, thr) / den[j] if den[j] > 0 else 0.0
            if new != old:
                rho -= G[:, j] * (new - old)
                b[j] = new
                step = abs(new - old)
                if step > delta:
                    delta = step
        return delta

    all_idx = range(q)
    while sweeps < max_iter:
        delta = sweep(all_idx)
        sweeps += 1
        if delta < tol:
            converged = True
            break
        active = np.flatnonzero(b)
        while sweeps < max_iter and len(active) < q:
            delta = sweep(active)
            sweeps += 1
            if delta < tol:
                break
    return b, sweeps, converged


@settings(max_examples=300, deadline=None)
@given(q=st.integers(1, 30), n_extra=st.integers(2, 40),
       alpha=st.sampled_from([0.0, 0.5, 1.0]),
       lam_frac=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
       warm=st.sampled_from(["cold", "warm", "sparse"]),
       zero_col=st.booleans(), asym=st.booleans(),
       max_iter=st.sampled_from([1, 2, 3, 4, 5, 10000]),
       seed=st.integers(0, 2**32 - 1))
def test_cd_kernel_matches_reference(q, n_extra, alpha, lam_frac, warm, zero_col,
                                     asym, max_iter, seed):
    rng = np.random.default_rng(seed)
    n = q + n_extra
    Z = rng.normal(size=(n, q)) @ rng.normal(size=(q, q)) * 0.5 \
        + rng.normal(size=(n, q))
    if zero_col:
        # a zero-variance column: with alpha = 1 its denominator is 0
        Z[:, rng.integers(q)] = 3.0
        alpha = 1.0
    y = Z @ (rng.normal(size=q) * (rng.random(q) < 0.5)) + rng.normal(size=n)
    Zc = Z - Z.mean(axis=0)
    yc = y - y.mean()
    G = Zc.T @ Zc
    if asym:
        # the kernel must read G's columns, which need not equal its rows
        upper = np.triu_indices(q, 1)
        G[upper] = np.nextafter(G[upper], np.inf)
    c = Zc.T @ yc
    diag = np.diag(G)
    # lambda from 0 to past lambda_max = 2 max|c| / alpha
    lam = lam_frac * 2.0 * float(np.abs(c).max()) / max(alpha, 0.5)
    penalty = Penalty(lam, alpha)
    if warm == "cold":
        b0 = np.zeros(q)
    else:
        b0 = rng.normal(size=q)
        if warm == "sparse":
            b0[rng.random(q) < 0.5] = 0.0

    want_b, want_sweeps, want_ok = reference_cd_solve(
        G, c, diag.copy(), penalty, b0.copy(), 1e-7, max_iter)
    got_b, got_sweeps, got_ok = _cd_solve(G, c, diag, penalty, b0.copy(),
                                          1e-7, max_iter)
    assert np.asarray(got_b, dtype=float).tobytes() == want_b.tobytes()
    assert got_sweeps == want_sweeps
    assert got_ok == want_ok


def test_duplicated_column_coefficients_split_equally():
    # strictly convex for alpha < 1, so duplicate regressors share weight
    rng = np.random.default_rng(9)
    n = 50
    z = rng.normal(size=n)
    y = 2.0 * z + rng.normal(size=n) * 0.3
    dates = np.datetime64("2001-01-01") + np.arange(n)
    Z = np.column_stack([z, z])
    design = DesignMatrix(Y=y[:, None], Z=Z, row_dates=dates,
                          col_labels=("x11", "x21"), target_names=("Y1",),
                          exog_names=("x1", "x2"), p=0, s=1, mode="positional")
    model = fit(design, Penalty(5.0, 0.5), standardize_design=False,
                tol=1e-12)
    np.testing.assert_allclose(model.coeffs[0, 0], model.coeffs[0, 1],
                               atol=1e-8)


def test_column_permutation_equivariance():
    design = _random_design(10, m=3, p=1, s=1)
    model = fit(design, Penalty(8.0, 0.5))
    perm = [2, 0, 3, 1]   # shuffle the q=4 regressors
    design_p = DesignMatrix(
        Y=design.Y, Z=design.Z[:, perm], row_dates=design.row_dates,
        col_labels=tuple(design.col_labels[j] for j in perm),
        target_names=design.target_names, exog_names=design.exog_names,
        p=design.p, s=design.s, mode=design.mode)
    model_p = fit(design_p, Penalty(8.0, 0.5))
    np.testing.assert_allclose(model_p.coeffs[0],
                               model.coeffs[0, perm], atol=1e-8)
    np.testing.assert_allclose(model_p.nu, model.nu, atol=1e-8)


def test_multitarget_equations_are_independent():
    design = _random_design(11, k=2, m=2)
    model = fit(design, Penalty(3.0, 0.5))
    solo = DesignMatrix(Y=design.Y[:, :1], Z=design.Z,
                        row_dates=design.row_dates,
                        col_labels=design.col_labels,
                        target_names=design.target_names[:1],
                        exog_names=design.exog_names,
                        p=design.p, s=design.s, mode=design.mode)
    model_solo = fit(solo, Penalty(3.0, 0.5))
    np.testing.assert_allclose(model.coeffs[0], model_solo.coeffs[0],
                               atol=1e-9)
    np.testing.assert_allclose(model.nu[0], model_solo.nu[0], atol=1e-9)


def test_heavy_penalty_gives_empty_support():
    design = _random_design(12)
    model = fit(design, Penalty(1e9, 0.5))
    assert model.support == ()
    np.testing.assert_allclose(model.coeffs, 0.0)
    # intercept falls back to the target mean
    np.testing.assert_allclose(model.nu, design.Y.mean(axis=0), atol=1e-9)


def test_lambda_max_kills_every_coefficient():
    for seed in range(5):
        design = _random_design(seed, n=80, m=3)
        for alpha in (0.5, 1.0):
            lam_max = lambda_max(design, alpha)
            model = fit(design, Penalty(lam_max * (1 + 1e-9), alpha))
            assert model.support == (), (seed, alpha)
            below = fit(design, Penalty(lam_max * 0.5, alpha))
            assert len(below.support) > 0, (seed, alpha)


def test_support_and_snapping():
    design = _random_design(13)
    model = fit(design, Penalty(50.0, 1.0))
    nonzero = {design.col_labels[j] for j in
               np.flatnonzero(model.coeffs[0])}
    assert set(model.support) == nonzero
    for j in range(design.q):
        b = model.coeffs[0, j]
        assert b == 0.0 or abs(b) > 1e-12


def test_sigma2_definition():
    design = _random_design(14)
    model = fit(design, Penalty(1.0, 0.5))
    resid = design.Y - predict_rows(model, design)
    rss = float((resid ** 2).sum())
    dof = max(1, design.n_eff - len(model.support) - design.k)
    np.testing.assert_allclose(model.sigma2, rss / dof, rtol=1e-10)


def test_predict_one_step_matches_predict_rows():
    frame_vals = np.random.default_rng(15).normal(size=(30, 1))
    exog_vals = np.random.default_rng(16).normal(size=(30, 2))
    frame = make_frame(frame_vals, exog_vals)
    design = build_design(frame, LagSpec(p=2, s=1))
    model = fit(design, Penalty(2.0, 0.5))
    preds = predict_rows(model, design)
    # rebuild the row-4 prediction from raw lag values
    t = 4 + 2   # design row 4 is frame row 6
    lags_y = frame.targets[[t - 1, t - 2]]
    lags_x = exog_vals[[t - 1]]
    one = predict_one_step(model, lags_y, lags_x)
    np.testing.assert_allclose(one, preds[4], atol=1e-12)


def test_predict_rows_rejects_mismatched_design():
    design = _random_design(17, m=2)
    other = _random_design(17, m=3)
    model = fit(design, Penalty(1.0, 0.5))
    with pytest.raises(CompatibilityError):
        predict_rows(model, other)


def test_warm_start_agrees_with_cold_start():
    design = _random_design(18, n=100, m=3)
    cold = fit(design, Penalty(5.0, 0.5))
    hot_source = fit(design, Penalty(50.0, 0.5))
    warm = fit(design, Penalty(5.0, 0.5), warm_start=hot_source.scaled_coeffs)
    np.testing.assert_allclose(warm.coeffs, cold.coeffs, atol=1e-6)


def test_fit_is_deterministic():
    design = _random_design(19)
    a = fit(design, Penalty(3.0, 0.5))
    b = fit(design, Penalty(3.0, 0.5))
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    np.testing.assert_array_equal(a.nu, b.nu)


def test_standardized_and_raw_fits_predict_alike():
    design = _random_design(20)
    raw = fit(design, Penalty(0.0, 0.5), standardize_design=False)
    std = fit(design, Penalty(0.0, 0.5), standardize_design=True)
    np.testing.assert_allclose(predict_rows(raw, design),
                               predict_rows(std, design), atol=1e-7)


def test_model_round_trips_through_dict():
    design = _random_design(21)
    model = fit(design, Penalty(4.0, 0.5))
    back = FittedModel.from_dict(model.to_dict())
    np.testing.assert_array_equal(back.coeffs, model.coeffs)
    np.testing.assert_array_equal(back.nu, model.nu)
    assert back.support == model.support
    assert back.col_labels == model.col_labels
    assert back.n_iter == model.n_iter
    assert back.converged == model.converged
    np.testing.assert_allclose(predict_rows(back, design),
                               predict_rows(model, design), atol=0)


def test_model_round_trips_n_iter_of_every_equation():
    design = _random_design(24, k=2, m=2)
    model = fit(design, Penalty(4.0, 0.5), max_iter=3)
    assert len(model.n_iter) == 2 and not model.converged
    back = FittedModel.from_dict(model.to_dict())
    assert back.n_iter == model.n_iter
    assert back.converged is False
    # documents written before n_iter was stored still load
    doc = model.to_dict()
    del doc["n_iter"]
    assert FittedModel.from_dict(doc).n_iter == ()


def test_model_version_gate():
    design = _random_design(22)
    doc = fit(design, Penalty(4.0, 0.5)).to_dict()
    doc["version"] = 99
    with pytest.raises(CompatibilityError):
        FittedModel.from_dict(doc)


def test_penalty_validation():
    with pytest.raises(ContractError):
        Penalty(-1.0, 0.5)
    with pytest.raises(ContractError):
        Penalty(1.0, 1.5)


def test_fit_needs_two_rows():
    frame = make_frame([1.0, 2.0])
    design = build_design(frame, LagSpec(p=1, s=0))
    with pytest.raises(DegenerateFitError):
        fit(design, Penalty(1.0, 0.5))


def test_phi_beta_views():
    design = _random_design(23, k=2, m=3, p=2, s=1)
    model = fit(design, Penalty(1.0, 0.5))
    assert model.phi.shape == (2, 2, 2)
    assert model.beta.shape == (1, 2, 3)
    # phi[lag][i][j] multiplies target j at that lag in equation i
    np.testing.assert_array_equal(model.phi[0], model.coeffs[:, :2])
    np.testing.assert_array_equal(model.beta[0], model.coeffs[:, 4:7])
