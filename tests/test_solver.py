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
    kkt_violation,
    lambda_max,
    objective,
    predict_one_step,
    predict_rows,
    standardize,
)
from hydrovarx.errors import CompatibilityError, ContractError, DegenerateFitError
from hydrovarx.solver import _cd_solve, _face_solve, prepare


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
    """Plain numpy-scalar coordinate descent, without the exact active-set step.

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


def _kernel_objective(G, c, penalty, b):
    """Half the penalized RSS the kernel minimizes, up to a constant, and a
    scale for rounding slack."""
    b = np.asarray(b, dtype=float)
    thr = penalty.lam * penalty.alpha / 2.0
    ridge = penalty.lam * (1.0 - penalty.alpha)
    terms = (0.5 * b @ G @ b, -(c @ b), thr * np.abs(b).sum(), 0.5 * ridge * (b @ b))
    return sum(terms), sum(abs(t) for t in terms)


def _kernel_case(q, n_extra, alpha, lam_frac, warm, zero_col, asym, seed):
    """A random centered problem (G, c, diag), a penalty and a start point."""
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
    diag = np.diag(G).copy()
    # lambda from 0 to past lambda_max = 2 max|c| / alpha
    lam = lam_frac * 2.0 * float(np.abs(c).max()) / max(alpha, 0.5)
    if warm == "cold":
        b0 = np.zeros(q)
    else:
        b0 = rng.normal(size=q)
        if warm == "sparse":
            b0[rng.random(q) < 0.5] = 0.0
    return G, c, diag, Penalty(lam, alpha), b0


def _solve(G, c, diag, penalty, b0, max_iter, tol=1e-7):
    return _cd_solve(G, G.T.tolist(), diag.tolist(), c, penalty, b0.copy(),
                     tol, max_iter)


KERNEL_DOMAIN = dict(
    q=st.integers(1, 30), n_extra=st.integers(2, 40),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    lam_frac=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    warm=st.sampled_from(["cold", "warm", "sparse"]),
    zero_col=st.booleans(), asym=st.booleans(),
    seed=st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(**KERNEL_DOMAIN)
def test_cd_kernel_converges_to_reference(**case):
    G, c, diag, penalty, b0 = _kernel_case(**case)
    got, _, ok = _solve(G, c, diag, penalty, b0, 10000)
    got = np.asarray(got)
    assert ok
    # optimality of the kernel's own problem, to the stopping rule's bound
    thr = penalty.lam * penalty.alpha / 2.0
    grad = c - G @ got - penalty.lam * (1.0 - penalty.alpha) * got
    viol = np.where(got != 0.0, np.abs(grad - thr * np.sign(got)),
                    np.maximum(np.abs(grad) - thr, 0.0))
    assert viol.max() <= len(c) * max(1.0, np.abs(G).max()) * 1e-7
    want, _, want_ok = reference_cd_solve(G, c, diag.copy(), penalty, b0.copy(),
                                          1e-13, 10000)
    # plain descent can stall on near-singular lambda = 0 problems; it is an
    # oracle only where it converged
    if want_ok:
        np.testing.assert_array_equal(got != 0.0, want != 0.0)
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


@settings(max_examples=300, deadline=None)
@given(max_iter=st.integers(1, 5), **KERNEL_DOMAIN)
def test_cd_kernel_never_raises_objective(max_iter, **case):
    G, c, diag, penalty, b0 = _kernel_case(**case)
    start, scale = _kernel_objective(G, c, penalty, b0)
    got, sweeps, _ = _solve(G, c, diag, penalty, b0, max_iter)
    end, _ = _kernel_objective(G, c, penalty, got)
    assert sweeps <= max_iter
    assert end <= start + 1e-12 * scale


def test_face_step_rejects_singular_block():
    # two identical columns with alpha = 1: both stay active from this warm
    # start, so the active block is singular and plain sweeps must go on
    z = np.random.default_rng(25).normal(size=40)
    zc = z - z.mean()
    G = np.outer([1.0, 1.0], [1.0, 1.0]) * (zc @ zc)
    c = np.array([1.0, 1.0]) * (zc @ (2.0 * zc))
    penalty = Penalty(4.0, 1.0)
    assert _face_solve(G, c, [0, 1], [1.0, 1.0], 2.0, 0.0) is None
    b, _, ok = _solve(G, c, np.diag(G).copy(), penalty, np.array([0.5, 0.7]),
                      10000)
    assert ok
    # the second copy keeps its start (up to rounding), the first takes the rest
    np.testing.assert_allclose(b, [2.0 - 2.0 / (zc @ zc) - 0.7, 0.7], rtol=1e-12)
    want = reference_cd_solve(G, c, np.diag(G).copy(), penalty,
                              np.array([0.5, 0.7]), 1e-13, 10000)[0]
    np.testing.assert_allclose(b, want, rtol=0, atol=1e-12)


def test_face_step_rejects_sign_change():
    # from b = (0, 5) one sweep lands on signs (-, +), but the face's
    # stationary point (1.2, -0.2) has the opposite signs: reject it
    G = np.array([[1.0, 0.5], [0.5, 1.0]])
    c = np.array([1.0, 0.5])
    penalty = Penalty(0.2, 1.0)
    b0 = np.array([0.0, 5.0])
    assert _face_solve(G, c, [0, 1], [-1.0, 1.0], 0.1, 0.0) is None
    np.testing.assert_allclose(_face_solve(G, c, [0], [1.0], 0.1, 0.0), [0.9])
    one, sweeps, _ = _solve(G, c, np.diag(G).copy(), penalty, b0, 1)
    plain = reference_cd_solve(G, c, np.diag(G).copy(), penalty, b0.copy(),
                               1e-7, 1)[0]
    assert sweeps == 1 and np.asarray(one).tobytes() == plain.tobytes()
    full, _, ok = _solve(G, c, np.diag(G).copy(), penalty, b0, 10000)
    assert ok
    np.testing.assert_allclose(full, [0.9, 0.0], rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 2), p=st.integers(1, 3),
       s=st.integers(0, 2), m=st.integers(1, 3),
       alpha=st.sampled_from([0.0, 0.5, 1.0]), log_lam=st.floats(-2.0, 3.0),
       max_iter=st.sampled_from([3, 10000]))
def test_kkt_certificate_holds_for_converged_fits(seed, k, p, s, m, alpha,
                                                  log_lam, max_iter):
    design = _random_design(seed, n=80, m=m, p=p, s=s, k=k)
    model = fit(design, Penalty(10.0 ** log_lam, alpha), max_iter=max_iter)
    bound = design.q * (design.n_eff - 1) * 1e-7
    if model.converged:
        assert kkt_violation(model, design) <= bound
    # the certificate sees a coefficient pushed off its optimum
    b = model.scaled_coeffs.copy()
    b[0, 0] += 1e-3
    assert kkt_violation(replace(model, scaled_coeffs=b), design) > bound


def test_fit_on_prepared_problem_equals_fit_on_design():
    design = _random_design(26, k=2, m=2)
    for standardize_design in (True, False):
        problem = prepare(design, standardize_design=standardize_design)
        a = fit(problem, Penalty(3.0, 0.5), standardize_design=standardize_design)
        b = fit(design, Penalty(3.0, 0.5), standardize_design=standardize_design)
        assert a.scaled_coeffs.tobytes() == b.scaled_coeffs.tobytes()
        assert a.coeffs.tobytes() == b.coeffs.tobytes()
        assert (a.n_rows, a.n_iter, a.support) == (b.n_rows, b.n_iter, b.support)
        with pytest.raises(ContractError):
            fit(problem, Penalty(3.0, 0.5),
                standardize_design=not standardize_design)


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
    # documents written before stat_rows was dropped still load
    doc = model.to_dict()
    assert "stat_rows" not in doc["scaling"]
    doc["scaling"]["stat_rows"] = [0, model.n_rows]
    assert FittedModel.from_dict(doc).n_rows == model.n_rows


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
