"""Coordinate-descent solver tests: OLS oracle, brute-force oracle, invariants."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg.lapack import dposv

from conftest import (
    assert_problem_close,
    close,
    make_frame,
    moment_design,
    reference_objective,
    reference_prepare,
)
import hydrovarx.solver
from hydrovarx import (
    DesignMatrix,
    FittedModel,
    LagSpec,
    Penalty,
    build_design,
    fit,
    kkt_violation,
    predict_rows,
    standardize,
)
from hydrovarx.design import split_lags, stack_lags
from hydrovarx.errors import CompatibilityError, ContractError, DegenerateFitError
from hydrovarx.solver import Gram, _face_step, _finish, prepare, solve


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
    b = model.scaled_coeffs.ravel()
    lam, alpha = penalty.lam, penalty.alpha
    return float(np.sum(resid * resid)) \
        + lam * (alpha * np.abs(b).sum() + (1.0 - alpha) * (b @ b))


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
    best = reference_objective(design, model, penalty)
    eps = 1e-3
    for j in range(design.q):
        for sign in (1.0, -1.0):
            coeffs = model.coeffs.copy()
            coeffs[0, j] += sign * eps
            moved = replace(model, coeffs=coeffs)
            assert best <= reference_objective(design, moved, penalty), (j, sign)
    for sign in (1.0, -1.0):
        moved = replace(model, nu=model.nu + sign * eps)
        assert best <= reference_objective(design, moved, penalty), sign


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


def _copy_columns(rng, Z, scales):
    """Replace about half of Z's columns after the first, in place, by an
    earlier column times one of ``scales``."""
    for j in range(1, Z.shape[1]):
        if rng.random() < 0.5:
            Z[:, j] = Z[:, rng.integers(j)] * rng.choice(scales)


def _kernel_case(q, n_extra, alpha, lam_frac, warm, zero_col, asym, seed,
                 dup=False):
    """A random centered problem (G, c, diag), a penalty and a start point;
    with ``dup``, columns duplicated, negated or rescaled from earlier ones,
    so that a face's block of G can be singular."""
    rng = np.random.default_rng(seed)
    n = q + n_extra
    Z = rng.normal(size=(n, q)) @ rng.normal(size=(q, q)) * 0.5 \
        + rng.normal(size=(n, q))
    if dup:
        _copy_columns(rng, Z, [1.0, -1.0, 3.0, -0.7])
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


def cd_solve(G, c, penalty, b, tol, max_iter):
    """The kernel on one equation, through ``solve``: ``(b, iterations,
    converged, kkt)`` with b a list."""
    (rows, n_iter, ok, kkt), = solve(Gram(G, c[None]), [penalty], tol, max_iter,
                                     [[b.tolist()]])
    return rows[0], n_iter[0], ok, kkt


def _solve(G, c, penalty, b0, max_iter, tol=1e-7):
    return cd_solve(G, c, penalty, b0.copy(), tol, max_iter)[:3]


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
    got, _, ok = _solve(G, c, penalty, b0, 10000)
    got = np.asarray(got)
    assert ok
    # optimality of the kernel's own problem, to the stopping rule's bound
    thr = penalty.lam * penalty.alpha / 2.0
    grad = c - G @ got - penalty.lam * (1.0 - penalty.alpha) * got
    viol = np.where(got != 0.0, np.abs(grad - thr * np.sign(got)),
                    np.maximum(np.abs(grad) - thr, 0.0))
    assert viol.max() <= len(c) * max(1.0, np.abs(G).max()) * 1e-7
    if penalty.alpha > 0.0 and thr >= np.abs(c).max():
        # lambda >= lambda_max: zero is the exact minimizer, while plain
        # descent can stop at rounding-level values at lambda = lambda_max
        want, want_ok = np.zeros_like(got), True
    else:
        want, _, want_ok = reference_cd_solve(G, c, diag.copy(), penalty,
                                              b0.copy(), 1e-13, 10000)
    # plain descent can stall on near-singular lambda = 0 problems; it is an
    # oracle only where it converged
    if want_ok:
        np.testing.assert_array_equal(got != 0.0, want != 0.0)
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


@settings(max_examples=300, deadline=None)
@given(max_iter=st.integers(1, 5), dup=st.booleans(), **KERNEL_DOMAIN)
def test_cd_kernel_never_raises_objective(max_iter, **case):
    G, c, diag, penalty, b0 = _kernel_case(**case)
    start, scale = _kernel_objective(G, c, penalty, b0)
    got, sweeps, _ = _solve(G, c, penalty, b0, max_iter)
    end, _ = _kernel_objective(G, c, penalty, got)
    assert sweeps <= max_iter
    assert end <= start + 1e-12 * scale


@settings(max_examples=300, deadline=None)
@given(max_iter=st.sampled_from([1, 2, 3, 5, 10000]), dup=st.booleans(),
       **KERNEL_DOMAIN)
def test_converged_kernel_solves_are_certified(max_iter, **case):
    G, c, diag, penalty, b0 = _kernel_case(**case)
    got, iters, ok, kkt = cd_solve(G, c, penalty, b0.copy(), 1e-7, max_iter)
    got = np.asarray(got)
    thr = penalty.lam * penalty.alpha / 2.0
    grad = c - G @ got - penalty.lam * (1.0 - penalty.alpha) * got
    viol = np.where(got != 0.0, np.abs(grad - thr * np.sign(got)),
                    np.maximum(np.abs(grad) - thr, 0.0)).max()
    # the reported residual is the returned b's, up to rounding
    scale = np.abs(G).max() * np.abs(got).max() + np.abs(c).max()
    assert abs(kkt - viol) <= 1e-12 * max(1.0, scale)
    assert iters <= max_iter
    # certified within 10000 iterations, singular faces included
    assert ok or max_iter < 10000
    if ok:
        assert viol <= 1e-7 * max(1.0, diag.max())


def test_near_singular_problem_converges_in_few_iterations():
    # a tiny lambda * alpha on a near-singular G: plain descent needs about
    # 14500 sweeps to reach tol 1e-13 here
    G, c, diag, penalty, b0 = _kernel_case(
        q=14, n_extra=2, alpha=1.0, lam_frac=1.4e-45, warm="cold",
        zero_col=False, asym=False, seed=2)
    got, iters, ok = _solve(G, c, penalty, b0, 50)
    assert ok and iters <= 50
    got = np.asarray(got)
    want, _, want_ok = reference_cd_solve(G, c, diag.copy(), penalty, b0.copy(),
                                          1e-13, 20000)
    assert want_ok
    np.testing.assert_array_equal(got != 0.0, want != 0.0)
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


def test_singular_face_moves_along_its_null_direction():
    # two identical columns with alpha = 1, both active from this warm start:
    # the face's block is singular, so b moves along the null direction
    # (1, -1), which keeps b_1 + b_2 and the fit, until b_2 reaches zero.
    # The minimizer is not unique; a coordinate sweep picks another split.
    z = np.random.default_rng(25).normal(size=40)
    zc = z - z.mean()
    G = np.outer([1.0, 1.0], [1.0, 1.0]) * (zc @ zc)
    c = np.array([1.0, 1.0]) * (zc @ (2.0 * zc))
    penalty = Penalty(4.0, 1.0)
    assert dposv(G, c - 2.0)[2] > 0
    b, _, ok = _solve(G, c, penalty, np.array([0.5, 0.7]), 10000)
    assert ok
    assert 0.0 in b
    split = np.array([2.0 - 2.0 / (zc @ zc) - 0.7, 0.7])
    assert abs(sum(b) - split.sum()) <= 1e-12 * split.sum()
    got, scale = _kernel_objective(G, c, penalty, b)
    assert abs(got - _kernel_objective(G, c, penalty, split)[0]) <= 1e-12 * scale


def _degenerate_case(rng):
    """An alpha = 1 problem with about half its columns copied or negated
    from earlier ones, lambda log-uniform in [1e-6, 1] lambda_max, and a
    start at zero or, half the time, at a random sparse point."""
    n, q = rng.integers(8, 41), rng.integers(3, 13)
    Z = rng.normal(size=(n, q))
    _copy_columns(rng, Z, [1.0, -1.0])
    y = Z @ (rng.normal(size=q) * (rng.random(q) < 0.5)) + rng.normal(size=n)
    Zc = Z - Z.mean(axis=0)
    c = Zc.T @ (y - y.mean())
    lam = 2.0 * np.abs(c).max() * 10.0 ** rng.uniform(-6.0, 0.0)
    b0 = np.zeros(q)
    if rng.random() < 0.5:
        b0 = rng.normal(size=q) * (rng.random(q) < 0.5)
    return Zc.T @ Zc, c, Penalty(lam, 1.0), b0


def test_degenerate_faces_are_certified():
    rng = np.random.default_rng(3)
    failed = [i for i in range(1000)
              if not _solve(*_degenerate_case(rng), 10000)[2]]
    assert failed == []


def test_spanned_violator_takes_over_its_face():
    # z_2 = 2 z_1: from face {0}'s optimum, coordinate 1 breaks its
    # condition but is spanned by coordinate 0, so the null move trades
    # b_0 for b_1 at the same fit, and a face step on {1} finishes
    z = np.random.default_rng(7).normal(size=30)
    zc = z - z.mean()
    a = zc @ zc
    G = np.array([[1.0, 2.0], [2.0, 4.0]]) * a
    c0 = 3.0 * a
    c = np.array([c0, 2.0 * c0])
    penalty = Penalty(20.0, 1.0)
    assert dposv(G, c - 10.0)[2] > 0
    b0 = np.array([(c0 - 10.0) / a, 0.0])
    b, iters, ok = _solve(G, c, penalty, b0, 10000)
    assert ok and iters <= 5
    assert b[0] == 0.0
    np.testing.assert_allclose(b[1], (2.0 * c0 - 10.0) / (4.0 * a), rtol=1e-12)


def test_face_step_rejects_sign_change():
    # from b = (0, 5) the first iteration re-solves face {1}, to (0, 0.4);
    # the second adds coordinate 0, but the stationary point of face {0, 1}
    # has b_1 < 0, so the step stops where b_1 reaches zero, at (0.8, 0),
    # and drops it; the third solves face {0}
    G = np.array([[1.0, 0.5], [0.5, 1.0]])
    c = np.array([1.0, 0.5])
    penalty = Penalty(0.2, 1.0)
    b0 = np.array([0.0, 5.0])
    values = [_kernel_objective(G, c, penalty, b0)[0]]
    for max_iter in range(1, 4):
        cut, iters, _ = _solve(G, c, penalty, b0, max_iter)
        assert iters == max_iter
        values.append(_kernel_objective(G, c, penalty, cut)[0])
        if max_iter == 2:
            np.testing.assert_allclose(cut, [0.8, 0.0], rtol=0, atol=1e-12)
            assert cut[1] == 0.0
    assert np.all(np.diff(values) <= 0.0), values
    full, _, ok = _solve(G, c, penalty, b0, 10000)
    assert ok
    np.testing.assert_allclose(full, [0.9, 0.0], rtol=0, atol=1e-12)


def _kkt(G, c, penalty, b):
    """The largest KKT residual of b, recomputed."""
    b = np.asarray(b, dtype=float)
    thr = penalty.lam * penalty.alpha / 2.0
    grad = c - G @ b - penalty.lam * (1.0 - penalty.alpha) * b
    return np.where(b != 0.0, np.abs(grad - thr * np.sign(b)),
                    np.maximum(np.abs(grad) - thr, 0.0)).max()


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_zero_iterations_return_the_warm_start(alpha):
    G, c, _, penalty, b0 = _kernel_case(
        q=8, n_extra=20, alpha=alpha, lam_frac=0.3, warm="sparse",
        zero_col=False, asym=False, seed=11)
    got, iters, ok, kkt = cd_solve(G, c, penalty, b0.copy(), 1e-7, 0)
    assert got == b0.tolist() and iters == 0 and not ok
    assert abs(kkt - _kkt(G, c, penalty, b0)) <= 1e-12 * max(1.0, kkt)


@settings(max_examples=300, deadline=None)
@given(**KERNEL_DOMAIN)
# a start entry on a zero column (H_jj = 0, no ridge), -1.6145 at j = 2,
# used to come back as 0.0
@example(q=5, n_extra=10, alpha=1.0, lam_frac=0.1, warm="warm", zero_col=True,
         asym=False, seed=4)
def test_zero_iterations_return_the_start_to_the_bit(**case):
    G, c, _, penalty, b0 = _kernel_case(**case)
    got, iters, ok, _ = cd_solve(G, c, penalty, b0.copy(), 1e-7, 0)
    assert np.array(got).view(np.int64).tolist() == b0.view(np.int64).tolist()
    assert iters == 0 and not ok


def test_first_warm_iteration_is_the_face_step():
    # from b = (0, 5) the face is {1}: (G_11) x = c_1 - 0.1, so x = 0.4
    G = np.array([[1.0, 0.5], [0.5, 1.0]])
    c = np.array([1.0, 0.5])
    got, iters, ok, _ = cd_solve(G, c, Penalty(0.2, 1.0), np.array([0.0, 5.0]),
                                 1e-7, 1)
    assert got == [0.0, 0.4] and iters == 1 and not ok
    # on a random face, the one iteration is that face's step, bit for bit
    G, c, _, penalty, b0 = _kernel_case(
        q=10, n_extra=30, alpha=0.5, lam_frac=0.2, warm="sparse",
        zero_col=False, asym=False, seed=12)
    thr = penalty.lam * penalty.alpha / 2.0
    H = G + penalty.lam * (1.0 - penalty.alpha) * np.eye(len(c))
    face = [j for j in range(len(c)) if b0[j] != 0.0]
    want = b0.tolist()
    assert _face_step(H, c.tolist(), thr, want, None, face,
                      [float(np.sign(b0[j])) for j in face], [])
    got, iters, ok, _ = cd_solve(G, c, penalty, b0.copy(), 1e-7, 1)
    assert got == want and iters == 1 and not ok


@settings(max_examples=200, deadline=None)
@given(q=st.integers(1, 12), n_extra=st.integers(20, 40),
       alpha=st.sampled_from([0.0, 0.5, 1.0]), lam_frac=st.floats(0.01, 1.5),
       seed=st.integers(0, 2**32 - 1))
def test_resolving_from_a_solution_stays_there(q, n_extra, alpha, lam_frac, seed):
    G, c, _, penalty, b0 = _kernel_case(q, n_extra, alpha, lam_frac, "cold",
                                        False, False, seed)
    first, _, ok, _ = cd_solve(G, c, penalty, b0, 1e-7, 10000)
    assert ok
    again, iters, ok, kkt = cd_solve(G, c, penalty, np.array(first), 1e-7, 10000)
    assert ok and iters <= 2
    assert kkt <= 1e-7 * max(1.0, G.diagonal().max())
    first, again = np.array(first), np.array(again)
    assert np.all(np.abs(again - first) <= 1e-12 * np.maximum(1.0, np.abs(first)))


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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 2), n=st.integers(2, 80),
       flat=st.sampled_from([0.0, 0.5, 1.0]),
       level=st.sampled_from([0.0, 0.3, -41.7]))
def test_prepare_and_standardize_match_the_row_arithmetic(seed, k, n, flat, level):
    # the first column is constant over a share of the rows (all of them,
    # when flat is 1), and a constant column at -41.7 has a mean that rounds
    design = moment_design(seed, n, k, level, int(flat * n))
    for standardize_design in (True, False):
        assert_problem_close(prepare(design, standardize_design=standardize_design),
                             reference_prepare(design, standardize_design),
                             design.Y)
    q = design.q
    scaled, info = standardize(design)
    _, mean, (sd, constant) = reference_prepare(design)
    close(info.z_mean, mean[:q])
    close(info.z_sd, sd)
    close(info.y_mean, mean[q:])
    np.testing.assert_array_equal(info.constant, constant)
    # standardize's scaling is prepare's, and so a fit's, to the bit
    _, mean, (sd, constant) = prepare(design)
    for got, want in ((mean[:q], info.z_mean), (sd, info.z_sd),
                      (mean[q:], info.y_mean), (constant, info.constant)):
        assert got.tobytes() == want.tobytes()
    assert info.constant[0] == (flat == 1.0)
    close(scaled.Z, (design.Z - mean[:q]) / sd, 20.0)
    close(scaled.Y, design.Y - mean[q:], np.abs(design.Y).max())


def _bits(result):
    """One ``solve`` result with its rows as bytes."""
    rows, *rest = result
    return np.array(rows).tobytes(), *rest


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_solve_on_a_grid_is_one_solve_per_penalty(alpha):
    # a grid in one call, chained: the first penalty from zero, each next
    # from the one before, as single solves chained by hand, to the bit
    design = _random_design(27, k=2, m=2)
    gram, _, _ = prepare(design)
    penalties = [Penalty(lam, alpha) for lam in (40.0, 8.0, 1.5, 0.2)]
    chained = solve(gram, penalties)
    assert len(chained) == len(penalties)
    start = None
    for penalty, got in zip(penalties, chained, strict=True):
        want, = solve(gram, [penalty], starts=None if start is None else [start])
        assert _bits(got) == _bits(want)
        start = want[0]
    # a start per penalty, read and never changed
    starts = [rows for rows, *_ in chained][::-1]
    kept = [[list(row) for row in rows] for rows in starts]
    again = solve(gram, penalties[::-1], starts=starts)
    assert starts == kept
    for penalty, start, got in zip(penalties[::-1], kept, again, strict=True):
        want, = solve(gram, [penalty], starts=[start])
        assert _bits(got) == _bits(want)


def test_solve_on_prepared_problem_equals_fit_on_design():
    design = _random_design(26, k=2, m=2)
    for standardize_design in (True, False):
        gram, _, _ = prepare(design, standardize_design=standardize_design)
        (b, n_iter, converged, kkt), = solve(gram, [Penalty(3.0, 0.5)])
        model = fit(design, Penalty(3.0, 0.5),
                    standardize_design=standardize_design)
        assert np.array(b).tobytes() == model.scaled_coeffs.tobytes()
        assert (n_iter, converged) == (model.n_iter, model.converged)
        bound = 1e-7 * max(1.0, gram.G.diagonal().max())
        assert converged and 0.0 <= kkt <= bound


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
    # at b = 0 coordinate j stays zero iff |c_j| <= lambda alpha / 2
    for seed in range(5):
        design = _random_design(seed, n=80, m=3)
        for alpha in (0.5, 1.0):
            lam_max = 2.0 * np.abs(prepare(design)[0].c).max() / alpha
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


def test_predict_rows_rejects_mismatched_design():
    design = _random_design(17, m=2)
    other = _random_design(17, m=3)
    model = fit(design, Penalty(1.0, 0.5))
    with pytest.raises(CompatibilityError):
        predict_rows(model, other)


def test_warm_start_agrees_with_cold_start():
    design = _random_design(18, n=100, m=3)
    penalty = Penalty(5.0, 0.5)
    cold = fit(design, penalty)
    hot_source = fit(design, Penalty(50.0, 0.5))
    gram, mean, scales = prepare(design)
    (b, n_iter, converged, _), = solve(
        gram, [penalty], starts=[hot_source.scaled_coeffs.tolist()])
    warm = _finish(design, mean, scales, penalty, np.array(b), n_iter, converged)
    assert warm.converged
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


#: (k, p, s, m) shapes: the ones with an empty block are s = 0 and m = 0
LAG_SHAPES = [(1, 2, 1, 2), (2, 2, 1, 3), (2, 3, 0, 2), (2, 1, 2, 0), (1, 1, 0, 0)]


@pytest.mark.parametrize("k,p,s,m", LAG_SHAPES)
def test_model_round_trips_through_dict(k, p, s, m):
    design = _random_design(21, k=k, m=m, p=p, s=s)
    model = fit(design, Penalty(4.0, 0.5))
    back = FittedModel.from_dict(model.to_dict())
    assert back.coeffs.shape == (k, p * k + s * m)
    assert back.coeffs.tobytes() == model.coeffs.tobytes()
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


@pytest.mark.parametrize("k,p,s,m", LAG_SHAPES)
@pytest.mark.parametrize("standardize_design", [True, False])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1])
def test_model_document_round_trips_through_json(k, p, s, m, standardize_design, alpha):
    design = _random_design(26, k=k, m=m, p=p, s=s)
    for max_iter in (10000, 3):  # 3 stops some fits unconverged
        model = fit(design, Penalty(4.0, alpha), max_iter=max_iter,
                    standardize_design=standardize_design)
        doc = model.to_dict()
        assert FittedModel.from_dict(json.loads(json.dumps(doc))).to_dict() == doc
    # documents written before lag_mode or n_iter was stored, or with
    # stat_rows, still load
    legacy = [({"lag_mode": None}, doc), ({"n_iter": None}, {**doc, "n_iter": []}),
              ({"scaling": {**doc["scaling"], "stat_rows": [0, model.n_rows]}}, doc)]
    for edit, written in legacy:
        old = {key: value for key, value in {**doc, **edit}.items() if value is not None}
        assert FittedModel.from_dict(old).to_dict() == written


@pytest.mark.parametrize("field,value", [
    ("n_rows", 198.7), ("n_rows", True), ("converged", "no"), ("converged", 1),
    ("p", 2.0), ("p", -1), ("s", False), ("n_iter", [2.5]),
    ("scaling.enabled", "false"), ("alpha", True), ("lambda", "4.0"),
    ("sigma2", "1e3"), ("support", "Y1L1"), ("lag_mode", 5), ("nu", ["1.5"]),
    ("scaling.constant", [0.5, 2]), ("version", True), ("n_rows", -1),
    ("n_iter", [float("inf")]), ("target_names", "Y1"), ("exog_names", [1, 2]),
    ("support", lambda doc: doc["col_labels"]), ("n_rows", "12"), ("n_rows", None),
    ("n_iter", ["3"]), ("scaling.z_sd", [1.0]), ("scaled_intercept", []),
    ("scaling.z_mean", lambda doc: doc["scaling"]["z_mean"][:-1]),
    ("scaled_coeffs", []), ("scaled_coeffs", [1.0, 2.0]),
    ("scaled_coeffs", [[1.0], [1.0, 2.0]])])
def test_model_document_field_of_the_wrong_type_is_refused(field, value):
    # each of these used to load: 198.7 as 198 rows, "no" as converged, a
    # support that is not the coefficients' as the model's support, a z_sd
    # of one entry that divided every column, ...
    doc = fit(_random_design(25), Penalty(4.0, 0.5)).to_dict()
    parent, _, key = field.rpartition(".")
    at = doc[parent] if parent else doc
    at[key] = value(doc) if callable(value) else value
    with pytest.raises(ValueError, match=f"^{field} must be"):
        FittedModel.from_dict(doc)


def _move_first(entries):
    entries[0] += 0.5


@pytest.mark.parametrize("standardize_design,edit,named", [
    (True, lambda doc: doc.update(scaled_coeffs=[[1.0]]), "scaling.z_mean"),
    (True, lambda doc: _move_first(doc["scaled_coeffs"][0]), "nu"),
    (True, lambda doc: _move_first(doc["scaling"]["y_mean"]), "nu"),
    (True, lambda doc: doc["scaling"].update(enabled=False), "nu"),
    (False, lambda doc: _move_first(doc["scaling"]["z_sd"]), "scaling.z_sd")],
    ids=["scaled_coeffs-shape", "scaled_coeffs-moved", "y_mean-moved", "enabled-false",
         "identity-moved"])
def test_model_document_that_is_not_its_scaled_copy_is_refused(standardize_design,
                                                                edit, named):
    # the raw copy, the support and a disabled scaling are read off the
    # scaled copy and its scaling, so the document is refused where it
    # first differs from that model's; each of these used to load
    doc = fit(_random_design(25), Penalty(4.0, 0.5),
              standardize_design=standardize_design).to_dict()
    edit(doc)
    with pytest.raises(ValueError, match=f"^{named} must be"):
        FittedModel.from_dict(doc)


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
    # a bool is no float setting: model.json would store alpha as true
    with pytest.raises(ContractError, match="lambda"):
        Penalty(True, 0.5)
    with pytest.raises(ContractError, match="alpha"):
        Penalty(1.0, True)


def test_fit_needs_two_rows():
    frame = make_frame([1.0, 2.0])
    design = build_design(frame, LagSpec(p=1, s=0))
    with pytest.raises(DegenerateFitError):
        fit(design, Penalty(1.0, 0.5))
    with pytest.raises(DegenerateFitError):
        fit(design.take(slice(0, 0)), Penalty(1.0, 0.5))


@pytest.mark.parametrize("tol,max_iter", [
    (-1.0, 10000), (float("nan"), 10000), (float("inf"), 10000), (0.0, -1),
    (1e-7, 2.5), (1e-7, True), (True, 10000)])
def test_fit_refuses_a_stopping_rule_before_solving(monkeypatch, tol, max_iter):
    def no_solve(*args, **kwargs):
        pytest.fail("fit started a solve")

    # a solve under these settings may never stop, so none may start
    monkeypatch.setattr(hydrovarx.solver, "solve", no_solve)
    design = _random_design(0, n=12)
    with pytest.raises(ContractError):
        fit(design, Penalty(1.0, 0.5), tol=tol, max_iter=max_iter)


@pytest.mark.parametrize("k,p,s,m", LAG_SHAPES)
def test_phi_beta_views(k, p, s, m):
    design = _random_design(23, k=k, m=m, p=p, s=s)
    model = fit(design, Penalty(1.0, 0.5))
    phi, beta = model.phi, model.beta
    assert phi.shape == (p, k, k) and beta.shape == (s, k, m)
    # phi[lag - 1][i, j] multiplies target j at that lag in equation i, and
    # beta[lag - 1][i, j] exogenous column j, as the labels name them
    column = {label: j for j, label in enumerate(model.col_labels)}
    for lag in range(1, p + 1):
        for j in range(k):
            np.testing.assert_array_equal(
                phi[lag - 1][:, j], model.coeffs[:, column[f"Y{j + 1}L{lag}"]])
    for lag in range(1, s + 1):
        for j, name in enumerate(model.exog_names):
            np.testing.assert_array_equal(
                beta[lag - 1][:, j], model.coeffs[:, column[f"{name}{lag}"]])
    # read-only views of the frozen coeffs, which stack back bit for bit
    assert not phi.flags.writeable and not beta.flags.writeable
    back = stack_lags(*split_lags(model.coeffs, p, s, m))
    assert back.shape == model.coeffs.shape
    assert back.tobytes() == model.coeffs.tobytes()
