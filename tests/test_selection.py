"""Lambda selection by rolling validation MSFE and order selection by BIC."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_frame
from hydrovarx import (
    LagSpec,
    LambdaPath,
    ModelSpec,
    Penalty,
    SplitPlan,
    bic,
    build_design,
    default_grid,
    fit,
    predict_rows,
    select_lambda,
    select_order,
)
from hydrovarx.errors import ContractError, InsufficientDataError
from hydrovarx.selection import check_grid
from hydrovarx.simulate import SynthSpec, simulate


def _design(seed=0, n=90, m=2, p=2, s=1):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n).cumsum() * 0.1 + rng.normal(size=n)
    frame = make_frame(y, rng.normal(size=(n, m)))
    return build_design(frame, LagSpec(p=p, s=s))


def test_split_plan_thirds():
    split = SplitPlan(9)
    assert (split.T1, split.T2) == (3, 6)
    assert split.train == slice(0, 3)
    assert split.validate == slice(3, 6)
    assert split.test == slice(6, 9)


def test_split_plan_uneven():
    split = SplitPlan(100)
    assert (split.T1, split.T2) == (33, 66)
    split = SplitPlan(101)
    assert (split.T1, split.T2) == (33, 67)


def test_split_plan_too_short():
    with pytest.raises(InsufficientDataError):
        SplitPlan(2)


def test_default_grid_endpoints():
    grid = default_grid()
    assert grid.size == 24
    np.testing.assert_allclose(grid[0], 10.0)
    np.testing.assert_allclose(grid[-1], 500.0)
    # log spacing: constant ratio
    ratios = grid[1:] / grid[:-1]
    np.testing.assert_allclose(ratios, ratios[0])


def test_msfe_matches_independent_recomputation():
    design = _design(1)
    split = SplitPlan(design.n_eff)
    grid = np.geomspace(0.5, 80.0, 6)
    path = select_lambda(design, split, ModelSpec(alpha=0.5, grid=grid))
    n_val = split.T2 - split.T1
    train = design.take(split.train)
    val = design.take(split.validate)
    for gi, lam in enumerate(grid):
        model = fit(train, Penalty(float(lam), 0.5))
        sse = 0.0
        for v in range(n_val):   # one-step-at-a-time, a separate code path
            pred = predict_rows(model, val.take(slice(v, v + 1)))[0]
            err = pred - val.Y[v]
            sse += float(err @ err)
        np.testing.assert_allclose(path.msfe[gi], sse / (n_val - 1),
                                   atol=1e-10)
    assert path.chosen_index == int(np.argmin(path.msfe[::-1]) * -1
                                    + grid.size - 1)


def test_chosen_lambda_is_msfe_minimizer():
    design = _design(2)
    path = select_lambda(design, SplitPlan(design.n_eff),
                         ModelSpec(grid=np.geomspace(0.1, 100, 10)))
    assert path.msfe[path.chosen_index] == path.msfe.min()
    np.testing.assert_allclose(path.chosen_lambda, path.grid[path.chosen_index])


def test_tie_prefers_larger_lambda():
    # absurdly large penalties zero out every coefficient, so both grid
    # points predict the train mean and the MSFE ties exactly
    design = _design(3)
    path = select_lambda(design, SplitPlan(design.n_eff),
                         ModelSpec(grid=np.array([1e8, 1e9])))
    np.testing.assert_allclose(path.msfe[0], path.msfe[1], rtol=1e-12)
    assert path.chosen_index == 1
    assert path.chosen_lambda == 1e9


def test_singleton_grid():
    design = _design(4)
    path = select_lambda(design, SplitPlan(design.n_eff),
                         ModelSpec(grid=np.array([5.0])))
    assert path.chosen_lambda == 5.0
    assert path.msfe.shape == (1,)


def test_expanding_refit_runs_and_scores_every_lambda():
    design = _design(5, n=60)
    split = SplitPlan(design.n_eff)
    grid = np.geomspace(1.0, 50.0, 4)
    fixed = select_lambda(design, split, ModelSpec(grid=grid, refit="fixed"))
    expanding = select_lambda(design, split, ModelSpec(
        grid=grid, refit="expanding", refit_every=5))
    assert np.all(np.isfinite(expanding.msfe))
    # expanding windows see more data, so the curves genuinely differ
    assert not np.allclose(fixed.msfe, expanding.msfe)


def test_expanding_refit_every_one_uses_all_history():
    # with refit_every=1 the last validation prediction trains on all rows
    # before it; verify one prediction by direct refit
    design = _design(6, n=45)
    split = SplitPlan(design.n_eff)
    grid = np.array([2.0])
    path = select_lambda(design, split, ModelSpec(grid=grid, refit="expanding",
                                                  refit_every=1))
    n_val = split.T2 - split.T1
    sse = 0.0
    for v in range(n_val):
        window = design.take(slice(0, split.T1 + v))
        model = fit(window, Penalty(2.0, 0.5))
        row = design.take(slice(split.T1 + v, split.T1 + v + 1))
        err = predict_rows(model, row)[0] - row.Y[0]
        sse += float(err @ err)
    np.testing.assert_allclose(path.msfe[0], sse / (n_val - 1), atol=1e-10)


def reference_select_lambda(design, split, alpha, grid, refit, refit_every,
                            standardize_design):
    """MSFE per lambda from one fit per (lambda, window): the loop that
    select_lambda's one-pass-per-window form replaced."""
    n_val = split.T2 - split.T1
    val = design.take(split.validate)
    train = design.take(split.train)
    msfe = np.empty(grid.size)
    warm = None
    for gi in range(grid.size - 1, -1, -1):
        penalty = Penalty(float(grid[gi]), alpha)
        if refit == "fixed":
            model = fit(train, penalty, standardize_design=standardize_design,
                        warm_start=warm)
            warm = model.scaled_coeffs
            err = predict_rows(model, val) - val.Y
            sse = float(np.sum(err * err))
        else:
            sse = 0.0
            model = None
            for v in range(n_val):
                if v % refit_every == 0:
                    window = design.take(slice(0, split.T1 + v))
                    model = fit(window, penalty,
                                standardize_design=standardize_design,
                                warm_start=warm if v == 0 else model.scaled_coeffs)
                    if v == 0:
                        warm = model.scaled_coeffs
                row = design.take(slice(split.T1 + v, split.T1 + v + 1))
                err = predict_rows(model, row)[0] - row.Y[0]
                sse += float(err @ err)
        msfe[gi] = sse / (n_val - 1)
    return msfe, int(grid.size - 1 - np.argmin(msfe[::-1]))


@pytest.mark.parametrize("refit,refit_every",
                         [("fixed", 1), ("expanding", 1), ("expanding", 3)])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("standardize_design", [True, False])
def test_select_lambda_matches_per_window_reference(refit, refit_every, k,
                                                    standardize_design):
    rng = np.random.default_rng(30 + k)
    n = 75
    y = rng.normal(size=(n, k)).cumsum(axis=0) * 0.1 + rng.normal(size=(n, k))
    design = build_design(make_frame(y, rng.normal(size=(n, 2))),
                          LagSpec(p=2, s=1))
    split = SplitPlan(design.n_eff)
    grid = np.geomspace(0.5, 80.0, 5)
    path = select_lambda(design, split, ModelSpec(
        alpha=0.5, grid=grid, refit=refit, refit_every=refit_every,
        standardize=standardize_design))
    msfe, chosen = reference_select_lambda(design, split, 0.5, grid, refit,
                                           refit_every, standardize_design)
    assert path.msfe.tobytes() == msfe.tobytes()
    assert path.chosen_index == chosen


def test_grid_must_increase():
    with pytest.raises(ContractError):
        ModelSpec(grid=np.array([10.0, 5.0]))


@pytest.mark.parametrize("grid", [[], [[1.0, 2.0]], [-1.0, 1.0],
                                  [1.0, math.nan], [1.0, math.inf], [2.0, 2.0]])
def test_one_grid_check_for_selection_and_path(grid):
    with pytest.raises(ContractError):
        check_grid(grid)
    with pytest.raises(ContractError):
        ModelSpec(grid=grid)
    with pytest.raises(ContractError):
        LambdaPath(grid, np.ones(np.shape(grid)), 0)


def test_split_design_mismatch():
    design = _design(9)
    with pytest.raises(ContractError):
        select_lambda(design, SplitPlan(design.n_eff + 5))


# -- BIC ----------------------------------------------------------------------

def test_bic_matches_direct_formula():
    design = _design(10)
    model = fit(design, Penalty(0.0, 0.5))
    resid = design.Y - predict_rows(model, design)
    rss = float((resid ** 2).sum())
    n = design.n_eff
    k_params = len(model.support) + 1
    want = n * math.log(rss / n) + k_params * math.log(n)
    np.testing.assert_allclose(bic(design, model), want, rtol=1e-12)


def test_bic_penalizes_extra_parameters():
    # same fit evaluated with a denser support must score worse than a
    # sparser model with comparable residuals
    design = _design(11, n=200)
    loose = fit(design, Penalty(0.0, 0.5))
    sparse = fit(design, Penalty(60.0, 1.0))
    if len(sparse.support) < len(loose.support):
        resid_l = design.Y - predict_rows(loose, design)
        resid_s = design.Y - predict_rows(sparse, design)
        rss_l = float((resid_l ** 2).sum())
        rss_s = float((resid_s ** 2).sum())
        n = design.n_eff
        # verify the parameter-count term dominates when RSS barely moves
        delta_fit = n * (math.log(rss_s / n) - math.log(rss_l / n))
        delta_pen = (len(loose.support) - len(sparse.support)) * math.log(n)
        assert bic(design, loose) - bic(design, sparse) == pytest.approx(
            delta_pen - delta_fit, rel=1e-10)


def test_bic_rejects_zero_rss():
    frame = make_frame(np.arange(1.0, 13.0))   # exactly linear in its lag
    design = build_design(frame, LagSpec(p=1, s=0))
    model = fit(design, Penalty(0.0, 0.5))
    from hydrovarx.errors import DegenerateFitError
    with pytest.raises(DegenerateFitError):
        bic(design, model)


def test_bic_insufficient_rows():
    design = _design(12, n=30)
    model = fit(design, Penalty(0.0, 0.5))
    tiny = design.take(slice(0, len(model.support) + 1))
    with pytest.raises(InsufficientDataError):
        bic(tiny, model)


# -- order scan ---------------------------------------------------------------

def test_select_order_recovers_ar2_with_exog():
    spec = SynthSpec(n=700, phi=np.array([0.5, 0.3]),
                     beta=np.array([[[0.9]], [[0.0]]]),
                     noise_sd=0.15, seed=42)
    frame, _ = simulate(spec)
    scan = select_order(frame, [1, 2, 3], [0, 1, 2],
                        ModelSpec(grid=np.geomspace(0.01, 5.0, 8)))
    assert scan.chosen == (2, 1)


def test_select_order_candidates_and_rows():
    frame, _ = simulate(SynthSpec(n=150, phi=np.array([0.6]), seed=3))
    scan = select_order(frame, [1, 2], [0],
                        ModelSpec(grid=np.geomspace(0.1, 10, 5)))
    assert scan.candidates == ((1, 0), (2, 0))
    assert np.all(np.isfinite(scan.bic))
    assert len(scan.lambdas) == 2
    assert scan.chosen in scan.candidates


def test_select_order_prefers_small_on_white_noise():
    frame, _ = simulate(SynthSpec(n=400, phi=np.array([0.0]),
                                  noise_sd=1.0, seed=9))
    scan = select_order(frame, [1, 2, 3, 4], [0],
                        ModelSpec(grid=np.geomspace(0.5, 50, 6)))
    assert scan.chosen_p <= 2


def test_select_order_scores_a_candidate_under_its_spec():
    # one candidate, scored by hand with every setting taken from the spec;
    # the dates skip a day every 10 rows, so the lag mode matters
    frame, _ = simulate(SynthSpec(n=150, phi=np.array([0.5]),
                                  beta=np.array([[[0.8]]]), noise_sd=0.3, seed=5))
    frame = replace(frame, dates=frame.dates + np.arange(frame.n) // 10)
    spec = ModelSpec(alpha=0.8, grid=np.geomspace(0.5, 50.0, 5),
                     lag_mode="positional", refit="expanding", refit_every=4,
                     standardize=False, tol=1e-6, max_iter=50)
    scan = select_order(frame, [2], [1], spec)
    design = build_design(frame, LagSpec(2, 1, "positional"))
    split = SplitPlan(design.n_eff)
    path = select_lambda(design, split, spec)
    train = design.take(split.train)
    model = fit(train, Penalty(path.chosen_lambda, 0.8), standardize_design=False,
                tol=1e-6, max_iter=50)
    assert scan.lambdas.tolist() == [path.chosen_lambda]
    assert scan.bic.tolist() == [bic(train, model)]


def test_select_order_validates_ranges():
    frame, _ = simulate(SynthSpec(n=60, phi=np.array([0.5]), seed=1))
    with pytest.raises(ContractError):
        select_order(frame, [], [0])
    with pytest.raises(ContractError):
        select_order(frame, [0], [0])   # p must stay >= 1


def test_lambda_path_at_edge():
    grid = np.array([1.0, 2.0, 4.0])
    msfe = np.array([3.0, 2.0, 1.0])
    assert [LambdaPath(grid, msfe, i).at_edge for i in range(3)] \
        == [True, False, True]
    assert grid.flags.writeable  # the path froze its own copy, not ours
    # a one-value grid fixes lambda: there is no edge to report
    assert not LambdaPath(grid[:1], msfe[:1], 0).at_edge
