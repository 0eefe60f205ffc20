"""Lambda selection by rolling validation MSFE and order selection by BIC."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    assert_problem_close,
    close,
    make_frame,
    moment_design,
    reference_prepare,
)
import hydrovarx.selection
import hydrovarx.solver
from hydrovarx import (
    DesignMatrix,
    LagSpec,
    LambdaPath,
    ModelSpec,
    Penalty,
    ScalingInfo,
    SplitPlan,
    bic,
    build_design,
    default_grid,
    fit,
    predict_rows,
    run_pipeline,
    select_lambda,
    select_order,
)
from hydrovarx.design import _comoments
from hydrovarx.errors import (
    ContractError,
    DegenerateFitError,
    HydroVarxError,
    InsufficientDataError,
)
from hydrovarx.selection import (
    _cut,
    _lambda_path,
    _window_blocks,
    check_grid,
)
from hydrovarx.simulate import SynthSpec, simulate
from hydrovarx.solver import (
    Gram,
    _finish,
    _moment_gram,
    kkt_violation,
    prepare,
    solve,
)


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


@pytest.mark.parametrize("refit", ["fixed", "expanding"])
def test_lambda_path_refuses_a_one_row_training_window(refit):
    # five usable rows split 1 / 2 / 2: the validation third is long enough
    # to score, but no problem can be fit on the single training row
    design = _design(n=7, m=0, p=2, s=0)
    split = SplitPlan(design.n_eff)
    assert (design.n_eff, split.T1, split.T2) == (5, 1, 3)
    with pytest.raises(DegenerateFitError, match="cannot fit on 1 rows"):
        select_lambda(design, split, ModelSpec(refit=refit))
    with pytest.raises(InsufficientDataError):
        select_lambda(design.take(slice(0, 4)), SplitPlan(4), ModelSpec())


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

    def fit_from(start, window, penalty):
        gram, mean, scales = prepare(window, standardize_design=standardize_design)
        (b, n_iter, converged, _), = solve(
            gram, [penalty], starts=None if start is None else [start.tolist()])
        return _finish(window, mean, scales, penalty, np.array(b), n_iter,
                       converged)

    for gi in range(grid.size - 1, -1, -1):
        penalty = Penalty(float(grid[gi]), alpha)
        if refit == "fixed":
            model = fit_from(warm, train, penalty)
            warm = model.scaled_coeffs
            err = predict_rows(model, val) - val.Y
            sse = float(np.sum(err * err))
        else:
            sse = 0.0
            model = None
            for v in range(n_val):
                if v % refit_every == 0:
                    window = design.take(slice(0, split.T1 + v))
                    model = fit_from(warm if v == 0 else model.scaled_coeffs,
                                     window, penalty)
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
    np.testing.assert_allclose(path.msfe, msfe, rtol=1e-12, atol=0)
    assert path.chosen_index == chosen


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 2),
       n=st.integers(40, 90),
       exponents=st.sets(st.integers(-20, 60), min_size=1, max_size=4),
       refit=st.sampled_from([("fixed", 1), ("expanding", 1),
                              ("expanding", 2), ("expanding", 3)]),
       standardize_design=st.booleans())
def test_select_lambda_matches_reference_on_random_problems(
        seed, k, n, exponents, refit, standardize_design):
    grid = 10.0 ** (np.array(sorted(exponents)) / 20.0)  # 0.1 to 1000
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(n, k)).cumsum(axis=0) * 0.1 + rng.normal(size=(n, k))
    design = build_design(make_frame(y, rng.normal(size=(n, 2))),
                          LagSpec(p=2, s=1))
    split = SplitPlan(design.n_eff)
    path = select_lambda(design, split, ModelSpec(
        grid=grid, refit=refit[0], refit_every=refit[1],
        standardize=standardize_design))
    msfe, chosen = reference_select_lambda(design, split, 0.5, grid, *refit,
                                           standardize_design)
    np.testing.assert_allclose(path.msfe, msfe, rtol=1e-12, atol=0)
    assert path.chosen_index == chosen


def reference_merge(n, mean, M, X):
    """``(mean, M)`` of n rows, with the rows of X folded in one window at a
    time, by the pairwise update of Chan, Golub & LeVeque (1983): the loop
    that the stacked blocks replaced. With n = 0 it is X's own."""
    n_x = len(X)
    if n_x == 1:
        d = X[0] - mean
        w = 1 / (n + 1)
        return mean + d * w, M + np.outer(d, d * (n * w))
    mean_x, M_x = _comoments(X)
    d = mean_x - mean
    w = n_x / (n + n_x)
    return mean + d * w, M + M_x + np.outer(d, d * (n * w))


def test_one_row_comoments_are_the_row_and_exact_zeros():
    # _window_blocks takes a one-row window's row as its mean and adds no
    # co-moments for it: that is _comoments' figures to the bit in running
    # sums that start from +0.0, since they read the row's -0.0 as +0.0 and
    # its co-moments are +0.0
    X = np.array([[[1.5, -0.0, 1e-310, -2e300]], [[0.0, 3.0, -7.25, 1e-20]]])
    mean, M = _comoments(X)
    assert mean.tobytes() == (X[:, 0] + 0.0).tobytes()
    assert M.shape == (2, 4, 4)
    assert M.tobytes() == np.zeros((2, 4, 4)).tobytes()


def _unstacked(blocks):
    """Every window of ``_window_blocks``' blocks: ``(start, G, c, mean,
    scales, rows)``."""
    return [(int(start), G[t], c[t], mean[t],
             None if scales is None else (scales[0][t], scales[1][t]), rows[t])
            for starts, (G, c), mean, scales, rows in blocks
            for t, start in enumerate(starts)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 2), n=st.integers(12, 80),
       refit_every=st.sampled_from([1, 2, 3, 7]), standardize=st.booleans(),
       level=st.sampled_from([0.0, 0.3, -41.7]), one_per_block=st.booleans())
def test_expanding_windows_match_prepare(seed, k, n, refit_every, standardize,
                                         level, one_per_block):
    split = SplitPlan(n)
    # the first column is constant over the first window and a few rows
    # beyond, then varies
    design = moment_design(seed, n, k, level, split.T1 + 2)
    q = design.q
    spec = ModelSpec(refit="expanding", refit_every=refit_every,
                     standardize=standardize)
    with pytest.MonkeyPatch.context() as mp:
        if one_per_block:
            mp.setattr(hydrovarx.selection, "BLOCK_BYTES", 0)
        blocks = list(_window_blocks(design, split, spec, 1))
    windows = _unstacked(blocks)
    starts = list(range(split.T1, split.T2, refit_every))
    assert [start for start, *_ in windows] == starts
    if one_per_block:
        assert len(blocks) == len(starts)
    # the running co-moments, merged one window at a time
    X = np.hstack([design.Z, design.Y])
    n_rows, mean, M = 0, 0.0, 0.0
    for start, G, c, got_mean, got_scales, rows in windows:
        mean, M = reference_merge(n_rows, mean, M, X[n_rows:start])
        n_rows = start
        # every window's problem has the running means and scales, equal to
        # the plain row arithmetic's on its rows to rounding
        train = design.take(slice(0, start))
        assert_problem_close((Gram(G, c), got_mean, got_scales),
                             reference_prepare(train, standardize), train.Y)
        # and, stacked, it is the one-window reading of the running moments
        # to the bit
        assert got_mean.tobytes() == mean.tobytes()
        (want_G, want_c), _, want_scales = _moment_gram(start, mean, M, q,
                                                        standardize)
        assert G.tobytes() == want_G.tobytes()
        assert c.tobytes() == want_c.tobytes()
        if standardize:
            sd, constant = want_scales
            assert got_scales[0].tobytes() == sd.tobytes()
            assert got_scales[1].tobytes() == constant.tobytes()
        else:
            assert got_scales is None
        # the scoring rows: the window's rows less its means, Z's columns
        # divided by its sds
        scaled = X[start:min(start + refit_every, split.T2)] - mean
        if standardize:
            scaled[:, :q] /= sd
        assert rows.shape == scaled.shape
        assert rows.tobytes() == scaled.tobytes()
    # the first window's problem is prepare's on its rows to the bit, and
    # fixed refit is that one window
    fixed, = _unstacked(_window_blocks(design, split,
                                       replace(spec, refit="fixed"), 1))
    assert fixed[0] == split.T1 and len(fixed[-1]) == split.T2 - split.T1
    (G, c), want_mean, want_scales = prepare(design.take(split.train),
                                             standardize_design=standardize)
    assert (want_scales is not None) == standardize
    for _, got_G, got_c, got_mean, got_scales, _ in (fixed, windows[0]):
        got = [got_G, got_c, got_mean, *(got_scales or ())]
        want = [G, c, want_mean, *(want_scales or ())]
        assert len(got) == len(want) == (5 if standardize else 3)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        if standardize:
            assert got_scales[1][0]  # the first column is constant there


def _path_bits(result):
    """The bytes of everything ``_lambda_path`` returns."""
    paths, mean, scales, X0 = result
    return ([(path.grid.tobytes(), path.msfe.tobytes(), path.chosen_index,
              path.solves, path.iterations, path.nonconverged, path.kkt_max)
             for path in paths],
            mean.tobytes(), scales and [a.tobytes() for a in scales],
            X0.tobytes())


@pytest.mark.parametrize("refit,refit_every", [("fixed", 1), ("expanding", 1),
                                               ("expanding", 3)])
@pytest.mark.parametrize("standardize", [True, False])
def test_block_budget_changes_no_bit(refit, refit_every, standardize):
    # one window per block against the default budget: the same paths,
    # counters and train fits, to the bit, for every cut of an order scan
    rng = np.random.default_rng(33)
    n = 150
    y = rng.normal(size=(n, 2)).cumsum(axis=0) * 0.1 + rng.normal(size=(n, 2))
    design = build_design(make_frame(y, rng.normal(size=(n, 2))), LagSpec(3, 2))
    split = SplitPlan(design.n_eff)
    cuts = [np.arange(design.q)] + [np.r_[0:p * 2, 6:6 + s * 2]
                                    for p in (1, 3) for s in (0, 2)]
    spec = ModelSpec(grid=np.geomspace(0.5, 80.0, 5), refit=refit,
                     refit_every=refit_every, standardize=standardize)
    blocks = []
    window_blocks = hydrovarx.selection._window_blocks

    def spy(*args):
        for block in window_blocks(*args):
            blocks.append(len(block[0]))
            yield block

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hydrovarx.selection, "_window_blocks", spy)
        wide = _lambda_path(design, split, spec, cuts)
        shared, blocks = blocks, []
        mp.setattr(hydrovarx.selection, "BLOCK_BYTES", 0)
        single = _lambda_path(design, split, spec, cuts)
    windows = len(range(split.T1, split.T2,
                        refit_every if refit == "expanding" else n))
    assert sum(shared) == len(blocks) == windows
    # the first window is a block of its own; later ones share blocks
    assert shared[0] == 1 and (windows == 1 or max(shared) > 1)
    assert _path_bits(wide) == _path_bits(single)


def test_lambda_path_memory_does_not_grow_with_the_windows():
    # an expanding order scan of 24 candidates over n = 3000 rows, at 50 and
    # at 200 windows: its blocks hold a bounded number of windows, so one
    # bound that counts no window holds both (all 200 windows at once would
    # hold about 8 MB)
    import tracemalloc

    rng = np.random.default_rng(5)
    n = 3000
    y = rng.normal(size=(n, 1)).cumsum(axis=0) * 0.1 + rng.normal(size=(n, 1))
    design = build_design(make_frame(y, rng.normal(size=(n, 3))), LagSpec(6, 3))
    split = SplitPlan(design.n_eff)
    cuts = [np.r_[0:p, 6:6 + s * 3] for p in range(1, 7) for s in range(4)]
    peaks = []
    for refit_every in (20, 5):
        spec = ModelSpec(grid=(10.0, 100.0), refit="expanding",
                         refit_every=refit_every)
        tracemalloc.start()
        try:
            _lambda_path(design, split, spec, cuts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # two blocks of 1 MiB (the one being formed, and the one last solved),
    # and the first window's rows: three copies of T1 rows of [Z | Y]
    bound = 2 * 2**20 + 3 * 8 * split.T1 * (design.q + design.k)
    assert max(peaks) <= bound, peaks


@pytest.mark.parametrize("refit,refit_every", [("fixed", 1), ("expanding", 1),
                                               ("expanding", 4)])
def test_lambda_path_counts_its_solves(refit, refit_every):
    design = _design(7, n=60)
    split = SplitPlan(design.n_eff)
    # light penalties: no solve is at its optimum after a single iteration
    grid = np.geomspace(0.1, 2.0, 3)
    spec = ModelSpec(grid=grid, refit=refit, refit_every=refit_every)
    path = select_lambda(design, split, spec)
    n_val = split.T2 - split.T1
    windows = 1 if refit == "fixed" else -(-n_val // refit_every)
    assert path.solves == grid.size * windows
    assert path.iterations >= path.solves  # one equation, at least one each
    assert path.nonconverged == 0
    assert select_lambda(design, split, ModelSpec(
        refit=refit, refit_every=refit_every)).nonconverged == 0
    capped = select_lambda(design, split, replace(spec, max_iter=1))
    assert capped.solves == path.solves
    assert capped.iterations == capped.solves
    assert capped.nonconverged == capped.solves


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


def test_select_order_breaks_rounding_ties_by_order(monkeypatch):
    # (2, 1), the last candidate, undercuts every other one by a
    # rounding-sized gap only
    def fake_bics(Z, Y, mean, scales, B):
        assert B.shape[1] == 4
        return np.array([100.0, 100.0, 100.0, 100.0 * (1 - 1e-14)])

    monkeypatch.setattr(hydrovarx.selection, "_order_bics", fake_bics)
    frame, _ = simulate(SynthSpec(n=150, phi=np.array([0.6]),
                                  beta=np.array([[[0.5]]]), seed=3))
    scan = select_order(frame, [1, 2], [0, 1],
                        ModelSpec(grid=np.geomspace(0.1, 10, 5)))
    assert scan.bic[scan.candidates.index((2, 1))] < 100.0
    assert scan.chosen == (1, 0)


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
    # the scan's train model is the path's warm solve, not this cold refit
    want = bic(train, model)
    assert abs(scan.bic[0] - want) <= 1e-9 * max(1.0, abs(want))


def reference_select_order(frame, p_range, s_range, spec):
    """The scan one candidate at a time, as select_order ran before it cut
    every candidate from the widest design: the candidate's own
    build_design, its rows aligned to the widest one's with isin, and a
    cold train fit at the chosen lambda. Per candidate: (design, lambda,
    BIC, train model, train design)."""
    p_range, s_range = sorted(set(p_range)), sorted(set(s_range))
    common = build_design(frame, LagSpec(p_range[-1], s_range[-1],
                                         spec.lag_mode)).row_dates
    split = SplitPlan(len(common))
    out = []
    for p in p_range:
        for s in s_range:
            d = build_design(frame, LagSpec(p, s, spec.lag_mode))
            d = d.take(np.isin(d.row_dates, common))
            assert np.array_equal(d.row_dates, common)
            lam = select_lambda(d, split, spec).chosen_lambda
            train = d.take(split.train)
            model = fit(train, Penalty(lam, spec.alpha),
                        standardize_design=spec.standardize, tol=spec.tol,
                        max_iter=spec.max_iter)
            out.append((d, lam, bic(train, model), model, train))
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 2), m=st.integers(0, 2),
       n=st.integers(60, 120), gap_rate=st.sampled_from([0.0, 0.05, 0.15]),
       p_range=st.sets(st.integers(1, 3), min_size=1, max_size=3),
       s_range=st.sets(st.integers(0, 2), min_size=1, max_size=3),
       lag_mode=st.sampled_from(["calendar", "positional"]),
       refit=st.sampled_from([("fixed", 1), ("expanding", 1), ("expanding", 4)]),
       standardize_design=st.booleans())
def test_select_order_matches_per_candidate_reference(
        seed, k, m, n, gap_rate, p_range, s_range, lag_mode, refit,
        standardize_design):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(n, k)).cumsum(axis=0) * 0.1 + rng.normal(size=(n, k))
    frame = make_frame(y, rng.normal(size=(n, m)))
    # skip a day after some rows, so calendar and positional lags differ
    gaps = np.concatenate([[0], np.cumsum(rng.random(n - 1) < gap_rate)])
    frame = replace(frame, dates=frame.dates + gaps)
    spec = ModelSpec(grid=np.geomspace(0.5, 80.0, 5), lag_mode=lag_mode,
                     refit=refit[0], refit_every=refit[1],
                     standardize=standardize_design)
    try:
        want = reference_select_order(frame, p_range, s_range, spec)
    except HydroVarxError as exc:  # too few rows: both scans refuse alike
        with pytest.raises(type(exc)):
            select_order(frame, p_range, s_range, spec)
        return

    seen = []  # the scan's one lambda-path pass: its arguments and result

    def spy(design, split, spec, cuts):
        result = _lambda_path(design, split, spec, cuts)
        seen.append((design, split, cuts, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hydrovarx.selection, "_lambda_path", spy)
        scan = select_order(frame, p_range, s_range, spec)
    (wide, split, cuts, (paths, mean, scales, X0)), = seen
    _, (G, c), *_ = next(_window_blocks(wide, split, spec, 1))
    assert scan.lambdas.tolist() == [lam for _, lam, *_ in want]
    for ci, ((d, _, ref_bic, ref_model, ref_train), got_bic, idx, path) \
            in enumerate(zip(want, scan.bic, cuts, paths, strict=True)):
        # the cut is the candidate's own design, and its problem is prepare's
        # on the candidate's training rows
        assert wide.Z[:, idx].tobytes() == d.Z.tobytes()
        for name in ("Y", "row_dates"):
            assert getattr(wide, name).tobytes() == getattr(d, name).tobytes()
        own, _, _ = prepare(d.take(split.train),
                            standardize_design=standardize_design)
        for got, want in zip(_cut(G[0], c[0], idx), own, strict=True):
            close(got, want)
        # the train solutions are zero outside the candidate's columns
        b = X0[:, ci, path.chosen_index].T
        assert not np.delete(b, idx, axis=1).any()
        if abs(got_bic - ref_bic) <= 1e-9 * max(1.0, abs(ref_bic)):
            continue
        # a BIC outside the bound is a different support, and each train
        # model must then be optimal on its own; mapping it back needs the
        # first window's means and scales, cut here to the candidate's
        # columns (the path keeps no per-solve counts: the model gets none)
        cut_mean = np.concatenate([mean[:wide.q][idx], mean[wide.q:]])
        cut_scales = None if scales is None else (scales[0][idx], scales[1][idx])
        train = d.take(split.train)
        model = _finish(train, cut_mean, cut_scales,
                        Penalty(path.chosen_lambda, spec.alpha), b[:, idx],
                        (), True)
        assert model.support != ref_model.support
        bound = train.q * (train.n_eff - 1) * spec.tol
        assert kkt_violation(model, train) <= bound
        assert kkt_violation(ref_model, ref_train) <= bound


@pytest.mark.parametrize("refit", ["fixed", "expanding"])
def test_order_scan_prepares_nothing_and_cuts_no_designs(monkeypatch, refit):
    frame, _ = simulate(SynthSpec(n=150, phi=np.array([0.6]),
                                  beta=np.array([[[0.8]]]), seed=3))
    calls = {"prepare": 0, "design": 0, "take": 0, "scaling": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hydrovarx.solver, "prepare",
                        counted("prepare", hydrovarx.solver.prepare))
    monkeypatch.setattr(ScalingInfo, "__post_init__",
                        counted("scaling", ScalingInfo.__post_init__))
    monkeypatch.setattr(DesignMatrix, "__post_init__",
                        counted("design", DesignMatrix.__post_init__))
    monkeypatch.setattr(DesignMatrix, "take", counted("take", DesignMatrix.take))
    scan = select_order(frame, [1, 2, 3], [0, 1, 2], ModelSpec(
        grid=np.geomspace(0.1, 10.0, 3), refit=refit, refit_every=5))
    assert len(scan.candidates) == 9
    # the widest design alone: no design's rows are taken or prepared, and
    # no window makes a ScalingInfo
    assert calls == {"prepare": 0, "design": 1, "take": 0, "scaling": 0}
    split = SplitPlan(frame.n - 3)
    windows = 1 if refit == "fixed" else -(-(split.T2 - split.T1) // 5)
    assert scan.solves == 9 * 3 * windows


def test_expanding_run_scales_once_per_path_and_never_per_window(monkeypatch):
    frame, _ = simulate(SynthSpec(n=150, phi=np.array([0.6]),
                                  beta=np.array([[[0.8]]]), seed=3))
    made = []
    init = ScalingInfo.__post_init__

    def counted(self):
        made.append(self)
        init(self)

    per_block = []  # the ScalingInfo made while each block was formed
    windows = []  # and the windows of each block
    blocks = hydrovarx.selection._window_blocks

    def spy(*args):
        before = len(made)
        for block in blocks(*args):
            per_block.append(len(made) - before)
            windows.append(len(block[0]))
            yield block
            before = len(made)

    monkeypatch.setattr(ScalingInfo, "__post_init__", counted)
    monkeypatch.setattr(hydrovarx.selection, "_window_blocks", spy)
    report = run_pipeline(frame, ModelSpec(grid=np.geomspace(0.1, 10.0, 3),
                                           refit="expanding", refit_every=2))
    split = report.split
    assert per_block == [0] * len(windows)
    assert sum(windows) == len(range(split.T1, split.T2, 2)) > 10
    # the final fit's prepare alone
    assert len(made) == 1


def test_expanding_order_scan_paths_match_each_candidates_own():
    # every candidate's path through the lean windows' column cuts, against
    # select_lambda on the candidate's own design over the scan's rows
    rng = np.random.default_rng(23)
    n = 120
    y = rng.normal(size=(n, 2)).cumsum(axis=0) * 0.1 + rng.normal(size=(n, 2))
    frame = make_frame(y, rng.normal(size=(n, 2)))
    spec = ModelSpec(grid=np.geomspace(0.5, 80.0, 5), refit="expanding",
                     refit_every=3, standardize=False)
    seen = []

    def spy(*args):
        seen.append(_lambda_path(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hydrovarx.selection, "_lambda_path", spy)
        scan = select_order(frame, [1, 2, 3], [0, 1, 2], spec)
    (paths, *_), = seen
    common = build_design(frame, LagSpec(3, 2)).row_dates
    split = SplitPlan(len(common))
    for (p, s), lam, path in zip(scan.candidates, scan.lambdas, paths,
                                 strict=True):
        own = build_design(frame, LagSpec(p, s))
        own = own.take(np.isin(own.row_dates, common))
        want = select_lambda(own, split, spec)
        np.testing.assert_allclose(path.msfe, want.msfe, rtol=1e-12, atol=0)
        assert lam == want.chosen_lambda


@pytest.mark.parametrize("refit", ["fixed", "expanding"])
def test_near_exact_fits_score_like_the_reference(refit):
    # errors this small sit far below the data's scale; a Gram form of the
    # squared errors (yy - 2 b'v + b'Vb) would lose them to cancellation
    truth = SynthSpec(n=150, phi=np.array([0.6]), beta=np.array([[[0.8]]]),
                      noise_sd=1e-6, seed=3)
    design = build_design(simulate(truth)[0], LagSpec(2, 1))
    split = SplitPlan(design.n_eff)
    grid = np.geomspace(1e-6, 1e-2, 5)
    path = select_lambda(design, split, ModelSpec(grid=grid, refit=refit,
                                                  refit_every=4))
    msfe, chosen = reference_select_lambda(design, split, 0.5, grid, refit, 4,
                                           True)
    np.testing.assert_allclose(path.msfe, msfe, rtol=1e-8, atol=0)
    assert path.chosen_index == chosen
    # at noise_sd 1e-6 the train RSS is at rounding scale and bic refuses
    # it; at 1e-4, with a stronger and more persistent signal, the scan's
    # BICs must still match the reference's
    frame = simulate(replace(truth, phi=np.array([0.9]), beta=np.array([[[4.0]]]),
                             noise_sd=1e-4))[0]
    spec = ModelSpec(grid=np.geomspace(1e-4, 1.0, 5), refit=refit,
                     refit_every=4)
    scan = select_order(frame, [1, 2], [0, 1], spec)
    want = reference_select_order(frame, [1, 2], [0, 1], spec)
    assert scan.lambdas.tolist() == [lam for _, lam, *_ in want]
    for got, (_, _, ref_bic, *_) in zip(scan.bic, want, strict=True):
        assert abs(got - ref_bic) <= 1e-9 * max(1.0, abs(ref_bic))


def test_order_scan_counts_its_solves():
    frame, _ = simulate(SynthSpec(n=150, phi=np.array([0.6]),
                                  beta=np.array([[[0.8]]]), seed=3))
    # light penalties: no solve is at its optimum after a single iteration
    spec = ModelSpec(grid=np.geomspace(0.1, 2.0, 3))
    scan = select_order(frame, [1, 2], [0, 1], spec)
    paths = [select_lambda(d, SplitPlan(d.n_eff), spec)
             for d, *_ in reference_select_order(frame, [1, 2], [0, 1], spec)]
    assert scan.solves == sum(path.solves for path in paths) == 4 * 3
    assert scan.iterations == sum(path.iterations for path in paths)
    assert scan.nonconverged == 0
    capped = select_order(frame, [1, 2], [0, 1], replace(spec, max_iter=1))
    assert capped.solves == capped.iterations == capped.nonconverged == scan.solves


@pytest.mark.parametrize("refit", ["fixed", "expanding"])
def test_paths_and_scans_report_their_kkt_residual(refit):
    frame, _ = simulate(SynthSpec(n=150, phi=np.array([0.6]),
                                  beta=np.array([[[0.8]]]), seed=3))
    spec = ModelSpec(grid=np.geomspace(0.1, 2.0, 3), refit=refit, refit_every=5)
    scan = select_order(frame, [1, 2], [0, 1], spec)
    designs = [d for d, *_ in reference_select_order(frame, [1, 2], [0, 1], spec)]
    paths = [select_lambda(d, SplitPlan(d.n_eff), spec) for d in designs]
    assert scan.nonconverged == 0
    assert scan.kkt_max == max(path.kkt_max for path in paths) > 0.0
    # every window's certificate bound is at most the widest window's
    split = SplitPlan(designs[-1].n_eff)
    rows = split.T1 if refit == "fixed" else split.T2
    G = prepare(designs[-1].take(slice(0, rows)))[0].G
    assert scan.kkt_max <= spec.tol * max(1.0, G.diagonal().max())


def test_select_order_validates_ranges():
    frame, _ = simulate(SynthSpec(n=60, phi=np.array([0.5]), seed=1))
    with pytest.raises(ContractError):
        select_order(frame, [], [0])
    with pytest.raises(ContractError):
        select_order(frame, [0], [0])   # p must stay >= 1
    # every order is checked, not only the widest that the design is built from
    with pytest.raises(ContractError, match="p must be >= 1"):
        select_order(frame, [0, 1], [0])
    with pytest.raises(ContractError, match="s must be >= 0"):
        select_order(frame, [1], [-1, 0])
    # no order is truncated: [1.5, 2] x [0.7] is not (1, 0), (2, 0); nor is
    # True read as 1
    for p_range, s_range in (([1.5, 2], [0]), ([1, 2], [0.7]), ([1, 2.0], [0]),
                             ([True, 2], [0]), ([1], [False])):
        with pytest.raises(ContractError, match="lag orders must be integers"):
            select_order(frame, p_range, s_range)


def test_select_order_takes_numpy_integer_ranges():
    frame, _ = simulate(SynthSpec(n=60, phi=np.array([0.5]), seed=1))
    scan = select_order(frame, np.arange(1, 3), np.array([0]),
                        ModelSpec(grid=np.geomspace(0.5, 50.0, 3)))
    assert scan.candidates == ((1, 0), (2, 0))
    assert {type(v) for c in scan.candidates for v in c} == {int}


def test_lambda_path_at_edge():
    grid = np.array([1.0, 2.0, 4.0])
    msfe = np.array([3.0, 2.0, 1.0])
    assert [LambdaPath(grid, msfe, i).at_edge for i in range(3)] \
        == [True, False, True]
    assert grid.flags.writeable  # the path froze its own copy, not ours
    # a one-value grid fixes lambda: there is no edge to report
    assert not LambdaPath(grid[:1], msfe[:1], 0).at_edge
