"""Shared builders for the test suite."""

import numpy as np

from hydrovarx import Column, DesignMatrix, TimeSeriesFrame
from hydrovarx.solver import Gram


def daily_dates(n, start="2001-01-01"):
    return np.datetime64(start, "D") + np.arange(n)


def make_frame(targets, exog=None, start="2001-01-01",
               target_names=None, exog_names=None):
    """Build a daily TimeSeriesFrame from plain arrays with default names."""
    targets = np.asarray(targets, dtype=float)
    if targets.ndim == 1:
        targets = targets[:, None]
    n, k = targets.shape
    if exog is None:
        exog = np.zeros((n, 0))
    exog = np.asarray(exog, dtype=float)
    if exog.ndim == 1:
        exog = exog[:, None]
    m = exog.shape[1]
    tnames = list(target_names or (f"Y{i + 1}" for i in range(k)))
    enames = list(exog_names or (f"x{j + 1}" for j in range(m)))
    cols = tuple(Column(nm, role="target") for nm in tnames) \
        + tuple(Column(nm, role="exog") for nm in enames)
    return TimeSeriesFrame(daily_dates(n, start), targets, exog, cols)


def reference_prepare(design, standardize=True):
    """The problem ``(gram, mean, scales)`` of ``design``'s rows by the
    plain row arithmetic: numpy's column means of [Z | Y] and ddof=1 std, a
    column constant when its sd is at most 1e-12 * max(1, |mean|) (scale
    1), then the scaled rows centered over themselves, Zc'Zc and
    (Y - ybar)'Zc. An oracle for the co-moments that ``prepare``,
    ``standardize`` and every refit window read."""
    Z, Y = design.Z, design.Y
    mean = np.concatenate([Z.mean(axis=0), Y.mean(axis=0)])
    scales = None
    if standardize:
        mu, sd = mean[:design.q], Z.std(axis=0, ddof=1)
        constant = sd <= 1e-12 * np.maximum(1.0, np.abs(mu))
        scales = np.where(constant, 1.0, sd), constant
        Z, Y = (Z - mu) / scales[0], Y - mean[design.q:]
    Zc = Z - Z.mean(axis=0)
    return Gram(Zc.T @ Zc, (Y - Y.mean(axis=0)).T @ Zc), mean, scales


def close(got, want, scale=0.0):
    """Equal to 1e-12 * max(1, |want|, scale), entry by entry."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    bound = 1e-12 * np.maximum(np.maximum(1.0, np.abs(want)), scale)
    assert np.all(np.abs(got - want) <= bound)


def assert_gram_close(got, want, Y):
    """``got``'s G and c are those of the problem ``want`` of rows with
    responses Y, to rounding; ``got`` may be a bare ``Gram``.

    An entry of G or c that is small by cancellation is held to its
    Cauchy-Schwarz bound, sqrt(G_ii G_jj) or sqrt(S_yy G_jj), instead.
    """
    ydev = Y - Y.mean(axis=0)
    zz = np.sqrt(want.G.diagonal())
    close(got.G, want.G, np.outer(zz, zz))
    close(got.c, want.c, np.outer(np.sqrt((ydev * ydev).sum(axis=0)), zz))


def assert_problem_close(got, want, Y):
    """``got`` is the problem ``(gram, mean, scales)`` ``want`` of rows with
    responses Y, to rounding: G and c as ``assert_gram_close`` holds them,
    the means and sds by ``close``, the constant flags exactly."""
    (gram, mean, scales), (want_gram, want_mean, want_scales) = got, want
    assert_gram_close(gram, want_gram, Y)
    close(mean, want_mean)
    assert (scales is None) == (want_scales is None)
    if scales is not None:
        close(scales[0], want_scales[0])
        np.testing.assert_array_equal(scales[1], want_scales[1])


def moment_design(seed, n, k, level, flat_rows):
    """A positional design whose columns have several scales and offsets
    (|mean| / sd up to 20: a mean that dwarfs its sd costs any computation
    digits) and whose first column is ``level`` over its first ``flat_rows``
    rows, varying after them."""
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n, 4)) * [1.0, 1.0, 0.1, 50.0] + [0.0, 3.0, -2.0, 100.0]
    Z[:flat_rows, 0] = level
    Y = rng.normal(size=(n, k)).cumsum(axis=0) + 5.0
    return DesignMatrix(Y=Y, Z=Z, row_dates=np.arange(n).astype("datetime64[D]"),
                        col_labels=("a", "b", "c", "d"),
                        target_names=tuple(f"Y{i}" for i in range(k)),
                        exog_names=(), p=4, s=0, mode="positional")


def reference_series(spec):
    """``simulate``'s targets and exogenous drivers, after burn-in, by the
    plain recursion: numpy's AR(1) step per row, then per step
    y_t = nu + eps_t + sum_l phi[l] @ y_(t-1-l) + sum_l beta[l] @ x_(t-1-l),
    each product a numpy call on one row. The oracle ``simulate`` matches to
    the bit."""
    rng = np.random.default_rng(spec.seed)
    p, k, s, m = spec.p, spec.k, spec.s, spec.m
    total = spec.burn_in + spec.n

    if m:
        shocks = rng.standard_normal((total, m))
        if spec.exog_mode == "iid":
            x = shocks
        else:
            x = np.empty((total, m))
            prev = np.zeros(m)
            for t in range(total):
                prev = spec.exog_rho * prev + shocks[t]
                x[t] = prev
    else:
        x = np.zeros((total, 0))

    eps = rng.standard_normal((total, k)) * spec.noise_sd
    # y_t is row t + p of y, after p pre-sample rows (init_y, lag 1 last);
    # x_t is row t + s of x_pad, after s zero rows
    y = np.zeros((p + total, k))
    if spec.init_y is not None:
        y[:p] = spec.init_y[::-1]
    x_pad = np.vstack([np.zeros((s, m)), x])
    beta = spec.beta if spec.beta is not None else np.zeros((0, k, 0))
    for t in range(total):
        val = spec.nu + eps[t]
        for lag in range(p):
            val = val + spec.phi[lag] @ y[t + p - 1 - lag]
        for lag in range(s):
            val = val + beta[lag] @ x_pad[t + s - 1 - lag]
        y[t + p] = val
    return y[p + spec.burn_in:], x[spec.burn_in:]
