"""Shared builders for the test suite."""

import numpy as np

from hydrovarx import Column, DesignMatrix, ScalingInfo, TimeSeriesFrame
from hydrovarx.solver import Problem


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
    """The Gram problem of ``design``'s rows by the plain row arithmetic:
    numpy's mean and ddof=1 std, a column constant when its sd is at most
    1e-12 * max(1, |mean|) (scale 1), then the scaled rows centered over
    themselves, Zc'Zc and (Y - ybar)'Zc. An oracle for the co-moments that
    ``prepare``, ``standardize`` and every refit window read."""
    Z, Y = design.Z, design.Y
    if standardize:
        mu, sd = Z.mean(axis=0), Z.std(axis=0, ddof=1)
        constant = sd <= 1e-12 * np.maximum(1.0, np.abs(mu))
        info = ScalingInfo(z_mean=mu, z_sd=np.where(constant, 1.0, sd),
                           y_mean=Y.mean(axis=0), constant=constant)
        Z, Y = (Z - info.z_mean) / info.z_sd, Y - info.y_mean
    else:
        info = ScalingInfo.identity(design.q, design.k)
    z_bar, y_bar = Z.mean(axis=0), Y.mean(axis=0)
    Zc = Z - z_bar
    return Problem(info=info, z_bar=z_bar, y_bar=y_bar, G=Zc.T @ Zc,
                   c=(Y - y_bar).T @ Zc)


def close(got, want, scale=0.0):
    """Equal to 1e-12 * max(1, |want|, scale), entry by entry."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    bound = 1e-12 * np.maximum(np.maximum(1.0, np.abs(want)), scale)
    assert np.all(np.abs(got - want) <= bound)


def assert_scaling_close(got, want):
    """Two ScalingInfo agree: statistics by ``close``, flags exactly."""
    for name in ("z_mean", "z_sd", "y_mean"):
        close(getattr(got, name), getattr(want, name))
    np.testing.assert_array_equal(got.constant, want.constant)
    assert got.enabled == want.enabled


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
    """``got`` is the problem ``want`` of rows with responses Y, to rounding
    (G and c as ``assert_gram_close`` holds them)."""
    assert_gram_close(got, want, Y)
    close(got.z_bar, want.z_bar)
    close(got.y_bar, want.y_bar)
    assert_scaling_close(got.info, want.info)


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
