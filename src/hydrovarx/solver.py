"""Elastic-net VARX estimation by a certified active-set method.

The objective is the penalized residual sum of squares, exactly as stated
(RSS is not divided by the number of rows):

    min over (nu, B):  sum_t || y_t - nu - B z_t ||^2
                       + lambda * ( alpha * ||B||_1 + (1 - alpha) * ||B||_2^2 )

where z_t stacks the lagged targets and lagged exogenous drivers. The
intercept nu is never penalized. With standardization enabled (the default)
the penalty acts on the standardized coefficients, which keeps lambda
comparable across columns with different physical units.

The problem separates by target equation, so each row of B is solved
independently, in the covariance form of Friedman, Hastie & Tibshirani
(2010): with G = Zc'Zc and c = Zc'y precomputed, and H = G + lambda (1 -
alpha) I, the gradient of one equation is g = c - H b. G and c are read
off the column means and centered co-moments of the rows of [Z | Y] by
``_moment_gram``. A problem is ``(gram, mean, scales)``: that ``Gram``,
the column means of [Z | Y] and Z's scales (None when not standardized).
``prepare`` takes the co-moments from a design's rows, and
``selection._windows`` from co-moments that grow with each refit window.
``solve``, the one way to solve a problem, reads only the ``Gram`` and
returns its standardized coefficients at one penalty, from zero or from a
given start, so a lambda grid forms each window's Gram once and builds no
model. ``fit`` is ``prepare``, ``solve``, then ``_finish``, the one mapping
back from the means and scales to a model.

The kernel (``_cd_solve``) is the active-set method of Osborne, Presnell &
Turlach (2000). With t = lambda alpha / 2, b is optimal when every nonzero
b_j has g_j = t sign(b_j) and every zero one |g_j| <= t. Each iteration
computes g with one matrix-vector product and checks these conditions in a
Python loop over the q coordinates, to the bound tol * max(1, max_j G_jj).
If every coordinate passes, b is certified optimal and the fit has
converged. Otherwise it takes one face step. The face is the nonzero set A
with its signs s; on it the objective is a quadratic, minimized where

    H_AA x = c_A - t s_A

(solved by Cholesky, LAPACK ``dposv``). If b is off its own face's optimum,
the step re-solves that face; otherwise it adds every zero coordinate that
breaks its condition, each signed as its g_j, or only the worst one if any
would start the wrong way. b then moves toward x as far as the signs allow
(the ratio test): an old coordinate that would cross zero stops the step
there and leaves the face. With t = 0 there are no signs to keep and b
moves to x. A coordinate with H_jj = 0 (a zero column without ridge) is
pinned at zero. Dependent columns with alpha = 1 make a face's block
singular. If Cholesky fails at a j spanned by old face coordinates R, b
makes a null move (Tibshirani 2013, "The lasso problem and uniqueness",
section 3): along d = (x, -1) on R and j, with H_RR x = H_Rj, H d = 0 and
the objective is linear; d points where it does not rise (on a tie, where
b_j nears zero), and b stops where a coordinate first reaches zero, which
leaves the face. A step that fails otherwise is retried with the worst
violator alone; if that fails, the solve stops uncertified. Every step
keeps b on the closed orthant of its face, so the objective never rises.
``dposv`` is read straight from scipy's compiled ``scipy.linalg._flapack``
(checked on scipy 1.17.1), so importing hydrovarx skips the ``scipy.linalg``
package; ``scipy.linalg.lapack`` is the fallback.

A warm start is almost never at its own face's optimum (it solved a nearby
problem), so its first pass would only lead to re-solving that face. A warm
start with a nonzero face therefore takes that face step first, without the
pass, and counts it as iteration 1; if the step fails, the usual loop
starts from b, uncounted. ``n_iter`` counts iterations per equation: that
opening step, if taken, then each gradient pass with at most one face step
after it. So ``max_iter=0`` returns the start unchanged, and ``max_iter=1``
returns a warm start's opening face step. The arithmetic is deterministic,
so fitting is reproducible bit for bit.

Equivalence contract: where the minimizer is unique, the kernel reaches
the one plain coordinate descent reaches, not the same bits. The test
suite keeps the plain numpy-scalar kernel as an oracle: converged fits
match it, run to tol = 1e-13 (where it converges within 10000 sweeps), in
zero pattern and within 1e-9 * max(1, |b|) per coefficient.
``kkt_violation`` certifies a fit against its optimality conditions.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from typing import NamedTuple

import numpy as np
import scipy

from .design import (
    DesignMatrix,
    ScalingInfo,
    _comoments,
    _is_int,
    _scaling,
    _sds,
    split_lags,
)
from .errors import (
    CompatibilityError,
    ContractError,
    DegenerateFitError,
)
from .frame import freeze

#: back-transformed coefficients below this magnitude are reported as zero
SNAP_TOL = 1e-12


def _snap(raw):
    """``raw`` with every entry below ``SNAP_TOL`` in magnitude set to zero."""
    return np.where(np.abs(raw) < SNAP_TOL, 0.0, raw)


def _to_original(scaled_a, scaled_b, info: ScalingInfo):
    """``(nu, snapped coeffs)`` in original units of the solution ``(scaled_a,
    scaled_b)`` on the columns ``info`` scaled: the same fitted values."""
    raw_b = scaled_b / info.z_sd
    return info.y_mean + scaled_a - raw_b @ info.z_mean, _snap(raw_b)


def _flapack_dposv(scipy_dir: str):
    """LAPACK ``dposv`` from scipy's compiled ``linalg/_flapack`` in
    ``scipy_dir``, loaded under its own name, ``scipy.linalg._flapack``, so
    the ``scipy.linalg`` package (and all it imports) is not run. The module
    is registered in ``sys.modules``, or reused if already there, so a later
    ``import scipy.linalg`` shares it. Falls back to the public import if
    the file is missing or does not load (ImportError) or lacks the routine
    (AttributeError)."""
    name = "scipy.linalg._flapack"
    try:
        module = sys.modules.get(name)
        if module is None:
            path = os.path.join(scipy_dir, "linalg", "_flapack" + EXTENSION_SUFFIXES[0])
            loader = ExtensionFileLoader(name, path)
            module = module_from_spec(spec_from_loader(name, loader))
            loader.exec_module(module)
        routine = module.dposv
        sys.modules.setdefault(name, module)
        return routine
    except (ImportError, AttributeError):
        from scipy.linalg.lapack import dposv
        return dposv


dposv = _flapack_dposv(scipy.__path__[0])


@dataclass(frozen=True)
class Penalty:
    """Elastic-net penalty: lam scales it, alpha mixes L1 vs squared L2.
    Neither may be a bool."""

    lam: float
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if isinstance(self.lam, bool) or not (math.isfinite(self.lam) and self.lam >= 0):
            raise ContractError(f"lambda must be a finite number >= 0, got {self.lam}")
        if isinstance(self.alpha, bool) or not (0.0 <= self.alpha <= 1.0):
            raise ContractError(f"alpha must be a number in [0, 1], got {self.alpha}")


def _check_written(name, doc, written):
    """Raise ValueError naming the field ``name`` unless ``doc`` is ``written``
    in value and JSON type at every key both have; an int may stand for a float."""
    if isinstance(written, dict) and isinstance(doc, dict):
        for key in filter(doc.__contains__, written):
            _check_written(f"{name}.{key}" if name else key, doc[key], written[key])
    elif isinstance(written, list) and isinstance(doc, list) and len(doc) == len(written):
        for one, other in zip(doc, written):
            _check_written(name, one, other)
    elif doc != written or (type(doc) is not type(written)
                            and (type(doc), type(written)) != (int, float)):
        raise ValueError(f"{name} must be {written!r}, got {doc!r}")


def _shaped(name, value, like):
    """``value`` as an array like ``like``, or ValueError naming the field ``name``."""
    if np.shape(value) != like.shape:
        raise ValueError(f"{name} must be of shape {like.shape}, got {np.shape(value)}")
    return np.asarray(value, dtype=like.dtype)


@dataclass(frozen=True)
class FittedModel:
    """A fitted sparse VARX model in original units.

    ``coeffs`` is the (k x q) coefficient matrix over the design's lag-major
    regressor columns; ``phi`` and ``beta`` are read-only per-lag views of it.
    ``scaled_coeffs``/``scaled_intercept`` are the same solution on the
    standardized scale the solver actually minimized on (identical to the raw
    values when standardization was disabled). ``n_iter`` counts the solver's
    iterations per target equation, each a gradient pass and at most one face
    step, or a warm start's opening face step (stored in ``model.json``);
    ``converged`` says whether every equation was certified optimal within
    ``max_iter`` iterations. ``support`` is read off ``coeffs``. At load
    (``from_dict``) the raw copy is derived from the scaled one.
    """

    nu: np.ndarray
    coeffs: np.ndarray
    scaled_intercept: np.ndarray
    scaled_coeffs: np.ndarray
    lam: float
    alpha: float
    sigma2: float
    col_labels: tuple[str, ...]
    target_names: tuple[str, ...]
    exog_names: tuple[str, ...]
    p: int
    s: int
    lag_mode: str
    scaling: ScalingInfo
    n_rows: int
    converged: bool
    n_iter: tuple[int, ...]

    def __post_init__(self) -> None:
        names = ("nu", "coeffs", "scaled_intercept", "scaled_coeffs")
        freeze(self, **{n: np.asarray(getattr(self, n), dtype=float) for n in names})

    @property
    def k(self) -> int:
        return self.coeffs.shape[0]

    @property
    def m(self) -> int:
        return len(self.exog_names)

    @property
    def phi(self) -> np.ndarray:
        """Autoregressive matrices, shape (p, k, k): phi[l-1] applies to lag l."""
        return split_lags(self.coeffs, self.p, self.s, self.m)[0]

    @property
    def beta(self) -> np.ndarray:
        """Exogenous matrices, shape (s, k, m): beta[j-1] applies to lag j."""
        return split_lags(self.coeffs, self.p, self.s, self.m)[1]

    @property
    def support(self) -> tuple[str, ...]:
        """The ``col_labels`` of the columns with a nonzero coefficient."""
        nonzero = (self.coeffs != 0.0).any(axis=0)
        return tuple(lbl for lbl, nz in zip(self.col_labels, nonzero) if nz)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        sc = self.scaling
        return {
            "version": 1,
            "p": self.p,
            "s": self.s,
            "lag_mode": self.lag_mode,
            "alpha": self.alpha,
            "lambda": self.lam,
            "nu": self.nu.tolist(),
            "phi": self.phi.tolist(),
            "beta": self.beta.tolist(),
            "support": list(self.support),
            "sigma2": self.sigma2,
            "scaling": {
                "enabled": bool(sc.enabled),
                "z_mean": sc.z_mean.tolist(),
                "z_sd": sc.z_sd.tolist(),
                "y_mean": sc.y_mean.tolist(),
                "constant": sc.constant.astype(int).tolist(),
            },
            "scaled_intercept": self.scaled_intercept.tolist(),
            "scaled_coeffs": self.scaled_coeffs.tolist(),
            "col_labels": list(self.col_labels),
            "target_names": list(self.target_names),
            "exog_names": list(self.exog_names),
            "n_rows": self.n_rows,
            "converged": self.converged,
            "n_iter": list(self.n_iter),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FittedModel":
        """The model of a ``to_dict`` document, which must be what that model
        writes (``_check_written``) with ``n_rows`` and ``n_iter`` numbers >= 0,
        or ValueError names the field; the raw copy is derived by ``_to_original``."""
        if d.get("version") != 1:
            raise CompatibilityError(f"unsupported model version {d.get('version')!r}")
        p, s = len(d["phi"]), len(d["beta"])
        try:
            scaled_b = np.asarray(d["scaled_coeffs"], dtype=float)
        except (TypeError, ValueError):  # ragged rows, or a non-number entry
            scaled_b = None
        if scaled_b is None or scaled_b.ndim != 2:
            raise ValueError("scaled_coeffs must be a (k x q) matrix of numbers, "
                             f"got {d['scaled_coeffs']!r}")
        k, q = scaled_b.shape
        sc = d["scaling"]
        # documents written before stat_rows was dropped carry [0, n_rows]
        if sc.get("stat_rows") not in (None, [0, d["n_rows"]]):
            raise ValueError(f"scaling.stat_rows {sc['stat_rows']!r} is not "
                             f"[0, n_rows] = [0, {d['n_rows']!r}]")
        n_iter = d.get("n_iter", [])
        for name, count in [("n_rows", d["n_rows"])] + [("n_iter", v) for v in n_iter]:
            # -1 is written back as -1; int(inf) overflows
            if type(count) not in (int, float) or not 0 <= count < math.inf:
                raise ValueError(f"{name} must be a number >= 0, got {count!r}")
        scaling = ScalingInfo.identity(q, k)  # its arrays have the shapes that fit
        scaled_a = _shaped("scaled_intercept", d["scaled_intercept"], scaling.y_mean)
        if sc["enabled"]:
            scaling = ScalingInfo(*(
                _shaped(f"scaling.{key}", sc[key], getattr(scaling, key))
                for key in ("z_mean", "z_sd", "y_mean", "constant")))
        nu, coeffs = _to_original(scaled_a, scaled_b, scaling)
        model = cls(
            nu=nu, coeffs=coeffs, scaled_intercept=scaled_a, scaled_coeffs=scaled_b,
            lam=float(d["lambda"]), alpha=float(d["alpha"]),
            sigma2=float(d["sigma2"]),
            col_labels=tuple(map(str, d["col_labels"])),
            target_names=tuple(map(str, d["target_names"])),
            exog_names=tuple(map(str, d["exog_names"])),
            p=p, s=s, lag_mode=str(d.get("lag_mode", "calendar")),
            scaling=scaling, n_rows=int(d["n_rows"]),
            converged=bool(d["converged"]), n_iter=tuple(map(int, n_iter)),
        )
        _check_written("", d, model.to_dict())
        return model


class Gram(NamedTuple):
    """``G = Zc'Zc`` and ``c[i] = Zc'(y_i - ybar_i)`` on the (standardized,
    when enabled) regressors centered over a problem's rows: all that
    ``solve`` reads."""

    G: np.ndarray
    c: np.ndarray


def _moment_gram(n, mean, M, q, standardize):
    """The problem ``(gram, mean, scales)`` of n rows of [Z | Y], Z's q
    columns first, with column means ``mean`` and centered co-moments
    ``M``: its ``Gram``, ``mean``, and the scales of Z's columns with their
    constant flags (``design._sds``), or None when not standardized.
    Standardized, it is G = D^-1 M_zz D^-1 and c = M_yz D^-1, with D those
    sds; the scaled columns then have mean zero."""
    G, c = M[:q, :q], M[q:, :q]
    if not standardize:
        return Gram(G, c), mean, None
    scales = _sds(n, mean, M, q)
    sd = scales[0]
    return Gram(G / sd / sd[:, None], c / sd), mean, scales


def prepare(design: DesignMatrix, *, standardize_design: bool = True):
    """The problem ``(gram, mean, scales)`` of ``design``'s rows, read off
    their co-moments as every refit window's is (``selection._windows``)."""
    n = design.n_eff
    if n < 2:  # before _comoments, which reads the first row
        raise DegenerateFitError(f"cannot fit on {n} rows")
    mean, M = _comoments(np.hstack([design.Z, design.Y]))
    return _moment_gram(n, mean, M, design.q, standardize_design)


def check_stopping(tol, max_iter) -> None:
    """Refuse a ``tol`` that is a bool or not finite and >= 0 (a negative
    bound is never met) or a ``max_iter`` that is not an int >= 0 (it is
    never reached)."""
    if isinstance(tol, bool) or not (math.isfinite(tol) and tol >= 0):
        raise ContractError(f"tol must be a finite number >= 0, got {tol}")
    if not (_is_int(max_iter) and max_iter >= 0):
        raise ContractError(f"max_iter must be an int >= 0, got {max_iter!r}")


def _face_step(H, c, thr, b, g, face, signs, new):
    """Move ``b`` (in place) toward the minimizer x of the objective on its
    face plus the coordinates ``new``, each signed as its gradient ``g``.

    b steps toward x as far as the signs allow (the ratio test); the old
    coordinate that reaches zero first leaves the face. With thr = 0, b
    moves to x. On a singular block b takes the null move (see the module
    docstring): the ratio test toward b + 2 t d, t the first zero crossing.
    Returns False, with b unchanged, if the block fails otherwise, the step
    is not finite, or a new coordinate would start the wrong way.
    """
    face = face + new
    signs = signs + [1.0 if g[j] > 0.0 else -1.0 for j in new]
    H_F = H.take(face, 0).take(face, 1)
    u, x, info = dposv(H_F, [c[j] - thr * s for j, s in zip(face, signs)])
    x = x.tolist()
    if info:
        # j = face[i]: the failed pivot, or an earlier one at rounding level
        tiny = u.diagonal()[:info - 1] ** 2 <= 1e-12 * H_F.diagonal()[:info - 1]
        i = (tiny.tolist() + [True]).index(True)
        if not 0 < i <= len(face) - len(new):
            return False
        face, signs = face[:i + 1], signs[:i + 1]
        d = dposv(H_F[:i, :i], H_F[:i, i])[1].tolist() + [-1.0]
        # the slope along d; c.d = 0, as c lies in the range of H
        slope = thr * sum(s * v for s, v in zip(signs, d))
        if slope > 0.0 or slope == 0.0 and signs[i] < 0.0:
            d = [-v for v in d]
        t = min([-b[j] / v for j, v in zip(face, d) if b[j] * v < 0.0],
                default=math.inf)
        x = [b[j] + 2.0 * t * v for j, v in zip(face, d)]
    # a sum is finite only if every term is
    if not math.isfinite(sum(x)):
        return False
    if thr == 0.0 and not info:
        for j, v in zip(face, x):
            b[j] = v
        return True
    t, drop = 1.0, -1
    for j, s, v in zip(face, signs, x):
        if v * s <= 0.0:
            if b[j] == 0.0:
                return False
            tj = b[j] / (b[j] - v)
            if tj < t:
                t, drop = tj, j
    for j, s, v in zip(face, signs, x):
        v = b[j] + t * (v - b[j]) if t < 1.0 else v
        b[j] = v if v * s > 0.0 else 0.0
    if drop >= 0:
        b[drop] = 0.0
    return True


def _cd_solve(H, thr, h_diag, bound, c, b, max_iter):
    """Active-set solve of one equation on centered data, with H = G +
    lambda (1 - alpha) I, thr = lambda alpha / 2, H's diagonal as a list and
    the KKT bound tol * max(1, max_j G_jj), which ``solve`` forms once for
    all of a problem's equations.

    Returns ``(b, iterations, converged, kkt)``: b as a list of floats,
    ``kkt`` the largest KKT residual of the returned b, and ``converged``
    whether it is within ``bound``. H need not be bit-symmetric. See the
    module docstring for the iteration.
    """
    cl = c.tolist()
    b = b.tolist()
    if max_iter > 0 and min(h_diag) <= 0.0:
        # H_jj = 0: a zero column, whose coefficient stays pinned at zero;
        # max_iter = 0 returns the start as it is
        b = [v if d > 0.0 else 0.0 for v, d in zip(b, h_diag)]
    iters = 0
    converged = False
    # a warm start re-solves its face without the first pass, as iteration
    # 1; a step that fails leaves b to the loop, uncounted
    face = [j for j, bj in enumerate(b) if bj != 0.0]
    signs = [1.0 if b[j] > 0.0 else -1.0 for j in face]
    if face and max_iter > 0 and _face_step(H, cl, thr, b, None, face, signs, []):
        iters = 1
    while True:
        g = (c - H.dot(b)).tolist()
        # the KKT residual of every coordinate; the face is the nonzero set,
        # and face_kkt how far b is off that face's optimum
        kkt = face_kkt = 0.0
        face, signs, add = [], [], []
        for j, bj in enumerate(b):
            if bj > 0.0:
                r = abs(g[j] - thr)
                face.append(j)
                signs.append(1.0)
            elif bj < 0.0:
                r = abs(g[j] + thr)
                face.append(j)
                signs.append(-1.0)
            else:
                r = abs(g[j]) - thr
                if r > bound:
                    add.append(j)
                if r > kkt:
                    kkt = r
                continue
            if r > face_kkt:
                face_kkt = r
        if face_kkt > kkt:
            kkt = face_kkt
        if iters == max_iter:
            break
        iters += 1
        if kkt <= bound:
            converged = True
            break
        # off the face's optimum, re-solve the face; at it, add violators
        new = [] if face_kkt > bound else add
        moved = _face_step(H, cl, thr, b, g, face, signs, new)
        if not moved and len(new) > 1:
            worst = max(new, key=lambda j: abs(g[j]))
            moved = _face_step(H, cl, thr, b, g, face, signs, [worst])
        if not moved:
            break
    return b, iters, converged, kkt


def solve(gram: Gram, penalty: Penalty, tol: float = 1e-7,
          max_iter: int = 10000, start=None):
    """Solve the problem of ``gram`` at one penalty; returns ``(scaled_b,
    n_iter, converged, kkt)``: the (k x q) coefficients on the problem's
    scale, the iterations per equation, whether every equation was
    certified optimal, and the largest KKT residual over the equations
    (see ``_cd_solve``). ``start`` is a ``scaled_b`` to start from (None:
    zero).
    """
    G, c = gram
    ridge = penalty.lam * (1.0 - penalty.alpha)
    H = G
    if ridge:
        H = G.copy()
        H.flat[::len(G) + 1] += ridge
    thr = penalty.lam * penalty.alpha / 2.0
    h_diag = H.diagonal().tolist()
    bound = tol * max([1.0] + G.diagonal().tolist())
    start = np.zeros(c.shape) if start is None else np.asarray(start, dtype=float)
    rows = []
    n_iter = []
    converged = True
    kkt = 0.0
    for i in range(len(c)):
        b, iters, ok, r = _cd_solve(H, thr, h_diag, bound, c[i], start[i], max_iter)
        rows.append(b)
        n_iter.append(iters)
        converged &= ok
        kkt = max(kkt, r)
    return np.array(rows), tuple(n_iter), converged, kkt


def fit(design: DesignMatrix, penalty: Penalty, *, standardize_design: bool = True,
        tol: float = 1e-7, max_iter: int = 10000) -> FittedModel:
    """Fit the penalized VARX system on the rows of ``design``.

    ``design`` is in original units. With ``standardize_design`` (default) the
    regressors are centered/scaled by their sample statistics over these rows
    before solving, and the solution is mapped back, so reported coefficients
    are always in original units. The intercept is solved exactly (never
    penalized).

    Convergence: every equation certified optimal, its KKT residual within
    ``tol * max(1, max_j G_jj)``, within ``max_iter`` iterations, which
    ``check_stopping`` checks before any solve.
    """
    check_stopping(tol, max_iter)
    gram, mean, scales = prepare(design, standardize_design=standardize_design)
    scaled_b, n_iter, converged, _ = solve(gram, penalty, tol, max_iter)
    return _finish(design, mean, scales, penalty, scaled_b, n_iter, converged)


def _finish(design: DesignMatrix, mean, scales, penalty: Penalty,
            scaled_b, n_iter, converged) -> FittedModel:
    """The model of a ``solve`` result on the problem of ``design`` with
    means ``mean`` and ``scales`` (``prepare``'s): its scaling, intercept
    (zero on standardized columns, which have mean zero), original units
    and sigma2."""
    n, q, k = design.n_eff, design.q, design.k
    if scales is None:
        info = ScalingInfo.identity(q, k)
        scaled_a = np.array([mean[q + i] - mean[:q] @ scaled_b[i] for i in range(k)])
    else:
        info, scaled_a = _scaling(mean, q, *scales), np.zeros(k)

    raw_nu, raw_b = _to_original(scaled_a, scaled_b, info)

    resid = design.Y - (raw_nu + design.Z @ raw_b.T)
    rss = float((resid * resid).sum())
    dof = max(1, n - int((raw_b != 0.0).any(axis=0).sum()) - k)
    sigma2 = rss / dof

    return FittedModel(
        nu=raw_nu, coeffs=raw_b, scaled_intercept=scaled_a, scaled_coeffs=scaled_b,
        lam=penalty.lam, alpha=penalty.alpha, sigma2=sigma2,
        col_labels=design.col_labels, target_names=design.target_names,
        exog_names=design.exog_names, p=design.p, s=design.s,
        lag_mode=design.mode, scaling=info, n_rows=n,
        converged=converged, n_iter=n_iter,
    )


def kkt_violation(model: FittedModel, design: DesignMatrix) -> float:
    """Largest optimality breach of ``model`` on the rows it was fit on.

    Computed on the standardized problem the solver minimized: with
    g_j = c_j - (G b)_j - lambda (1 - alpha) b_j, a nonzero b_j needs
    g_j = (lambda alpha / 2) sign(b_j) and a zero one |g_j| <= lambda alpha / 2.
    The solver certified a converged fit to tol * max(1, max_j G_jj) on
    this problem, which is tol (n - 1) on standardized columns; recomputed
    here, the figure can differ from the solver's by rounding.
    """
    (G, c), _, _ = prepare(design, standardize_design=model.scaling.enabled)
    b = model.scaled_coeffs
    thr = model.lam * model.alpha / 2.0
    grad = c - b @ G.T - model.lam * (1.0 - model.alpha) * b
    viol = np.where(b != 0.0, np.abs(grad - thr * np.sign(b)),
                    np.maximum(np.abs(grad) - thr, 0.0))
    return float(viol.max()) if viol.size else 0.0


def predict_rows(model: FittedModel, design: DesignMatrix) -> np.ndarray:
    """One-step predictions for every design row (original units)."""
    if design.col_labels != model.col_labels:
        raise CompatibilityError(
            "design regressors do not match the model: "
            f"{design.col_labels[:3]}... vs {model.col_labels[:3]}...")
    return model.nu + design.Z @ model.coeffs.T
