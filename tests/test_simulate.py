"""Seeded synthetic VARX generation: reproducibility, dynamics, stability."""

import json

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from conftest import reference_series
from hydrovarx import SynthSpec, load_csv, simulate, write_csv
from hydrovarx.errors import ContractError
from hydrovarx.simulate import companion_spectral_radius


def test_deterministic_given_seed():
    spec = SynthSpec(n=200, phi=np.array([0.6]), beta=np.array([[[0.4, 0.2]]]),
                     noise_sd=0.5, seed=77)
    f1, t1 = simulate(spec)
    f2, t2 = simulate(spec)
    np.testing.assert_array_equal(f1.targets, f2.targets)
    np.testing.assert_array_equal(f1.exog, f2.exog)
    np.testing.assert_array_equal(f1.dates, f2.dates)
    assert t1.support == t2.support


def test_seed_changes_the_draws():
    base = dict(n=100, phi=np.array([0.6]), noise_sd=0.5)
    f1, _ = simulate(SynthSpec(seed=1, **base))
    f2, _ = simulate(SynthSpec(seed=2, **base))
    assert not np.array_equal(f1.targets, f2.targets)


def test_noise_free_decay():
    # y_t = 0.9 y_{t-1} from y_0 = 1 with no noise: pure geometric decay
    spec = SynthSpec(n=6, phi=np.array([0.9]), noise_sd=0.0,
                     burn_in=0, init_y=np.array([1.0]), seed=0)
    frame, _ = simulate(spec)
    np.testing.assert_allclose(frame.targets[:, 0],
                               0.9 ** np.arange(1, 7), rtol=1e-12)


def reference_targets(spec):
    """simulate's targets from the same draws, by the recursion with lag
    buffers shifted one row per step: lags[l] holds y_(t-1-l), x_lags[l]
    holds x_(t-1-l)."""
    rng = np.random.default_rng(spec.seed)
    total, k, m = spec.burn_in + spec.n, spec.k, spec.m
    x = rng.standard_normal((total, m)) if m else np.zeros((total, 0))
    if spec.exog_mode == "ar1":
        for t in range(1, total):
            x[t] += spec.exog_rho * x[t - 1]
    eps = rng.standard_normal((total, k)) * spec.noise_sd
    lags = np.zeros((spec.p, k)) if spec.init_y is None else spec.init_y.copy()
    x_lags = np.zeros((max(spec.s, 1), m))
    y = np.empty((total, k))
    for t in range(total):
        val = spec.nu + eps[t]
        for lag in range(spec.p):
            val = val + spec.phi[lag] @ lags[lag]
        for lag in range(spec.s):
            val = val + spec.beta[lag] @ x_lags[lag]
        y[t] = val
        lags = np.vstack([val.reshape(1, -1), lags[:-1]])
        if spec.s:
            x_lags = np.vstack([x[t].reshape(1, -1), x_lags[:-1]])
    return y[spec.burn_in:]


_PHI2 = np.array([[[0.5, 0.1], [0.0, 0.3]], [[0.1, 0.0], [0.05, 0.2]]])


@pytest.mark.parametrize("spec", [
    SynthSpec(n=60, phi=_PHI2, init_y=np.array([[1.0, -2.0], [3.0, 0.5]]),
              burn_in=0, noise_sd=0.5, seed=1),
    SynthSpec(n=60, phi=np.array([0.5]), beta=np.array([[[0.9]], [[0.0]], [[0.3]]]),
              burn_in=0, exog_mode="ar1", exog_rho=0.6, seed=2),     # s > p
    SynthSpec(n=40, phi=_PHI2, beta=np.zeros((2, 2, 3)), seed=3),    # zero beta
    SynthSpec(n=40, phi=np.array([0.4, 0.2, 0.1]), init_y=np.array([2.0]),
              beta=np.array([[[0.7, -0.2]]]), burn_in=5, seed=4),
])
def test_targets_equal_the_shifted_buffer_recursion_to_the_bit(spec):
    frame, _ = simulate(spec)
    assert np.array_equal(frame.targets, reference_targets(spec))


def test_dates_are_consecutive_days():
    frame, _ = simulate(SynthSpec(n=50, phi=np.array([0.5]), seed=0,
                                  start_date="2015-06-01"))
    assert frame.dates[0] == np.datetime64("2015-06-01")
    diffs = np.diff(frame.dates).astype(int)
    assert np.all(diffs == 1)


def test_unstable_phi_rejected_with_radius():
    with pytest.raises(ContractError, match="spectral radius"):
        SynthSpec(n=50, phi=np.array([1.05]))


def test_companion_radius_scalar_case():
    assert companion_spectral_radius(np.array([[[0.9]]])) == pytest.approx(0.9)


def test_companion_radius_matches_polynomial_roots():
    # AR(2): companion eigenvalues are the inverse characteristic roots
    phi = np.array([0.5, 0.3])
    spec_phi = phi.reshape(2, 1, 1)
    want = np.max(np.abs(np.roots([1.0, -0.5, -0.3])))
    np.testing.assert_allclose(companion_spectral_radius(spec_phi), want,
                               rtol=1e-12)


def test_borderline_stable_accepted():
    spec = SynthSpec(n=30, phi=np.array([0.999]), seed=0)
    frame, _ = simulate(spec)
    assert frame.n == 30


def test_ar1_exog_autocorrelation():
    spec = SynthSpec(n=50000, phi=np.array([0.5]),
                     beta=np.array([[[0.0]]]), exog_mode="ar1",
                     exog_rho=0.8, seed=5)
    frame, _ = simulate(spec)
    x = frame.exog[:, 0]
    xc = x - x.mean()
    rho_hat = float((xc[1:] @ xc[:-1]) / (xc @ xc))
    assert abs(rho_hat - 0.8) < 0.02


def test_iid_exog_is_uncorrelated():
    spec = SynthSpec(n=50000, phi=np.array([0.5]),
                     beta=np.array([[[0.0]]]), seed=6)
    frame, _ = simulate(spec)
    x = frame.exog[:, 0]
    xc = x - x.mean()
    rho_hat = float((xc[1:] @ xc[:-1]) / (xc @ xc))
    assert abs(rho_hat) < 0.02
    assert abs(x.std(ddof=1) - 1.0) < 0.02


def test_innovation_scale_recoverable():
    # reconstruct the shocks from the recursion; their sd matches noise_sd
    spec = SynthSpec(n=50000, phi=np.array([0.7]),
                     beta=np.array([[[0.5]]]), noise_sd=0.3, seed=9)
    frame, truth = simulate(spec)
    y = frame.targets[:, 0]
    x = frame.exog[:, 0]
    u = y[1:] - 0.7 * y[:-1] - 0.5 * x[:-1]
    assert abs(u.std(ddof=1) - 0.3) / 0.3 < 0.02
    assert abs(u.mean()) < 0.01


def test_truth_support_names_nonzero_exog_lags():
    spec = SynthSpec(n=60, phi=np.array([0.5]),
                     beta=np.array([[[0.8, 0.0, 0.5]], [[0.0, 0.0, 0.3]]]),
                     seed=0)
    frame, truth = simulate(spec)
    assert truth.support == ("Y1L1", "x11", "x31", "x32")


def test_truth_serializes_to_json():
    spec = SynthSpec(n=40, phi=np.array([0.5]), beta=np.array([[[0.2]]]),
                     seed=0)
    _, truth = simulate(spec)
    doc = json.dumps(truth.to_dict())
    back = json.loads(doc)
    assert back["seed"] == 0
    np.testing.assert_allclose(np.asarray(back["phi"]), truth.phi)


def test_multivariate_shapes():
    phi = np.zeros((1, 2, 2))
    phi[0] = [[0.5, 0.1], [0.0, 0.4]]
    beta = np.zeros((2, 2, 3))
    beta[0, 0, 0] = 0.7
    spec = SynthSpec(n=80, phi=phi, beta=beta, seed=4)
    frame, truth = simulate(spec)
    assert frame.k == 2 and frame.m == 3
    assert frame.target_names == ("Y1", "Y2")
    assert frame.exog_names == ("x1", "x2", "x3")


def test_init_y_must_match_width():
    with pytest.raises(ContractError):
        SynthSpec(n=10, phi=np.array([0.5]), init_y=np.array([1.0, 2.0]))


def test_negative_noise_rejected():
    with pytest.raises(ContractError):
        SynthSpec(n=10, phi=np.array([0.5]), noise_sd=-1.0)


def test_bad_exog_mode_rejected():
    with pytest.raises(ContractError):
        SynthSpec(n=10, phi=np.array([0.5]), beta=np.array([[[0.1]]]),
                  exog_mode="brownian")


@st.composite
def synth_specs(draw):
    """Stable specs with k 1-3, p 0-4, s 0-3, m 0-6: every entry of phi is
    at most 0.9 / (p k) in size, so sum_l ||phi_l||_inf <= 0.9 < 1. The
    values are generic floats from a drawn numpy seed, since round values
    hide differences in rounding order; about a fifth are signed zeros."""
    k, p = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    s, m = draw(st.integers(0, 3)), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(shape, size):
        v = rng.uniform(-size, size, shape)
        return np.where(rng.random(shape) < 0.2, np.copysign(0.0, v), v)

    return SynthSpec(
        n=draw(st.integers(1, 200)), phi=values((p, k, k), 0.9 / max(p * k, 1)),
        beta=draw(st.none() | st.just(values((s, k, m), 2.0))) if s else None,
        nu=draw(st.none() | st.just(values((k,), 3.0))),
        noise_sd=draw(st.sampled_from([0.0, -0.0, 0.5, 1.0])),
        exog_mode=draw(st.sampled_from(["iid", "ar1"])),
        exog_rho=draw(st.floats(-0.95, 0.95)), seed=draw(st.integers(0, 2**32)),
        burn_in=draw(st.integers(0, 20)),
        init_y=draw(st.none() | st.just(values((p, k), 3.0))))


@seed(27)
@settings(max_examples=300, deadline=None)
@given(spec=synth_specs())
# seed 1 draws positive innovations, so nu + eps_t is -0.0 at every step:
# a one-term product that is -0.0 comes out of numpy as +0.0
@example(spec=SynthSpec(n=5, phi=np.array([0.5]), nu=np.array([-0.0]),
                        noise_sd=-0.0, init_y=np.array([-0.0]), burn_in=0,
                        seed=1))
# one exogenous lag next to AR(1) drivers: a strided row would sum in
# another order than a C-contiguous one
@example(spec=SynthSpec(n=60, phi=np.array([0.5]), exog_mode="ar1", exog_rho=-0.5,
                        beta=np.array([[[0.3, -0.2, 0.5, 0.1, -0.4, 0.25]]])))
# a product over no exogenous columns is +0.0, and it is still added
@example(spec=SynthSpec(n=5, phi=np.zeros((0, 1, 1)), nu=np.array([-0.0]),
                        beta=np.zeros((1, 1, 0)), noise_sd=-0.0, burn_in=0,
                        seed=1))
@example(spec=SynthSpec(n=5, phi=np.zeros((1, 2, 2)), nu=np.array([-0.0, -0.0]),
                        beta=np.zeros((2, 2, 0)), noise_sd=-0.0, burn_in=0,
                        seed=1))
def test_simulate_equals_the_plain_recursion_to_the_bit(spec):
    # bytes, so the sign of a zero counts
    y, x = reference_series(spec)
    frame, _ = simulate(spec)
    assert frame.targets.tobytes() == np.ascontiguousarray(y).tobytes()
    assert frame.exog.tobytes() == np.ascontiguousarray(x).tobytes()


def test_a_spec_without_lags_is_white_noise_plus_drivers():
    spec = SynthSpec(n=30, phi=np.zeros((0, 1, 1)), beta=np.array([[[0.5]]]),
                     seed=1, burn_in=0)
    assert spec.p == 0 and companion_spectral_radius(spec.phi) == 0.0
    frame, truth = simulate(spec)
    assert frame.n == 30 and truth.support == ("x11",)
    y, _ = reference_series(spec)
    assert np.array_equal(frame.targets, y)


def test_phi_needs_a_target():
    with pytest.raises(ContractError, match="k >= 1"):
        SynthSpec(n=20, phi=np.zeros((1, 0, 0)))


@pytest.mark.parametrize("field, value", [
    ("n", 20.5), ("n", True), ("n", "20"), ("burn_in", 1.5), ("burn_in", False),
    ("seed", -1), ("seed", 2.0), ("seed", True),
])
def test_counts_and_seed_must_be_ints(field, value):
    base = dict(n=20, phi=np.array([0.5]))
    with pytest.raises(ContractError, match=field):
        SynthSpec(**{**base, field: value})


@pytest.mark.parametrize("field, value", [
    ("phi", np.array([np.nan])), ("phi", np.array([0.5, np.inf])),
    ("beta", np.array([[[np.nan]]])), ("nu", np.array([-np.inf])),
    ("init_y", np.array([np.nan])), ("noise_sd", np.nan), ("noise_sd", np.inf),
    ("exog_rho", np.nan),
])
def test_non_finite_parameters_are_refused(field, value):
    base = dict(n=20, phi=np.array([0.5]), beta=np.array([[[0.3]]]))
    with pytest.raises(ContractError, match=f"{field} must be finite"):
        SynthSpec(**{**base, field: value})


@pytest.mark.parametrize("settings, message", [
    ({"start_date": "2001-02-30"}, "start_date"),   # names no day
    ({"start_date": "20010101"}, "start_date"),     # numpy reads a year
    ({"start_date": "2001-01-01 "}, "start_date"),
    ({"start_date": np.datetime64("2001-01-01")}, "start_date"),
    ({"start_date": "9999-12-30"}, "start_date"),   # runs into the year 10000
    ({"n": 10 ** 30}, "start_date"),                # past any int64 day
    ({"target_names": ("A", "B")}, "name tuples"),
    ({"exog_names": ("a",)}, "name tuples"),
], ids=["no-such-day", "numpy-year", "trailing-space", "not-a-string",
        "year-10000", "n-past-int64", "target-names", "exog-names"])
def test_spec_refuses_days_and_names_it_cannot_write(settings, message):
    # each of these used to construct, then fail after the whole recursion
    # or write a file load_csv rejects
    with pytest.raises(ContractError, match=message):
        SynthSpec(**{"n": 5, "phi": np.array([0.5]), **settings})


def test_series_may_end_on_the_last_day_load_csv_reads(tmp_path):
    frame, _ = simulate(SynthSpec(n=5, phi=np.array([0.5]),
                                  start_date="9999-12-27"))
    write_csv(frame, tmp_path / "s.csv")
    back = load_csv(tmp_path / "s.csv", ["Y1"])
    assert str(back.dates[-1]) == "9999-12-31"
    np.testing.assert_array_equal(back.targets, frame.targets)
