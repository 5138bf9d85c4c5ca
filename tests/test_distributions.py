"""Distribution families: closed-form anchors, truncation, histogram fits."""

import math
import re

import numpy as np
import pytest

from metaprice.distributions import (Histogram, burr_xii, cdf, fit_empirical, gpd, mean, pdf,
                                     read_samples, tabulate_pdf, truncated_normal,
                                     uniform)
from metaprice.grid import make_grid

GRID = make_grid(0, 10, 50, 200)


def cdf_reference(spec, x):
    """The truncated cdf with the family's value at ``lo`` computed inside the call."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    base = spec.family.raw_cdf(np.asarray([spec.lo]))[0]
    out = np.clip((spec.family.raw_cdf(np.clip(arr, spec.lo, spec.hi)) - base) / spec._norm, 0.0, 1.0)
    return float(out[0]) if scalar else out


def families(lo, hi, grid):
    """One spec of each family on ``[lo, hi]``; the empirical one is fitted on ``grid``."""
    draws = np.random.default_rng(19).pareto(1.0, 400) + lo
    return {"gpd_1": gpd(0, 1, 1.0, lo, hi), "gpd_-0.1": gpd(0, 1, -0.1, lo, hi),
            "gpd_1e-9": gpd(0, 1, 1e-9, lo, hi), "gpd_shifted": gpd(0.5, 2, 0.3, lo, hi),
            "burr": burr_xii(3, 2, lo, hi), "normal": truncated_normal(5, 1.5, lo, hi),
            "normal_spike": truncated_normal(4.02, 0.01, lo, hi), "uniform": uniform(lo, hi),
            "empirical": fit_empirical(draws[draws <= hi], grid)}


WINDOWS = [(0.0, 10.0, GRID), (1.0, 7.0, make_grid(1, 7, 30, 200))]


def gpd_inverse_cdf(u, scale=1.0, shape=1.0):
    """Closed-form quantile of the untruncated generalized Pareto at location 0."""
    if abs(shape) < 1e-12:
        return -scale * np.log1p(-u)
    return scale * (np.power(1.0 - u, -shape) - 1.0) / shape


class TestGPD:
    def test_exponential_density_at_zero(self):
        # truncating at 50 leaves the exponential essentially untouched
        f = gpd(0, 1, 0.0, 0, 50)
        assert pdf(f, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_exponential_median(self):
        f = gpd(0, 1, 0.0, 0, 50)
        assert cdf(f, math.log(2.0)) == pytest.approx(0.5, abs=1e-9)

    def test_negative_shape_support_bound(self):
        # shape -0.1, scale 1: support ends at -scale/shape = 10
        f = gpd(0, 1, -0.1, 0, 20)
        assert pdf(f, 10.5) == 0.0
        assert pdf(f, 9.99) > 0.0
        # numeric cdf saturation past the support bound
        assert cdf(f, 10.0) == pytest.approx(1.0, abs=1e-12)
        assert cdf(f, 15.0) == pytest.approx(1.0, abs=1e-12)

    def test_shape_to_zero_matches_exponential(self):
        f_eps = gpd(0, 1, 1e-9, 0, 10)
        f_exp = gpd(0, 1, 0.0, 0, 10)
        xs = np.linspace(0, 10, 97)
        assert np.max(np.abs(pdf(f_eps, xs) - pdf(f_exp, xs))) < 1e-4

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            gpd(0, 0.0, 1.0, 0, 10)
        with pytest.raises(ValueError):
            gpd(0, -1.0, 1.0, 0, 10)


class TestBurrXII:
    def test_cdf_closed_form_at_one(self):
        # untruncated Burr XII(c=2, k=1): cdf(1) = 1 - (1 + 1)^(-1) = 0.5
        f = burr_xii(2, 1, 0, 1e9)
        assert cdf(f, 1.0) == pytest.approx(0.5, rel=1e-9)

    def test_matches_gpd_when_c_is_one(self):
        # BurrXII(1, k, lam) == GPD(location 0, scale lam/k, shape 1/k)
        k, lam = 2.0, 3.0
        f_burr = burr_xii(1, k, 0, 10, scale=lam)
        f_gpd = gpd(0, lam / k, 1 / k, 0, 10)
        xs = np.linspace(0.01, 10, 211)
        assert np.max(np.abs(pdf(f_burr, xs) - pdf(f_gpd, xs))) < 1e-6

    def test_density_zero_at_nonpositive_arguments(self):
        f = burr_xii(2, 1, 0, 10)
        assert pdf(f, 0.0) == 0.0
        assert pdf(f, -1.0) == 0.0


class TestTruncation:
    @pytest.mark.parametrize("spec", [
        gpd(0, 1, 1.0, 0, 10),
        gpd(0, 1, -0.1, 0, 10),
        burr_xii(2, 1, 0, 10),
        truncated_normal(3, 2, 0, 10),
        uniform(0, 10),
    ])
    def test_cdf_normalization(self, spec):
        assert cdf(spec, spec.hi) == pytest.approx(1.0, abs=1e-9)
        assert cdf(spec, spec.lo) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_quartile(self):
        assert cdf(uniform(0, 10), 2.5) == pytest.approx(0.25)

    def test_pdf_nonnegative_cdf_monotone(self):
        xs = np.linspace(-1, 11, 301)
        for spec in (gpd(0, 1, 1.0, 0, 10), burr_xii(2, 1, 0, 10), truncated_normal(5, 1, 0, 10)):
            assert np.all(pdf(spec, xs) >= 0.0)
            assert np.all(np.diff(cdf(spec, xs)) >= -1e-12)

    def test_cdf_derivative_matches_pdf(self):
        eps = 1e-6
        xs = GRID.mids
        for spec in (gpd(0, 1, 1.0, 0, 10), burr_xii(2, 1, 0, 10), truncated_normal(5, 2, 0, 10)):
            deriv = (cdf(spec, xs + eps) - cdf(spec, xs - eps)) / (2 * eps)
            assert np.max(np.abs(deriv - pdf(spec, xs))) < 1e-3

    @pytest.mark.parametrize("name", list(families(0, 10, GRID)))
    def test_cdf_keeps_the_bytes_of_its_value_at_lo_computed_in_each_call(self, name):
        # on [1, 7] every parametric family's cdf is nonzero at lo, so dropping the offset fails
        for lo, hi, grid in WINDOWS:
            spec = families(lo, hi, grid)[name]
            xs = np.concatenate((np.linspace(lo - 1, hi + 1, 257), [lo, hi, np.nextafter(lo, hi)]))
            assert cdf(spec, xs).tobytes() == cdf_reference(spec, xs).tobytes()
            for x in xs[::8].tolist():
                got = cdf(spec, x)
                assert type(got) is float and got.hex() == cdf_reference(spec, x).hex(), x

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            truncated_normal(0, 1e-6, 5, 10)  # no mass that far out


class TestMean:
    def test_uniform(self):
        assert mean(uniform(0, 10), GRID) == pytest.approx(5.0, abs=1e-6)

    def test_truncated_exponential_closed_form(self):
        f = gpd(0, 1, 0.0, 0, 10)
        expected = (1 - 11 * math.exp(-10)) / (1 - math.exp(-10))
        assert mean(f, GRID) == pytest.approx(expected, abs=1e-6)

    def test_spike_concentration(self):
        f = truncated_normal(3, 1e-4, 0, 10)
        assert mean(f, GRID) == pytest.approx(3.0, abs=1e-3)


class TestEmpirical:
    def test_point_mass_lands_in_right_bin(self):
        f = fit_empirical([5.0] * 40, GRID)
        dens = f.family.densities
        top = int(np.argmax(dens))
        assert GRID.edges[top] <= 5.0 <= GRID.edges[top + 1]
        assert cdf(f, GRID.edges[top + 1]) - cdf(f, GRID.edges[top]) == pytest.approx(1.0, abs=1e-9)

    def test_recovers_gpd_density(self):
        # sampling oracle at bin resolution: a piecewise-constant histogram
        # cannot beat the within-bin variation of the true pdf pointwise, so
        # the fitted per-bin mass is compared against the exact cdf increments
        rng = np.random.RandomState(42)
        draws = gpd_inverse_cdf(rng.uniform(size=40000))
        draws = draws[(draws >= 0) & (draws <= 10)][:10000]
        fitted = fit_empirical(draws, GRID)
        truth = gpd(0, 1, 1.0, 0, 10)
        fit_mass = fitted.family.densities * GRID.width
        true_mass = np.asarray(cdf(truth, GRID.edges[1:])) - np.asarray(cdf(truth, GRID.edges[:-1]))
        assert np.abs(fit_mass - true_mass).sum() < 0.05

    def test_drops_outside_samples_with_count(self):
        f = fit_empirical([5.0, 5.0, -3.0, 12.0], GRID)
        assert f.family.dropped == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_empirical([], GRID)

    def test_all_outside_rejected(self):
        with pytest.raises(ValueError):
            fit_empirical([-1.0, 11.0], GRID)

    def test_sample_file_reader(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text("1.5\n\n2.5\n3.5\n")
        assert read_samples(path) == [1.5, 2.5, 3.5]
        bad = tmp_path / "bad.txt"
        bad.write_text("1.5\nnot-a-number\n")
        with pytest.raises(ValueError):
            read_samples(bad)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_sample_file_reader_rejects_non_finite_lines(self, tmp_path, text):
        # float() parses these; a fit would drop them as if outside the window
        path = tmp_path / "samples.txt"
        path.write_text(f"1.5\n{text}\n2.5\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: not a finite number: {text!r}$"):
            read_samples(path)

    @pytest.mark.parametrize("text", ["1_5", "\u0661\u0665", "\uff11\uff15"], ids=["underscore", "arabic_indic", "fullwidth"])
    def test_sample_file_reader_takes_only_ascii_decimals(self, tmp_path, text):
        # float() reads digit-group underscores and non-ASCII digits: each of these would read as 15
        path = tmp_path / "samples.txt"
        path.write_text(f"1.5\n{text}\n2.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: not a number: {re.escape(repr(text))}$"):
            read_samples(path)

    def test_sample_file_reader_takes_every_plain_decimal(self, tmp_path):
        lines = ["+1E3", "-0.5", ".5", "5.", "7", "2e-3", repr(0.1), repr(1e-300), repr(-2.5e300), repr(1 / 3)]
        path = tmp_path / "samples.txt"
        path.write_text("".join(f"{line}\n" for line in lines))
        assert read_samples(path) == [float(line) for line in lines]


def test_tabulated_pdf_unit_mass():
    for spec in (gpd(0, 1, 1.0, 0, 10), burr_xii(2, 1, 0, 10), uniform(0, 10)):
        assert tabulate_pdf(spec, GRID).mass() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("build, message", [
    (lambda: burr_xii(0.0, 1.0, 0, 10), "Burr XII shape parameters must be positive"),
    (lambda: burr_xii(2.0, -1.0, 0, 10), "Burr XII shape parameters must be positive"),
    (lambda: burr_xii(2.0, 1.0, 0, 10, scale=0.0), "Burr XII scale must be positive"),
    (lambda: truncated_normal(5.0, 0.0, 0, 10), "normal stddev must be positive"),
    (lambda: Histogram(np.array([0.0, 1.0, 2.0]), np.array([1.0])), r"len\(edges\) == len\(densities\) \+ 1"),
    (lambda: Histogram(np.array([0.0, 1.0]), np.array([-1.0])), "histogram densities must be nonnegative"),
    (lambda: uniform(0.0, math.inf), "bad truncation window"),
    (lambda: uniform(5.0, 1.0), "bad truncation window"),
    (lambda: mean(uniform(20.0, 30.0), GRID), "no mass on the grid"),
], ids=["burr_c", "burr_k", "burr_scale", "normal_stddev", "histogram_lengths", "histogram_negative",
        "window_infinite", "window_inverted", "mean_off_the_grid"])
def test_input_checks_name_what_is_wrong(build, message):
    with pytest.raises(ValueError, match=message):
        build()
