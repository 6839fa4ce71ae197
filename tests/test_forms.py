from fractions import Fraction as F

import pytest
from oracles import sigma_oracle

from rclab.exactcore import QSeries
from rclab.forms import (
    GradedForm,
    ModularForm,
    delta,
    eisenstein,
    eisenstein_form,
    eta_log_derivative,
    form_by_name,
    phi_zagier,
    sigma,
)


def test_eisenstein_normalization_and_coefficients():
    e4 = eisenstein(4, 8)
    assert e4.coeff(0) == 1
    assert e4.coeff(1) == 240 * sigma_oracle(1, 3) == 240
    e6 = eisenstein(6, 8)
    assert e6.coeff(2) == -504 * sigma_oracle(2, 5) == -16632
    e2 = eisenstein(2, 8)
    assert [e2.coeff(i) for i in range(3)] == [1, -24, -72]
    for w in (2, 4, 6):
        got = eisenstein(w, 9)
        scale = {2: -24, 4: 240, 6: -504}[w]
        assert all(got.coeff(n) == scale * sigma_oracle(n, w - 1) for n in range(1, 9))


def test_eisenstein_rejects_other_weights():
    with pytest.raises(ValueError):
        eisenstein(8, 5)
    with pytest.raises(ValueError):
        eisenstein_form(2, 5)  # quasi-modular, not a ModularForm


def test_delta_expansion():
    d = delta(8)
    assert d.weight == 12
    assert d.series.coeff(0) == 0
    assert d.series.coeff(1) == 1
    assert d.series.coeff(2) == -24
    # independent route: the discriminant relation
    e4, e6 = eisenstein_form(4, 8), eisenstein_form(6, 8)
    assert ((e4 * e4 * e4).series - (e6 * e6).series).scale(F(1, 1728)) == d.series


def test_delta_matches_product_of_series():
    # the definition q prod_n (1 - q^n)^24 as QSeries products, factor by factor
    for prec in (2, 3, 15, 30, 64):
        euler = QSeries.one(prec - 1)
        for n in range(1, prec - 1):
            euler = euler * QSeries.from_numerators([1] + [0] * (n - 1) + [-1] + [0] * (prec - 2 - n))
        assert delta(prec).series == euler.pow(24).shift(1)


def test_discriminant_relation_across_precisions():
    for prec in (2, 5, 17, 64):
        e4, e6, d = eisenstein_form(4, prec), eisenstein_form(6, prec), delta(prec)
        assert (e4 * e4 * e4).series - (e6 * e6).series == d.series.scale(1728)


def test_generators_are_prefix_stable():
    # building at a smaller prec gives the truncation of the bigger build,
    # so the identity above at prec 64 certifies every smaller prec too
    big = {"E4": eisenstein(4, 64), "E6": eisenstein(6, 64), "Delta": delta(64).series}
    for prec in (2, 3, 7, 31):
        assert eisenstein(4, prec) == big["E4"].truncate(prec)
        assert eisenstein(6, prec) == big["E6"].truncate(prec)
        assert delta(prec).series == big["Delta"].truncate(prec)


def test_phi_zagier():
    phi = phi_zagier(6)
    assert phi.weight == 4
    assert phi.series.coeff(0) == F(1, 144)
    assert phi.series.coeff(1) == F(240, 144) == F(5, 3)
    assert phi.series.scale(144) == eisenstein(4, 6)


def test_eta_log_derivative():
    eta = eta_log_derivative(10)
    assert eta.coeff(0) == F(1, 6)
    assert eta.coeff(1) == -4
    assert eta.scale(6) == eisenstein(2, 10)


def test_graded_form_mul():
    prec = 10
    e4 = eisenstein_form(4, prec)
    e6 = eisenstein_form(6, prec)
    one = GradedForm.from_form(ModularForm(0, QSeries.one(prec)))
    f = GradedForm.from_form(e4)
    assert f * one == f
    sq = f * f
    assert sq.weights() == [8]
    assert sq.parts[8].series == (e4 * e4).series
    mixed = (GradedForm.from_form(e4) + GradedForm.from_form(e6)) * f
    assert mixed.weights() == [8, 10]
    assert mixed.parts[8].series == (e4 * e4).series
    assert mixed.parts[10].series == (e6 * e4).series


def test_graded_form_drops_zero_parts():
    prec = 6
    z = ModularForm(4, QSeries.zero(prec))
    assert GradedForm.from_form(z).is_zero()


def test_form_catalogue():
    assert form_by_name("E4", 5).weight == 4
    assert form_by_name("delta", 5).weight == 12
    assert form_by_name("E10", 5).weight == 10
    with pytest.raises(ValueError):
        form_by_name("E13", 5)


def test_sigma_guard():
    with pytest.raises(ValueError):
        sigma(0, 1)
