"""Acceptance suite: one test per criterion, every tolerance exact (zero residual).

Each test prints one `ACCEPTANCE nn <label>: PASS/FAIL` line (run with -s to
stream them).  Two criteria assert constants whose quoted values are provably
inconsistent with the rest of the contract; they are implemented verbatim and
marked strict-xfail, with companion tests pinning the corrected constants and
the exact discrepancy witnesses.  See notes on the sign of the canonical
weight-4 element (criterion 1) and the kappa -> c constant (criterion 10).
"""

import time
from fractions import Fraction as F

import pytest

from rclab.coeffsolve import (
    ATable,
    a2_family,
    a2_family_assoc,
    build_ident_system,
    degree_in_c,
    det2x2_direct,
    det2x2_lemma,
    induced_c_from_kappa,
    kappa_to_c,
    solve,
)
from rclab.exactcore import pochhammer
from rclab.forms import GradedForm, delta, eisenstein_form, phi_zagier
from rclab.nearlyholo import (
    combi_bracket,
    rc_bracket,
    verify_canonical_rc,
    verify_der_identity,
)
from rclab.rep import (
    Vector,
    act_lower,
    casimir,
    casimir_eigenvalue,
    degree_slice,
    lowest_weight_tensor,
    realize_and_multiply,
    triple_kernel_dim,
    verify_xi_lowest_weight,
)
from rclab.starprod import StarCoefficients, assoc_residual, ident_residual
from rclab.uniq import (
    fine_det3,
    p3_certify_report,
    random_uniqueness_search,
    rc_uniqueness_check,
)

KAPPA_SAMPLES = (F(1, 2), F(3, 2), F(2), F(5, 2))


def _report(num, label, ok):
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def _cat(prec):
    return {
        "E4": eisenstein_form(4, prec),
        "E6": eisenstein_form(6, prec),
        "Delta": delta(prec),
    }


PAIRS = (("E4", "E6"), ("E4", "Delta"), ("E6", "Delta"))


@pytest.mark.xfail(
    strict=True,
    reason="the quoted weight-4 element +E4/144 misses the degree-2 identity by "
    "kl(k+l+1)/18 * E4 f g; the identity holds with -E4/144 (see companion test)",
)
def test_criterion_01_canonical_identity_as_quoted():
    t0 = time.time()
    prec = 30
    cat = _cat(prec)
    phi = phi_zagier(prec)
    ok = all(
        verify_canonical_rc(cat[a], cat[b], 6, phi)["ok"] for a, b in PAIRS
    )
    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    assert _report(1, "canonical bracket identity (quoted element)", ok)


def test_criterion_01_canonical_identity_corrected_element():
    t0 = time.time()
    prec = 30
    cat = _cat(prec)
    phi = phi_zagier(prec).scale(-1)
    ok = all(
        verify_canonical_rc(cat[a], cat[b], 6, phi)["ok"] for a, b in PAIRS
    )
    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    # exact witness for the quoted sign at the first failing degree
    e4, e6 = cat["E4"], cat["E6"]
    from rclab.nearlyholo import canonical_rc

    diff = canonical_rc(e4, e6, 2, phi_zagier(prec)).series - rc_bracket(e4, e6, 2).series
    ok = ok and diff == (e4.series * e4.series * e6.series).scale(2)
    assert _report(1, "canonical bracket identity (corrected element)", ok)


def test_criterion_02_raising_operator_bracket_form():
    prec = 25
    cat = _cat(prec)
    ok = True
    try:
        for a, b in PAIRS:
            for n in range(6):
                combi_bracket(cat[a], cat[b], n)  # asserts holomorphy + equality
    except AssertionError:
        ok = False
    assert _report(2, "raising-operator bracket form, n <= 5", ok)


def test_criterion_03_derivative_expansion():
    prec = 25
    cat = _cat(prec)
    ok = all(verify_der_identity(f, m) for f in cat.values() for m in range(6))
    assert _report(3, "derivative expansion identity, m <= 5", ok)


def test_criterion_04_casimir_scalar():
    ok = True
    for w in (2, 4, 6, 12):
        ev = casimir_eigenvalue(w)
        k = w // 2
        ok = ok and ev == 4 * k * (k - 1)
        for n in range(11):
            v = Vector.basis((w,), (n,))
            ok = ok and (casimir(v) - v.scale(ev)).is_zero()
    assert _report(4, "casimir scalar 4k(k-1), n <= 10", ok)


def test_criterion_05_lowest_weight_vectors_and_realization():
    ok = all(
        act_lower(lowest_weight_tensor(x, y, n)).is_zero()
        for n in range(9)
        for x in (2, 4, 6, 8)
        for y in (2, 6, 12)
    )
    prec = 20
    e4 = eisenstein_form(4, prec)
    e6 = eisenstein_form(6, prec)
    for n in range(5):
        got = realize_and_multiply(lowest_weight_tensor(4, 6, n), e4, e6)
        want = rc_bracket(e4, e6, n).series.scale(1 / (pochhammer(4, n) * pochhammer(6, n)))
        ok = ok and got.is_holomorphic() and got.ypoly[0] == want
    assert _report(5, "lowest-weight vectors and bracket realization", ok)


def test_criterion_06_triple_space_dimensions_and_xi():
    ok = all(
        len(degree_slice(n)) == (n + 1) * (n + 2) // 2
        and triple_kernel_dim((4, 4, 6), n) == n + 1
        for n in range(9)
    )
    prec = 15
    cat = _cat(prec)
    for names in (("E4", "E4", "E6"), ("E4", "E6", "Delta")):
        f, g, h = (cat[x] for x in names)
        ok = ok and all(
            verify_xi_lowest_weight(f, g, h, n, p) for n in range(4) for p in range(n + 1)
        )
    assert _report(6, "triple-space dimensions and concrete kernel vectors", ok)


def test_criterion_07_coefficient_identities_for_classical_family():
    t0 = time.time()
    ok = True
    for kappa in KAPPA_SAMPLES:
        table = ATable.from_kappa(kappa, 5, 40)
        for n in range(6):
            for p in range(n + 1):
                for k in range(1, 5):
                    for l in range(1, 5):
                        for m in range(1, 5):
                            if ident_residual(table, k, l, m, n, p) != 0:
                                ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    assert _report(7, "coefficient identities for the classical family, n <= 5", ok)


def test_criterion_08_constant_coefficient_associativity():
    prec = 20
    cat = _cat(prec)
    eh = StarCoefficients.eholzer()
    ok = True
    for names in (("E4", "E4", "E6"), ("E4", "E6", "Delta")):
        f, g, h = (GradedForm.from_form(cat[x]) for x in names)
        ok = ok and assoc_residual(f, g, h, eh, 4).is_zero()
    assert _report(8, "constant-coefficient product associative to order 4", ok)


def test_criterion_09_uniqueness_of_coefficients():
    known1 = ATable.eholzer(1, 40)
    sys2 = build_ident_system(2, 6, known1)
    res2 = solve(sys2)
    ok = res2.consistent and res2.nullity == 1
    if ok:
        vec = res2.null_basis[0]
        i0 = sys2.variables.index((2, 2))
        scale = F(4, 5) / vec[i0]
        ok = all(
            vec[i] * scale == F(p[0] * p[1], p[0] + p[1] + 1)
            for i, p in enumerate(sys2.variables)
        )
    table = ATable.eholzer(5, 40)
    for n in (3, 4, 5):
        resn = solve(build_ident_system(n, 6, table))
        ok = ok and resn.consistent and resn.nullity == 0
    degrees = [degree_in_c(n, (4, 4), list(range(n + 1))) for n in (2, 3, 4)]
    ok = ok and degrees == [1, 1, 2]
    assert _report(9, "global solve nullities 1/0/0/0 and degree in c", ok)


@pytest.mark.xfail(
    strict=True,
    reason="the quoted constant -3+4k-k^2 is asymmetric under kappa -> 2-kappa "
    "while the coefficient family is symmetric; the induced kernel coordinate "
    "is 4k^2-8k+3 (see companion test)",
)
def test_criterion_10_kappa_c_correspondence_as_quoted():
    ok = True
    for kappa in KAPPA_SAMPLES:
        fam = a2_family(kappa_to_c(kappa))
        table = ATable.from_kappa(kappa, 2, 8)
        for a in range(1, 5):
            for b in range(1, 5):
                if fam(2 * a, 2 * b) != table.get(2, 2 * a, 2 * b):
                    ok = False
    assert _report(10, "kappa -> c correspondence (quoted constant)", ok)


def test_criterion_10_kappa_c_correspondence_induced():
    ok = True
    for kappa in KAPPA_SAMPLES + (F(1), F(3), F(7, 3)):
        want = induced_c_from_kappa(kappa)
        fam = a2_family_assoc(want)
        table = ATable.from_kappa(kappa, 2, 8)
        for a in range(1, 5):
            for b in range(1, 5):
                if fam(2 * a, 2 * b) != table.get(2, 2 * a, 2 * b):
                    ok = False
    assert _report(10, "kappa -> c correspondence (induced constant 4k^2-8k+3)", ok)


def test_criterion_11_determinant_certificates():
    ok = True
    for n in range(3, 7):
        for k in range(1, 6):
            for l in range(1, 6):
                for m in range(1, 6):
                    v = det2x2_lemma(n, k, l, m)
                    ok = ok and v == det2x2_direct(n, k, l, m) and v < 0
    for k in range(1, 7):
        for l in range(1, 7):
            for m in range(k, 7):
                ok = ok and fine_det3(k, l, m) < 0
    assert _report(11, "determinant certificates negative", ok)


def test_criterion_12_positivity_certificate():
    rep = p3_certify_report()
    ok = (
        rep["substituted_all_positive"]
        and rep["coeff_k5_l"] == 48
        and rep["coeff_l2_m8"] == 1536
        and len(rep["inner_diff"]) == 0
        and len(rep["substituted_diff"]) == 0
    )
    assert _report(12, "substituted cubic has all-positive coefficients", ok)


def test_criterion_13_factorization_uniqueness():
    t0 = time.time()
    prec = 15
    e4 = eisenstein_form(4, prec)
    e6 = eisenstein_form(6, prec)
    f1 = GradedForm.from_form(e4) + GradedForm.from_form(e6)
    g1 = GradedForm.from_form(e6)
    res = rc_uniqueness_check(f1, g1, f1.scale(F(2, 7)), g1.scale(F(7, 2)), 3, prec)
    ok = res["proportional"] and res["C"] == F(7, 2)
    stats = random_uniqueness_search(1000, order=3, prec=15, seed0=0)
    ok = ok and stats["counterexamples"] == 0 and stats["recovered_constants"] > 0
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    assert _report(13, "factorization uniqueness, 1000 seeded instances", ok)
