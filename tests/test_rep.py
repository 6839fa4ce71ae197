import random
from fractions import Fraction as F

import pytest
from oracles import (
    _lowest_weight_tensor_times_n_factorial,
    _shimura_X_y_term_off_by_one,
    ref_binom,
    ref_dtil_chain,
    ref_pochhammer,
    ref_raise,
    ref_ypoly_add,
    ref_ypoly_mul,
    ref_ypoly_scale,
)

from rclab import nearlyholo
from rclab.exactcore import QSeries, pochhammer
from rclab.forms import ModularForm
from rclab.nearlyholo import NearlyHoloForm, dtil_chain, lower as nh_lower, rc_bracket
from rclab.rep import (
    Vector,
    act_lower,
    act_raise,
    act_weight,
    casimir,
    casimir_eigenvalue,
    degree_slice,
    lowest_weight_tensor,
    realize_and_multiply,
    triple_kernel_dim,
    triple_preimage,
    xi_vectors,
)


def test_raise_lower_weight_basics():
    phi0 = Vector.basis((4,), (0,))
    assert act_raise(phi0).as_dict() == {(1,): F(4)}
    assert act_raise(act_raise(phi0)).as_dict() == {(2,): F(20)}
    assert act_raise(Vector.make((4,), {})).is_zero()
    assert act_lower(phi0).is_zero()
    assert act_lower(Vector.basis((4,), (1,))).as_dict() == {(0,): F(-1)}
    assert act_weight(phi0).as_dict() == {(0,): F(4)}
    assert act_weight(Vector.basis((4,), (3,))).as_dict() == {(3,): F(10)}


def test_vector_rejects_bad_keys_and_mixed_modules():
    with pytest.raises(ValueError):
        Vector.make((4, 6), {(1, -1): F(1)})
    with pytest.raises(ValueError):
        Vector.make((4, 6), {(1,): F(1)})
    with pytest.raises(ValueError):
        Vector.basis((4,), (0,)) + Vector.basis((6,), (0,))
    assert Vector.make((4, 6), {(1, -1): F(0)}).is_zero()  # zero terms are dropped first


def test_weight_operator_is_diagonal():
    v = Vector.make((6,), {(1,): F(2), (4,): F(-1)})
    assert act_weight(v).as_dict() == {(1,): F(2 * 8), (4,): F(-14)}


def _random_vector(rng, weights):
    return Vector.make(
        weights,
        {
            tuple(rng.randrange(9) for _ in weights): F(rng.randint(-9, 9), rng.randint(1, 5))
            for _ in range(4)
        },
    )


def test_sl2_relations_on_random_vectors():
    # the slot-wise (coproduct) action on tensor and triple vectors obeys them too
    rng = random.Random(17)
    for weights in ((2,), (4,), (6,), (12,), (4, 6), (4, 4, 6)):
        for _ in range(6):
            v = _random_vector(rng, weights)
            lr = act_lower(act_raise(v)) - act_raise(act_lower(v))
            assert (lr + act_weight(v)).is_zero()
            hr = act_weight(act_raise(v)) - act_raise(act_weight(v))
            assert (hr - act_raise(v).scale(2)).is_zero()
            hl = act_weight(act_lower(v)) - act_lower(act_weight(v))
            assert (hl + act_lower(v).scale(2)).is_zero()


def test_casimir_scalar_action():
    for w in (2, 4, 6, 12):
        ev = casimir_eigenvalue(w)
        assert ev == w * (w - 2)
        for n in range(11):
            v = Vector.basis((w,), (n,))
            assert (casimir(v) - v.scale(ev)).is_zero()
    assert casimir_eigenvalue(2) == 0
    assert casimir_eigenvalue(4) == 8
    assert casimir_eigenvalue(12) == 120


def test_casimir_commutes_with_generators():
    rng = random.Random(23)
    for weights in ((4,), (10,), (2, 8)):
        for _ in range(4):
            v = _random_vector(rng, weights)
            for op in (act_raise, act_lower, act_weight):
                assert (casimir(op(v)) - op(casimir(v))).is_zero()


def test_lower_of_raise_chain():
    for w in (2, 4, 12):
        for n in range(1, 11):
            v = Vector.basis((w,), (0,))
            rn = v
            for _ in range(n):
                rn = act_raise(rn)
            want = v
            for _ in range(n - 1):
                want = act_raise(want)
            assert (act_lower(rn) - want.scale(-n * (w + n - 1))).is_zero()


def test_lowest_weight_tensor_shape():
    assert lowest_weight_tensor(4, 6, 0).as_dict() == {(0, 0): F(1)}
    assert lowest_weight_tensor(4, 6, 1).as_dict() == {(0, 1): F(1), (1, 0): F(-1)}


@pytest.mark.parametrize("n", range(9))
def test_lowest_weight_tensor_killed(n):
    for x, y in ((2, 2), (4, 6), (8, 12)):
        assert act_lower(lowest_weight_tensor(x, y, n)).is_zero()


def test_act_lower_on_tensor_basics():
    v = Vector.make((4, 6), {(0, 0): F(1)})
    assert act_lower(v).is_zero()
    v = Vector.make((4, 6), {(1, 0): F(1)})
    assert act_lower(v).as_dict() == {(0, 0): F(-1)}
    rng = random.Random(3)
    a = Vector.make((4, 6), {(rng.randrange(4), rng.randrange(4)): F(rng.randint(1, 5)) for _ in range(3)})
    b = Vector.make((4, 6), {(rng.randrange(4), rng.randrange(4)): F(rng.randint(1, 5)) for _ in range(3)})
    assert act_lower(a + b).as_dict() == (act_lower(a) + act_lower(b)).as_dict()


def test_realization_degree_zero_and_one(catalogue):
    e4, e6 = catalogue["E4"].truncate(20), catalogue["E6"].truncate(20)
    fs, gs = dtil_chain(e4, 1), dtil_chain(e6, 1)
    got = realize_and_multiply(lowest_weight_tensor(4, 6, 0), fs, gs)
    assert got.is_holomorphic()
    assert got.ypoly[0] == (e4 * e6).series
    got1 = realize_and_multiply(lowest_weight_tensor(4, 6, 1), fs, gs)
    assert got1.is_holomorphic()
    assert got1.ypoly[0] == rc_bracket(e4, e6, 1).series.scale(F(1, 24))


@pytest.mark.parametrize("n", range(5))
def test_realization_matches_scaled_bracket(catalogue, n):
    e4, d = catalogue["E4"].truncate(20), catalogue["Delta"].truncate(20)
    fs, gs = dtil_chain(e4, n), dtil_chain(d, n)
    got = realize_and_multiply(lowest_weight_tensor(4, 12, n), fs, gs)
    want = rc_bracket(e4, d, n).series.scale(1 / (pochhammer(4, n) * pochhammer(12, n)))
    assert got.is_holomorphic()
    assert got.ypoly[0] == want
    # no bracket here is zero, unlike [E4, E6]_2 in S_14 = 0, so every degree checks the scale:
    # the realization without the 1/n! first differs at n = 2
    assert not want.is_zero()
    scaled = realize_and_multiply(_lowest_weight_tensor_times_n_factorial(4, 12, n), fs, gs)
    assert (scaled.ypoly[0] == want) is (n < 2)


def test_realization_weight_mismatch(catalogue):
    fs, gs = dtil_chain(catalogue["E4"], 1), dtil_chain(catalogue["E6"], 1)
    with pytest.raises(ValueError):
        realize_and_multiply(lowest_weight_tensor(4, 4, 1), fs, gs)
    # terms of two total degrees have two weights
    with pytest.raises(ValueError):
        realize_and_multiply(Vector.make((4, 6), {(1, 0): 1, (1, 1): 1}), fs, gs)


def test_act_lower_on_triple_basics():
    w = (4, 4, 6)
    assert act_lower(Vector.basis(w, (0, 0, 0))).is_zero()
    assert act_lower(Vector.basis(w, (1, 0, 0))).as_dict() == {(0, 0, 0): F(-1)}
    v = act_lower(Vector.basis(w, (1, 2, 0)))
    assert v.as_dict() == {(0, 2, 0): F(-1), (1, 1, 0): F(-2)}


@pytest.mark.parametrize("n", range(9))
def test_triple_dimensions(n):
    assert len(degree_slice(n)) == (n + 1) * (n + 2) // 2
    assert triple_kernel_dim((4, 4, 6), n) == n + 1


def test_act_lower_surjective_on_triple_slices():
    # rank = slice - kernel must equal the dimension one degree down
    for n in range(1, 7):
        rank = len(degree_slice(n)) - triple_kernel_dim((2, 4, 8), n)
        assert rank == len(degree_slice(n - 1))


def test_triple_preimage_explicit_and_random():
    v = triple_preimage((0, 0, 0))
    assert v.as_dict() == {(1, 0, 0): F(1)}
    # every target of degree <= 4, then 30 drawn ones of degree up to 24
    rng = random.Random(41)
    drawn = [tuple(rng.randint(0, 8) for _ in range(3)) for _ in range(30)]
    for tgt in [t for n in range(5) for t in degree_slice(n)] + drawn:
        pre = triple_preimage(tgt)
        # act_lower(pre) = -target, by the scaled convention
        assert act_lower(pre).as_dict() == {tgt: F(-1)}, tgt
        assert all(key[0] >= tgt[0] + 1 for key in pre.as_dict())


def test_xi_degree_zero_is_plain_product(catalogue):
    e4, e6, d = (catalogue[k].truncate(15) for k in ("E4", "E6", "Delta"))
    ((key, xi),) = xi_vectors(e4, e6, d, 0).items()
    assert key == (0, 0) and xi.is_holomorphic()
    assert xi.ypoly[0] == (e4 * e6 * d).series.truncate(15)
    assert nh_lower(xi).is_zero()


@pytest.mark.parametrize("n,p", [(n, p) for n in range(4) for p in range(n + 1)])
def test_xi_is_lowest_weight_concretely(catalogue, n, p):
    e4 = catalogue["E4"].truncate(15)
    e6 = catalogue["E6"].truncate(15)
    d = catalogue["Delta"].truncate(15)
    assert nh_lower(xi_vectors(e4, e4, e6, n)[n, p]).is_zero()
    assert nh_lower(xi_vectors(e4, e6, d, n)[n, p]).is_zero()


def test_xi_rejects_bad_indices(catalogue):
    e4 = catalogue["E4"]
    with pytest.raises(ValueError):
        xi_vectors(e4, e4, e4, -1)


# the realization and the xi vectors by the Y-polynomial reference


def _parts(F: NearlyHoloForm) -> list[tuple]:
    return [s.coeffs for s in F.ypoly]


def _ref_chain(f: ModularForm, top: int) -> list[list[tuple]]:
    return ref_dtil_chain([f.series.coeffs], f.weight, top)


def _ref_realize(support, fs: list, gs: list) -> list[tuple]:
    """sum c dtil^r f dtil^s g over the terms ((r, s), c), from the normalized chains fs and gs."""
    out = [(0,) * min(len(fs[0][0]), len(gs[0][0]))]
    for (r, s), c in support:
        out = ref_ypoly_add(out, ref_ypoly_scale(ref_ypoly_mul(fs[r], gs[s]), c))
    return out


def _ref_xi_vectors(f: ModularForm, g: ModularForm, h: ModularForm, n_max: int) -> dict:
    """xi_(n,p) = sum_s (-1)^s C(p, s) [X^s w / (B)_s] dtil^(p-s) h, with nu = n - p,
    w = sum_r (-1)^r C(nu, r) dtil^(nu-r) f dtil^r g and B = x + y + 2 nu."""
    fs, gs, hs = (_ref_chain(form, n_max) for form in (f, g, h))
    out = {}
    for n in range(n_max + 1):
        for p in range(n + 1):
            nu = n - p
            w = _ref_realize([((nu - r, r), (-1) ** r * ref_binom(nu, r)) for r in range(nu + 1)], fs, gs)
            B = f.weight + g.weight + 2 * nu
            xs = [w]
            for s in range(p):
                xs.append(ref_raise(xs[-1], B + 2 * s))
            ws = [ref_ypoly_scale(x, F(1, ref_pochhammer(B, s))) for s, x in enumerate(xs)]
            out[n, p] = _ref_realize([((s, p - s), (-1) ** s * ref_binom(p, s)) for s in range(p + 1)], ws, hs)
    return out


@pytest.mark.parametrize(
    "names",
    [("E4", "E4", "E6"), ("E4", "E6", "Delta"), ("E6", "Delta", "E4"), ("Delta", "Delta", "Delta")],
    ids="-".join,
)
def test_xi_matches_the_per_power_oracle(catalogue, names):
    # unequal precisions, so that every truncation of the oracle is exercised
    f, g, h = (catalogue[name].truncate(prec) for name, prec in zip(names, (14, 13, 15)))
    xis = xi_vectors(f, g, h, 5)
    assert list(xis) == [(n, p) for n in range(6) for p in range(n + 1)]
    want = _ref_xi_vectors(f, g, h, 5)
    for (n, p), got in xis.items():
        assert got.weight == f.weight + g.weight + h.weight + 2 * n and _parts(got) == want[n, p], (n, p)


@pytest.mark.parametrize("pair", [("E4", "E6"), ("E6", "Delta"), ("Delta", "E4")], ids="-".join)
def test_realization_matches_the_per_power_oracle(catalogue, pair):
    f, g = catalogue[pair[0]].truncate(16), catalogue[pair[1]].truncate(14)
    fs, gs = dtil_chain(f, 6), dtil_chain(g, 6)
    ref_fs, ref_gs = _ref_chain(f, 6), _ref_chain(g, 6)
    # the lowest-weight vectors, vectors that are not lowest-weight, one total degree each, and
    # the zero vector
    rng = random.Random(5)
    for n in range(7):
        keys = rng.sample(range(n + 1), rng.randint(0, n + 1))
        coeffs = {(r, n - r): F(rng.randint(-9, 9), rng.randint(1, 4)) for r in keys}
        for v in (lowest_weight_tensor(f.weight, g.weight, n), Vector.make((f.weight, g.weight), coeffs)):
            got = realize_and_multiply(v, fs, gs)
            assert got.weight == f.weight + g.weight + 2 * (n if v.support else 0)
            assert _parts(got) == _ref_realize(v.support, ref_fs, ref_gs)


def test_weight_zero_factors_still_raise(catalogue):
    const = ModularForm(0, QSeries.constant(1, 12))
    e4 = catalogue["E4"].truncate(12)
    # (0)_r = 0 for r >= 1: no normalized chain of a weight-0 factor reaches degree 1
    for top in (1, 2):
        for chain in (dtil_chain, _ref_chain):
            with pytest.raises(ValueError):
                chain(const, top)
    # degree 0 reads no raise, so a weight-0 factor is fine there
    v0 = lowest_weight_tensor(0, 4, 0)
    got = realize_and_multiply(v0, dtil_chain(const, 0), dtil_chain(e4, 0))
    assert _parts(got) == _ref_realize(v0.support, _ref_chain(const, 0), _ref_chain(e4, 0))
    for n in (1, 2):
        with pytest.raises(ValueError):
            _ref_xi_vectors(const, e4, const, n)
        with pytest.raises(ValueError):
            xi_vectors(const, e4, const, n)
    assert list(xi_vectors(const, e4, const, 0)) == list(_ref_xi_vectors(const, e4, const, 0)) == [(0, 0)]


@pytest.mark.parametrize("patched", [False, True], ids=["unpatched", "shimura_X-y-term-off-by-one"])
def test_xi_vectors_match_the_per_degree_oracle(catalogue, monkeypatch, patched):
    # the catalogue triples of `verify triple`, at its precision; under a raise wrong from X^2 on
    # the library builds wrong vectors, not all lowest-weight, and the reference, out of the
    # patch's reach, does not
    if patched:
        monkeypatch.setattr(nearlyholo, "shimura_X", _shimura_X_y_term_off_by_one)
    for names in (("E4", "E4", "E6"), ("E4", "E6", "Delta")):
        f, g, h = (catalogue[name].truncate(15) for name in names)
        xis, want = xi_vectors(f, g, h, 3), _ref_xi_vectors(f, g, h, 3)
        assert list(xis) == list(want) == [(n, p) for n in range(4) for p in range(n + 1)]
        # only a vector that reads X^2 or above, through nu >= 2 or p >= 2, can be wrong
        wrong = [(n, p) for (n, p), got in xis.items() if _parts(got) != want[n, p]]
        assert bool(wrong) is patched and all(n - p >= 2 or p >= 2 for n, p in wrong)
        assert all(nh_lower(xi).is_zero() for xi in xis.values()) != patched
