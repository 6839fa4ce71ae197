import random
from fractions import Fraction as F

import pytest

from rclab.exactcore import pochhammer
from rclab.nearlyholo import lower as nh_lower, rc_bracket
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
    verify_xi_lowest_weight,
    xi_vector_concrete,
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
    got = realize_and_multiply(lowest_weight_tensor(4, 6, 0), e4, e6)
    assert got.is_holomorphic()
    assert got.ypoly[0] == (e4 * e6).series
    got1 = realize_and_multiply(lowest_weight_tensor(4, 6, 1), e4, e6)
    assert got1.is_holomorphic()
    assert got1.ypoly[0] == rc_bracket(e4, e6, 1).series.scale(F(1, 24))


@pytest.mark.parametrize("n", range(5))
def test_realization_matches_scaled_bracket(catalogue, n):
    e4, d = catalogue["E4"].truncate(20), catalogue["Delta"].truncate(20)
    got = realize_and_multiply(lowest_weight_tensor(4, 12, n), e4, d)
    want = rc_bracket(e4, d, n).series.scale(1 / (pochhammer(4, n) * pochhammer(12, n)))
    assert got.is_holomorphic()
    assert got.ypoly[0] == want


def test_realization_weight_mismatch(catalogue):
    with pytest.raises(ValueError):
        realize_and_multiply(lowest_weight_tensor(4, 4, 1), catalogue["E4"], catalogue["E6"])


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
    rng = random.Random(41)
    for n in range(1, 6):
        for tgt in degree_slice(n - 1):
            pre = triple_preimage(tgt)  # exactness asserted inside
            assert all(key[0] >= tgt[0] + 1 for key in pre.as_dict())
    # act_lower(pre) = -target, by the scaled convention
    tgt = (1, 2, 1)
    pre = triple_preimage(tgt)
    img = act_lower(pre)
    assert img.as_dict() == {tgt: F(-1)}


def test_xi_degree_zero_is_plain_product(catalogue):
    e4, e6, d = (catalogue[k].truncate(15) for k in ("E4", "E6", "Delta"))
    xi = xi_vector_concrete(e4, e6, d, 0, 0)
    assert xi.is_holomorphic()
    assert xi.ypoly[0] == (e4 * e6 * d).series.truncate(15)
    assert nh_lower(xi).is_zero()


@pytest.mark.parametrize("n,p", [(n, p) for n in range(4) for p in range(n + 1)])
def test_xi_is_lowest_weight_concretely(catalogue, n, p):
    e4 = catalogue["E4"].truncate(15)
    e6 = catalogue["E6"].truncate(15)
    d = catalogue["Delta"].truncate(15)
    assert verify_xi_lowest_weight(e4, e4, e6, n, p)
    assert verify_xi_lowest_weight(e4, e6, d, n, p)


def test_xi_rejects_bad_indices(catalogue):
    e4 = catalogue["E4"]
    with pytest.raises(ValueError):
        xi_vector_concrete(e4, e4, e4, 2, 3)
