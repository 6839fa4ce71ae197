"""Helpers shared by the test modules, so that no test module imports another.

One reference per layer, each written from its definition in Fractions over
plain data and named ref_*:
  * q-series as tuples of coefficients, q^0 first;
  * polynomials as dicts from exponent tuples to coefficients;
  * the Rankin-Cohen bracket as its defining sum;
  * Y-polynomials as lists of q-series, the one of Y^j at j;
  * Gauss-Jordan elimination of dict rows;
  * the associativity identities, with A-values read through a callable.
No ref_* function reads a name bound by an rclab import (test_imports.py
checks this), so a defect in the library cannot reach the reference it is
checked against.  Also here: the quoted level-2 family, shared planted
defects and the patch that reaches every binding of a function.
"""

import itertools
import math
import sys
from fractions import Fraction as F

from rclab import rep
from rclab.exactcore import QSeries, pochhammer, rat
from rclab.nearlyholo import NearlyHoloForm, shimura_X


def _patch_every_binding(monkeypatch, original, replacement) -> int:
    """Rebind every rclab module attribute that is `original`; returns the count."""
    modules = [m for name, m in sys.modules.items() if name == "rclab" or name.startswith("rclab.")]
    bound = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)
                bound += 1
    return bound


def a2_family(c):
    """The quoted level-2 family A_2(x, y) = x(x+1) y(y+1) / 2 + c x y / (x+y+1)."""
    return lambda x, y: F(x * (x + 1) * y * (y + 1), 2) + rat(c) * F(x * y, x + y + 1)


def sigma_oracle(n, power):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def _pochhammer_doubled_at_five(a, n):
    # det2x2_direct reads (.)_{n-1} and the closed form (.)_{n-2}: they first disagree at n = 6
    value = pochhammer(a, n)
    return 2 * value if n == 5 else value


_lowest_weight_tensor = rep.lowest_weight_tensor


def _lowest_weight_tensor_times_n_factorial(x, y, n):
    # without the 1/n!: act_lower still kills it, so only the realization sees the scale
    return _lowest_weight_tensor(x, y, n).scale(math.factorial(n))


def _shimura_X_y_term_off_by_one(F):
    # (j - w) c_j Y^(j+1) becomes (j - w - 1) c_j Y^(j+1) for j >= 1, so only X^2 and above are wrong
    out = shimura_X(F)
    if len(F.ypoly) == 1:
        return out
    return out - NearlyHoloForm.make(F.weight + 2, [QSeries.zero(F.prec)] * 2 + list(F.ypoly[1:]))


# -- scalars -------------------------------------------------------------------


def ref_pochhammer(a, n):
    """(a)_n = a (a+1) ... (a+n-1) for a rational a (an int for an int a) and n >= 0."""
    if n < 0:
        raise ValueError(n)
    out = 1
    for i in range(n):
        out *= a + i
    return out


def ref_normalization(n, x, y):
    """(x)_n (y)_n, the factor that takes a family's t_n(x, y) to A_n(x, y)."""
    return ref_pochhammer(x, n) * ref_pochhammer(y, n)


def ref_binom(a, b):
    """C(a, b) = a (a-1) ... (a-b+1) / b! for a rational a, and 0 for b < 0, as a Fraction."""
    if b < 0:
        return F(0)
    num = 1
    for i in range(b):
        num *= a - i
    return F(num, math.factorial(b))


# -- q-series: the coefficients of q^0 .. q^(prec-1); two operands meet at the smaller prec ----


def _exact(values):
    """The rationals as they are, the integral ones as ints: the same values, and int products are cheap."""
    return [v.numerator if v.denominator == 1 else v for v in values]


def ref_qs_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_qs_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ref_qs_scale(a, c):
    return tuple(c * x for x in a)


def ref_qs_mul(a, b):
    """The Cauchy product: the q^N coefficient is sum_(i+j=N) a_i b_j."""
    prec = min(len(a), len(b))
    a, b, out = _exact(a[:prec]), _exact(b[:prec]), [0] * prec
    for i, x in enumerate(a):
        if x:
            for j in range(prec - i):
                out[i + j] += x * b[j]
    return tuple(out)


def ref_qs_pow(a, e):
    """a^e as e products into the series 1."""
    out = (1,) + (0,) * (len(a) - 1)
    for _ in range(e):
        out = ref_qs_mul(out, a)
    return out


def ref_qs_derive(a, times=1):
    """D^times a, D = q d/dq: the q^i coefficient times i^times."""
    return tuple(i**times * x for i, x in enumerate(a))


def ref_qs_shift(a, k):
    """q^k a, known to k more powers."""
    return (0,) * k + tuple(a)


def ref_qs_truncate(a, prec):
    return tuple(a[:prec])


# -- polynomials: exponent tuple -> coefficient, zero coefficients dropped ---------


def ref_poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ref_poly_mul(a, b):
    out = {}
    for (e1, c1), (e2, c2) in itertools.product(a.items(), b.items()):
        e = tuple(i + j for i, j in zip(e1, e2))
        out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_poly_pow(a, e, nvars):
    """a^e as e products into the constant 1 in nvars variables."""
    out = {(0,) * nvars: 1}
    for _ in range(e):
        out = ref_poly_mul(out, a)
    return out


def ref_poly_substitute(terms, vars, images, tvars):
    """Each variable of vars replaced by its image, a polynomial over tvars (an unmapped one by
    the variable of tvars of its name), and every term expanded in full."""
    def image(name):
        return images[name] if name in images else {tuple(int(t == name) for t in tvars): 1}

    out = {}
    for exp, c in terms.items():
        term = {(0,) * len(tvars): c}
        for name, e in zip(vars, exp):
            term = ref_poly_mul(term, ref_poly_pow(image(name), e, len(tvars)))
        out = ref_poly_add(out, term)
    return out


def ref_poly_evaluate(terms, vars, point):
    """The value at point (name -> value); a used variable missing from point raises KeyError(name)."""
    return sum((F(c) * math.prod(F(point[name]) ** e for name, e in zip(vars, exp) if e)
                for exp, c in terms.items()), F(0))


# -- the Rankin-Cohen bracket ---------------------------------------------------------


def ref_bracket_coeffs(n, x, y):
    """c_r = (-1)^r C(n+x-1, n-r) C(n+y-1, r), r = 0..n."""
    return [(-1) ** r * ref_binom(n + x - 1, n - r) * ref_binom(n + y - 1, r) for r in range(n + 1)]


def ref_bracket(f, g, x, y, n):
    """[f, g]_n = sum_r c_r D^r f D^(n-r) g for q-series f, g of integer weights x, y.

    Its q^N coefficient is sum_(i+j=N) f_i g_j sum_r c_r i^r j^(n-r); each c_r is a product
    of binomials of integers, so an integer.
    """
    if n < 0:
        raise ValueError("bracket degree must be >= 0")
    c = [int(v) for v in ref_bracket_coeffs(n, x, y)]
    prec = min(len(f), len(g))
    f, g, out = _exact(f), _exact(g), [0] * prec
    for i, j in itertools.product(range(prec), repeat=2):
        if i + j < prec and f[i] and g[j]:
            out[i + j] += f[i] * g[j] * sum(cr * i**r * j ** (n - r) for r, cr in enumerate(c))
    return tuple(out)


# -- Y-polynomials: parts at the smallest prec, trailing zero parts dropped (one part kept) --


def ref_ypoly(parts):
    prec = min(map(len, parts))
    parts = [ref_qs_truncate(p, prec) for p in parts]
    while len(parts) > 1 and not any(parts[-1]):
        parts.pop()
    return parts


def ref_ypoly_add(a, b):
    zero = (0,) * min(len(a[0]), len(b[0]))
    n = max(len(a), len(b))
    return ref_ypoly([ref_qs_add(a[j] if j < len(a) else zero, b[j] if j < len(b) else zero) for j in range(n)])


def ref_ypoly_scale(a, c):
    return ref_ypoly([ref_qs_scale(p, c) for p in a])


def ref_ypoly_mul(a, b):
    out = [(0,) * min(len(a[0]), len(b[0]))] * (len(a) + len(b) - 1)
    for (i, s), (j, t) in itertools.product(enumerate(a), enumerate(b)):
        out[i + j] = ref_qs_add(out[i + j], ref_qs_mul(s, t))
    return ref_ypoly(out)


def ref_raise(a, w):
    """X at weight w: sum c_j Y^j -> sum (D c_j) Y^j + (j - w) c_j Y^(j+1)."""
    out = [(0,) * len(a[0])] * (len(a) + 1)
    for j, c in enumerate(a):
        out[j] = ref_qs_add(out[j], ref_qs_derive(c))
        out[j + 1] = ref_qs_add(out[j + 1], ref_qs_scale(c, j - w))
    return ref_ypoly(out)


def ref_lower(a):
    """sum c_j Y^j -> sum j c_j Y^(j-1)."""
    return ref_ypoly([ref_qs_scale(c, j) for j, c in enumerate(a)][1:] or [(0,) * len(a[0])])


def ref_raising_chain(a, w, top):
    """X^r a for r = 0..top, a of weight w."""
    chain = [a]
    for r in range(top):
        chain.append(ref_raise(chain[-1], w + 2 * r))
    return chain


def ref_dtil_chain(a, w, top):
    """The normalized chain X^r a / (w)_r for r = 0..top; ValueError if (w)_top = 0."""
    if ref_pochhammer(w, top) == 0:
        raise ValueError(f"normalized raising undefined: ({w})_{top} = 0")
    return [ref_ypoly_scale(xr, F(1, ref_pochhammer(w, r))) for r, xr in enumerate(ref_raising_chain(a, w, top))]


# -- Gauss-Jordan elimination -----------------------------------------------------------


def ref_rref(rows, width):
    """The reduced row echelon form of rows (column key -> coefficient, `width` right-hand sides).

    Returns (pivots, certificates): pivots maps the pivot column of each row of the form, its
    smallest key, to the row scaled to 1 there and its right-hand sides, and every other pivot
    column is cleared from it; certificates holds, per right-hand side, the index of the first
    row that reduces to 0 = nonzero, or None.
    """
    def subtract(row, rhs, prow, prhs, col):
        f = row[col]
        for c, v in prow.items():
            row[c] = row.get(c, 0) - f * v
            if not row[c]:
                del row[c]
        return [r - f * p for r, p in zip(rhs, prhs)]

    pivots, certificates = {}, [None] * width
    for idx, (coeffs, rhs) in enumerate(rows):
        row, rhs = {c: F(v) for c, v in coeffs.items() if v}, [F(v) for v in rhs]
        while row and min(row) in pivots:
            rhs = subtract(row, rhs, *pivots[min(row)], min(row))
        if row:
            lead = min(row)
            pivots[lead] = ({c: v / row[lead] for c, v in row.items()}, [v / row[lead] for v in rhs])
        for j, v in enumerate(rhs):
            if not row and v and certificates[j] is None:
                certificates[j] = idx
    # back-substitution, from the last pivot column
    for col in sorted(pivots, reverse=True):
        for other, (row, rhs) in pivots.items():
            if other != col and col in row:
                pivots[other] = (row, subtract(row, rhs, *pivots[col], col))
    return pivots, certificates


# -- the associativity identities ---------------------------------------------------------


def ref_ident_coeffs(n, p, x, y, z):
    """(c_r for r = 0..n-p, c_s for s = 0..p) of the degree-n, index-p associativity identity

      sum_r c_r A_r(x,y) A_(n-r)(x+y+2r, z) = sum_s c_s A_s(y,z) A_(n-s)(x, y+z+2s),
      c_r = C(n,r) C(n-r,p) / [(x+y+2r)_(n-p-r) (z)_p (x)_r],
      c_s = C(n,s) C(n-s,n-p) / [(x)_(n-p) (y+z+2s)_(p-s) (z)_s].
    """
    P = ref_pochhammer
    left = [ref_binom(n, r) * ref_binom(n - r, p) / (P(x + y + 2 * r, n - p - r) * P(z, p) * P(x, r))
            for r in range(n - p + 1)]
    right = [ref_binom(n, s) * ref_binom(n - s, n - p) / (P(x, n - p) * P(y + z + 2 * s, p - s) * P(z, s))
             for s in range(p + 1)]
    return left, right


def ref_ident_terms(n, p, x, y, z):
    """The identity as LHS - RHS: (c, (level, weights), (level, weights)) per term."""
    left, right = ref_ident_coeffs(n, p, x, y, z)
    return ([(c, (r, x, y), (n - r, x + y + 2 * r, z)) for r, c in enumerate(left)]
            + [(-c, (s, y, z), (n - s, x, y + z + 2 * s)) for s, c in enumerate(right)])


def ref_ident_residual(A, k, l, m, n, p):
    """LHS - RHS of the identity at weights (2k, 2l, 2m), A(n, x, y) giving A_n(x, y)."""
    return sum((c * A(*a) * A(*b) for c, a, b in ref_ident_terms(n, p, 2 * k, 2 * l, 2 * m)), F(0))


def ref_ident_rows(n, grid, As):
    """The level-n identity rows at 1 <= k, l, m <= grid and 0 <= p <= n, p innermost.

    Each row is (coefficients by level-n pair (x, y), one right-hand side per A).  Since
    A_0 = 1, a term with a factor at level n is that unknown (the second factor when both
    are, at n = 0); the other terms are known and move to the right-hand side.
    """
    rows = []
    for k, l, m, p in itertools.product(*[range(1, grid + 1)] * 3, range(n + 1)):
        coeffs, known = {}, []
        for c, a, b in ref_ident_terms(n, p, 2 * k, 2 * l, 2 * m):
            unknown = b if b[0] == n else a if a[0] == n else None
            if unknown:
                coeffs[unknown[1:]] = coeffs.get(unknown[1:], 0) + c
            else:
                known.append((c, a, b))
        rows.append((coeffs, tuple(-sum((c * A(*a) * A(*b) for c, a, b in known), F(0)) for A in As)))
    return rows
