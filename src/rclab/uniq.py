"""Uniqueness machinery: shift residuals, determinant certificates, the cubic
positivity certificate, level-1 isobaric structure, and the factorization
argument for bracket-generating series.

The chain of facts certified here, at desk scale:

  * [f g, h]_n = [f, g h]_n for all n forces the middle factor to be
    constant; the n = 1, 2, 3 coefficient analysis reduces this to a 3x3
    determinant (fine_det3) and a cubic polynomial certificate whose
    substituted form has exclusively positive coefficients (p3_*).
  * On a unique-factorization forms ring, equality of the bracket-generating
    series RC(F1, G1) = RC(F2, G2) forces F1 = C F2, G2 = C G1
    (rc_uniqueness_check, plus a seeded randomized search).

The level-1 ring Q[E4, E6] is carried by MPoly, the one polynomial type:
IsobaricPoly is an MPoly over the generators ("g4", "g6") that adds only its
weight and its q-expansion (to_form); its ring operations return an
IsobaricPoly.  Unique factorization holds in Q[g4, g6] because it is a
polynomial ring over a field (Gauss's lemma); the factorization argument
rests on that fact, and nothing in rc-lab computes a gcd or a factorization.

The search works in generator coordinates.  [., .]_n is bilinear, so each
term [f, g]_n of a drawn pair is a sum of c_i d_j [m_i, m_j]_n over the
generator monomials m = E4^a E6^b.  The search owns one table of monomial
brackets, filled one monomial pair at a time by one rc_bracket walk over
n = 0..order, so the degrees of a pair share their products D^t m_i * m_j:
at weights 4..16 and order 3 it holds at most 9 * 9 pairs of 4 brackets, and
it goes when the search returns.  The generator monomials themselves are
memoized per (a, b, prec) and shared with IsobaricPoly.to_form.

The determinant and the cubic certificate do not depend on any point:
fine_det3_mpoly is derived once per process and fine_det3 evaluates it, and
p3_certify_report derives p3_build once and substitutes into it with one
MPoly.substitute call.

The long reference expansion embedded below is the output of an independent
computer-algebra run of the same substitution; it is used purely as a diff
corpus, with the derived polynomial as ground truth.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from .exactcore import MPoly, NotDivisibleError, QSeries, Rat, RatLike
from .forms import GradedForm, ModularForm, eisenstein
from .nearlyholo import bracket_coeffs, rc_bracket
from .starprod import rc_series

# ---------------------------------------------------------------------------
# Bracket shift residuals and the lowest-degree analysis
# ---------------------------------------------------------------------------


def bracket_shift_residual(f: ModularForm, g: ModularForm, h: ModularForm, n: int) -> ModularForm:
    """[f g, h]_n - [f, g h]_n as an exact form of weight wf+wg+wh+2n."""
    return rc_bracket(f * g, h, n) - rc_bracket(f, g * h, n)


_KLMRST = ("k", "l", "m", "r", "s", "t")


def lowest_q_mpoly(n: int) -> MPoly:
    """Residual of the lowest-q-coefficient identity, symbolic in (k,l,m,r,s,t).

    side1 = sum_p L_p (r+s)^p t^(n-p),  L = bracket_coeffs(n, 2k+2l, 2m)
    side2 = sum_q R_q r^q (s+t)^(n-q),  R = bracket_coeffs(n, 2k, 2l+2m)

    r, s, t are the leading q-exponents of the three factors; the residual
    must vanish whenever the shifted brackets agree at the lowest q-degree.
    """
    k, l, m, r, s, t = MPoly.variables(_KLMRST)
    left = bracket_coeffs(n, 2 * k + 2 * l, 2 * m)
    right = bracket_coeffs(n, 2 * k, 2 * l + 2 * m)
    out = MPoly.zero(_KLMRST)
    for p in range(n + 1):
        out = out + left[p] * (r + s).pow(p) * t.pow(n - p) - right[p] * r.pow(p) * (s + t).pow(n - p)
    return out


# ---------------------------------------------------------------------------
# The 3x3 determinant certificate
# ---------------------------------------------------------------------------


def _fine_rows_mpoly() -> list[list[MPoly]]:
    """Rows n = 1, 2, 3 of the first-coefficient linear system, symbolic.

    With L = bracket_coeffs(n, 2k+2l, 2m) and R = bracket_coeffs(n, 2k, 2l+2m)
    the row is [L_n - R_n, L_n - R_0, L_0 - R_0]: with constant terms 1, the
    q^1 coefficient of the shifted brackets reads only the end coefficients.
    """
    k, l, m = MPoly.variables(("k", "l", "m"))
    rows = []
    for n in (1, 2, 3):
        left = bracket_coeffs(n, 2 * k + 2 * l, 2 * m)
        right = bracket_coeffs(n, 2 * k, 2 * l + 2 * m)
        rows.append([left[n] - right[n], left[n] - right[0], left[0] - right[0]])
    return rows


@functools.cache
def fine_det3_mpoly() -> MPoly:
    """Symbolic determinant of the n = 1..3 system, a polynomial in (k,l,m).

    Derived once per process; the returned polynomial is shared, not copied.
    """
    r = _fine_rows_mpoly()
    return (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )


def fine_det3(k: int, l: int, m: int) -> Rat:
    """Exact value of the 3x3 determinant; negative for m >= k >= 1, l >= 1."""
    return fine_det3_mpoly().evaluate({"k": k, "l": l, "m": m})


# ---------------------------------------------------------------------------
# The cubic certificate
# ---------------------------------------------------------------------------

_KLMRT = ("k", "l", "m", "r", "t")


def p3_build() -> MPoly:
    """The cleared degree-3 residual, derived (never transcribed).

    Take the n = 3 lowest-degree residual, substitute s = l(r+t)/(k+m), and
    clear the denominator by (k+m)^3.  The residual is homogeneous of degree
    3 in (r, s, t), so that is the one polynomial substitution r -> (k+m) r,
    s -> l (r+t), t -> (k+m) t.  The result is a polynomial in
    (k, l, m, r, t), homogeneous of degree 3 in (r, t) (_substitute_direction
    checks this) and divisible by 4 l (r + t).
    """
    k, l, m, r, t = MPoly.variables(_KLMRT)
    return lowest_q_mpoly(3).substitute({"r": (k + m) * r, "s": l * (r + t), "t": (k + m) * t})


def _substitute_direction(p3: MPoly) -> MPoly:
    """p3_build's polynomial with the positive-parameter direction substituted in.

    r -> (3k+m)(k+l+m) + (k+m),  t -> (k+3m)(k+l+m) + (k+m); because the
    cleared residual is (r,t)-homogeneous of degree 3 the scale parameter
    only contributes a cubic overall factor, which is dropped.
    """
    k, l, m = MPoly.variables(("k", "l", "m"))
    r_img = (3 * k + m) * (k + l + m) + (k + m)
    t_img = (k + 3 * m) * (k + l + m) + (k + m)
    r_idx, t_idx = _KLMRT.index("r"), _KLMRT.index("t")
    for exp in p3.terms:
        if exp[r_idx] + exp[t_idx] != 3:
            raise AssertionError("cleared residual is not (r,t)-homogeneous of degree 3")
    return p3.substitute({"r": r_img, "t": t_img})


def _parse_poly(text: str, vars: tuple[str, ...]) -> MPoly:
    """Parse '+ 48 k^5 l - 3 m t^2'-style monomial lists."""
    text = text.replace("\n", " ")
    terms: dict[tuple[int, ...], Rat] = {}
    for chunk in text.replace("-", "+-").split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        parts = chunk.split()
        coeff = Fraction(1)
        exp = [0] * len(vars)
        for piece in parts:
            if piece[0].isdigit():
                coeff = Fraction(piece)
                continue
            if "^" in piece:
                name, p = piece.split("^")
                exp[vars.index(name)] += int(p)
            else:
                exp[vars.index(piece)] += 1
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + sign * coeff
    return MPoly(vars, terms)


# Independent computer-algebra expansion of the inner factor (the quantity
# multiplying 4 l (r + t) in the cleared residual).  The published copy shows
# transcription damage at two spots ('--' run-on, and a dropped operator before
# '3 k l^2 m r^2'); both are restored as minus, the sign the (k,m,r,t)
# exchange symmetry of the polynomial dictates.  The diff in
# p3_certify_report records any remaining disagreement.
_REFERENCE_INNER_RT = """
-3 k^2 r^2 - 2 k^3 r^2 + 3 k l r^2 + 2 k l^2 r^2 - 6 k m r^2 - 15 k^2 m r^2
- 3 k^3 m r^2 + 3 l m r^2 - 9 k l m r^2 - 6 k^2 l m r^2 - 3 k l^2 m r^2
- 3 m^2 r^2 - 24 k m^2 r^2 - 15 k^2 m^2 r^2 - 9 l m^2 r^2 - 24 k l m^2 r^2
- 9 l^2 m^2 r^2 - 11 m^3 r^2 - 21 k m^3 r^2 - 18 l m^3 r^2 - 9 m^4 r^2
+ 12 k^2 r t + 17 k^3 r t + 3 k^4 r t + 6 k l r t + 21 k^2 l r t + 6 k^3 l r t
+ 4 k l^2 r t + 3 k^2 l^2 r t + 24 k m r t + 51 k^2 m r t + 24 k^3 m r t
+ 6 l m r t + 42 k l m r t + 42 k^2 l m r t + 4 l^2 m r t + 18 k l^2 m r t
+ 12 m^2 r t + 51 k m^2 r t + 42 k^2 m^2 r t + 21 l m^2 r t + 42 k l m^2 r t
+ 3 l^2 m^2 r t + 17 m^3 r t + 24 k m^3 r t + 6 l m^3 r t + 3 m^4 r t
- 3 k^2 t^2 - 11 k^3 t^2 - 9 k^4 t^2 + 3 k l t^2 - 9 k^2 l t^2 - 18 k^3 l t^2
+ 2 k l^2 t^2 - 9 k^2 l^2 t^2 - 6 k m t^2 - 24 k^2 m t^2 - 21 k^3 m t^2
+ 3 l m t^2 - 9 k l m t^2 - 24 k^2 l m t^2 + 2 l^2 m t^2 - 3 k l^2 m t^2
- 3 m^2 t^2 - 15 k m^2 t^2 - 15 k^2 m^2 t^2 - 6 k l m^2 t^2 - 2 m^3 t^2
- 3 k m^3 t^2 + 2 l^2 m r^2
"""

# Independent computer-algebra expansion of the substituted cubic (the overall
# cubic scale factor stripped).  Transcribed as published; compared
# monomial-by-monomial against the derived expansion in p3_certify_report.
_REFERENCE_SUBSTITUTED = """
48 k^5 l + 320 k^6 l + 720 k^7 l + 672 k^8 l + 256 k^9 l
+ 96 k^4 l^2 + 960 k^5 l^2 + 2976 k^6 l^2 + 3552 k^7 l^2 + 1536 k^8 l^2
+ 640 k^4 l^3 + 3792 k^5 l^3 + 6624 k^6 l^3 + 3584 k^7 l^3
+ 1536 k^4 l^4 + 5280 k^5 l^4 + 4096 k^6 l^4 + 1536 k^4 l^5 + 2304 k^5 l^5
+ 512 k^4 l^6 + 240 k^4 l m + 1920 k^5 l m + 5232 k^6 l m + 5760 k^7 l m
+ 2304 k^8 l m + 384 k^3 l^2 m + 4800 k^4 l^2 m + 18240 k^5 l^2 m
+ 26016 k^6 l^2 m + 12288 k^7 l^2 m + 2560 k^3 l^3 m + 19152 k^4 l^3 m
+ 40896 k^5 l^3 m + 25088 k^6 l^3 m + 6144 k^3 l^4 m + 26784 k^4 l^4 m
+ 24576 k^5 l^4 m + 6144 k^3 l^5 m + 11520 k^4 l^5 m + 2048 k^3 l^6 m
+ 480 k^3 l m^2 + 4800 k^4 l m^2 + 16080 k^5 l m^2 + 21120 k^6 l m^2
+ 9216 k^7 l m^2 + 576 k^2 l^2 m^2 + 9600 k^3 l^2 m^2 + 46176 k^4 l^2 m^2
+ 80352 k^5 l^2 m^2 + 43008 k^6 l^2 m^2 + 3840 k^2 l^3 m^2 + 38496 k^3 l^3 m^2
+ 103968 k^4 l^3 m^2 + 75264 k^5 l^3 m^2 + 9216 k^2 l^4 m^2 + 53952 k^3 l^4 m^2
+ 61440 k^4 l^4 m^2 + 9216 k^2 l^5 m^2 + 23040 k^3 l^5 m^2 + 3072 k^2 l^6 m^2
+ 480 k^2 l m^3 + 6400 k^3 l m^3 + 27120 k^4 l m^3 + 43392 k^5 l m^3
+ 21504 k^6 l m^3 + 384 k l^2 m^3 + 9600 k^2 l^2 m^3 + 61824 k^3 l^2 m^3
+ 135840 k^4 l^2 m^3 + 86016 k^5 l^2 m^3 + 2560 k l^3 m^3 + 38496 k^2 l^3 m^3
+ 139392 k^3 l^3 m^3 + 125440 k^4 l^3 m^3 + 6144 k l^4 m^3 + 53952 k^2 l^4 m^3
+ 81920 k^3 l^4 m^3 + 6144 k l^5 m^3 + 23040 k^2 l^5 m^3 + 2048 k l^6 m^3
+ 240 k l m^4 + 4800 k^2 l m^4 + 27120 k^3 l m^4 + 54720 k^4 l m^4 + 256 l m^9
+ 32256 k^5 l m^4 + 96 l^2 m^4 + 4800 k l^2 m^4 + 46176 k^2 l^2 m^4
+ 135840 k^3 l^2 m^4 + 107520 k^4 l^2 m^4 + 640 l^3 m^4 + 19152 k l^3 m^4
+ 103968 k^2 l^3 m^4 + 125440 k^3 l^3 m^4 + 1536 l^4 m^4 + 26784 k l^4 m^4
+ 61440 k^2 l^4 m^4 + 1536 l^5 m^4 + 11520 k l^5 m^4 + 512 l^6 m^4
+ 48 l m^5 + 1920 k l m^5 + 16080 k^2 l m^5 + 43392 k^3 l m^5 + 32256 k^4 l m^5
+ 960 l^2 m^5 + 18240 k l^2 m^5 + 80352 k^2 l^2 m^5 + 86016 k^3 l^2 m^5
+ 3792 l^3 m^5 + 40896 k l^3 m^5 + 75264 k^2 l^3 m^5 + 5280 l^4 m^5
+ 24576 k l^4 m^5 + 2304 l^5 m^5 + 320 l m^6 + 5232 k l m^6 + 21120 k^2 l m^6
+ 21504 k^3 l m^6 + 2976 l^2 m^6 + 26016 k l^2 m^6 + 43008 k^2 l^2 m^6
+ 6624 l^3 m^6 + 25088 k l^3 m^6 + 4096 l^4 m^6 + 720 l m^7 + 5760 k l m^7
+ 9216 k^2 l m^7 + 3552 l^2 m^7 + 12288 k l^2 m^7 + 3584 l^3 m^7
+ 672 l m^8 + 2304 k l m^8 + 1536 l^2 m^8
"""


def p3_reference_inner() -> MPoly:
    return _parse_poly(_REFERENCE_INNER_RT, _KLMRT)


def p3_reference_substituted() -> MPoly:
    return _parse_poly(_REFERENCE_SUBSTITUTED, ("k", "l", "m"))


def _monomial_name(vars: tuple[str, ...], exp: tuple[int, ...]) -> str:
    return "*".join(f"{n}^{e}" if e > 1 else n for n, e in zip(vars, exp) if e) or "1"


def poly_diff_report(built: MPoly, reference: MPoly) -> list[dict]:
    """Monomial-by-monomial comparison; one record per disagreeing monomial."""
    diffs = []
    for exp in sorted(set(built.terms) | set(reference.terms)):
        b = built.terms.get(exp, Fraction(0))
        r = reference.terms.get(exp, Fraction(0))
        if b != r:
            diffs.append({"monomial": _monomial_name(built.vars, exp), "derived": str(b), "reference": str(r)})
    return diffs


def p3_certify_report() -> dict:
    """Positivity certificate plus the diff against the reference expansions.

    The derived polynomial is ground truth; the report records whether every
    substituted coefficient is positive, spot values for the first and last
    published monomials, and the full monomial diffs.  If 4 l (r + t) does
    not divide, division_remainder names the first remainder term and
    inner_diff is None.
    """
    built = p3_build()
    k, l, m, r, t = MPoly.variables(_KLMRT)
    try:
        inner, remainder = built.div_exact(4 * l * (r + t)), None
    except NotDivisibleError as exc:
        (exp, c), inner = exc.term, None
        remainder = {"monomial": _monomial_name(_KLMRT, exp), "coefficient": c}
    substituted = _substitute_direction(built)
    positive, witness = substituted.all_coeffs_positive()
    return {
        "substituted_all_positive": positive,
        "positivity_witness": None if witness is None else str(witness),
        "coeff_k5_l": substituted.coeff_of_monomial(k=5, l=1),
        "coeff_l2_m8": substituted.coeff_of_monomial(l=2, m=8),
        "division_remainder": remainder,
        "inner_diff": None if inner is None else poly_diff_report(inner, p3_reference_inner()),
        "substituted_diff": poly_diff_report(substituted, p3_reference_substituted()),
    }


# ---------------------------------------------------------------------------
# Isobaric structure of the level-1 ring
# ---------------------------------------------------------------------------


class IsobaricPoly(MPoly):
    """An MPoly over the two ring generators ("g4", "g6"): terms (a, b) -> Rat.

    + - * pow and negation return an IsobaricPoly; substitute an MPoly.
    """

    __slots__ = ()

    def __init__(self, terms: dict[tuple[int, int], RatLike] | None = None):
        super().__init__(("g4", "g6"), terms)

    def weight(self) -> int | None:
        """Common weight 4a + 6b of the monomials, or None if mixed/zero."""
        ws = {4 * a + 6 * b for a, b in self.terms}
        if len(ws) == 1:
            return next(iter(ws))
        return None

    def to_form(self, prec: int) -> ModularForm:
        w = self.weight()
        if w is None:
            raise ValueError("only weight-homogeneous polynomials convert to forms")
        first, *rest = (_monomial(a, b, prec).scale(c) for (a, b), c in self.terms.items())
        return ModularForm(w, sum(rest, first))


@functools.lru_cache(maxsize=None)
def _monomial(a: int, b: int, prec: int) -> QSeries:
    """The generator monomial E4^a E6^b to prec, memoized per (a, b, prec)."""
    return eisenstein(4, prec).pow(a) * eisenstein(6, prec).pow(b)


def weight_basis(weight: int) -> list[tuple[int, int]]:
    """All (a, b) with 4a + 6b = weight, the monomial basis of that weight."""
    if weight < 0 or weight % 2:
        return []
    out = []
    for b in range(weight // 6 + 1):
        rem = weight - 6 * b
        if rem % 4 == 0:
            out.append((rem // 4, b))
    return sorted(out)


# ---------------------------------------------------------------------------
# Uniqueness of factorizations of the bracket series
# ---------------------------------------------------------------------------


def rc_uniqueness_check(
    f1: GradedForm, g1: GradedForm, f2: GradedForm, g2: GradedForm, order: int, prec: int
) -> dict:
    """Test RC(f1, g1) = RC(f2, g2) and, when equal, recover the constant.

    Returns {"equal", "C", "proportional", "counterexample"}; counterexample
    is True only when the series agree but no constant C reconciles
    f1 = C f2 and g2 = C g1 part-by-part, which would contradict the
    factorization property.
    """
    f1, g1 = f1.truncate(prec), g1.truncate(prec)
    f2, g2 = f2.truncate(prec), g2.truncate(prec)
    if rc_series(f1, g1, order) != rc_series(f2, g2, order):
        return {"equal": False, "C": None, "proportional": False, "counterexample": False}
    return _factorization_verdict(f1, g1, f2, g2)


def _factorization_verdict(f1: GradedForm, g1: GradedForm, f2: GradedForm, g2: GradedForm) -> dict:
    """The rc_uniqueness_check verdict for two pairs whose bracket series agree.

    Zero factors, the lowest weight and the valuation of its part fix the
    only candidate C; the pairs are proportional iff f1 = C f2 and g2 = C g1.
    """
    if f1.is_zero() or f2.is_zero() or g1.is_zero() or g2.is_zero():
        degenerate = (f1.is_zero() or g1.is_zero()) and (f2.is_zero() or g2.is_zero())
        return {
            "equal": True,
            "C": None,
            "proportional": degenerate,
            "counterexample": not degenerate,
        }
    w1, w2 = min(f1.weights()), min(f2.weights())
    if w1 != w2:
        return {"equal": True, "C": None, "proportional": False, "counterexample": True}
    s1, s2 = f1.parts[w1].series, f2.parts[w2].series
    v = s2.valuation()
    if v is None or s1.valuation() != v:
        return {"equal": True, "C": None, "proportional": False, "counterexample": True}
    c = s1.coeff(v) / s2.coeff(v)
    ok = f1 == f2.scale(c) and g2 == g1.scale(c)
    return {"equal": True, "C": c if ok else None, "proportional": ok, "counterexample": not ok}


def _random_coords(rng: random.Random) -> IsobaricPoly:
    """Generator coordinates of a random graded form with one or two parts.

    Each part has a drawn weight in 4..16 and coefficients in [-3, 3], not
    all zero; a level-1 graded form is a polynomial in g4, g6, and its part
    of weight w is the isobaric component 4a + 6b = w.
    """
    coeffs: dict[tuple[int, int], int] = {}
    for w in rng.sample([4, 6, 8, 10, 12, 14, 16], k=rng.randint(1, 2)):
        part = {}
        for ab in weight_basis(w):
            c = rng.randint(-3, 3)
            if c:
                part[ab] = c
        coeffs.update(part or {weight_basis(w)[0]: 1})
    return IsobaricPoly(coeffs)


def _graded(p: IsobaricPoly, prec: int) -> GradedForm:
    """The graded form with generator coordinates p, one part per weight."""
    parts: dict[int, dict[tuple[int, int], Rat]] = {}
    for (a, b), c in p.terms.items():
        parts.setdefault(4 * a + 6 * b, {})[(a, b)] = c
    return GradedForm({w: IsobaricPoly(t).to_form(prec) for w, t in parts.items()})


class _BracketTable(dict):
    """(m_f, m_g) -> [m_f, m_g]_n for n = 0..order to prec, each pair filled by one rc_bracket walk."""

    def __init__(self, order: int, prec: int):
        super().__init__()
        self.order, self.prec = order, prec

    def __missing__(self, pair: tuple[tuple[int, int], tuple[int, int]]) -> list[QSeries]:
        f, g = (ModularForm(4 * a + 6 * b, _monomial(a, b, self.prec)) for a, b in pair)
        self[pair] = walk = [rc_bracket(f, g, n).series for n in range(self.order + 1)]
        return walk


def _bracket_term(f: MPoly, g: MPoly, n: int, table: _BracketTable) -> GradedForm:
    """[f, g]_n of two graded forms in generator coordinates, as rc_series(.).terms[n].

    By bilinearity this is the sum of c d [m_f, m_g]_n over the monomial
    terms c m_f of f and d m_g of g, grouped by weight; zero brackets (such
    as [m, m]_n for odd n) are skipped, and zero parts drop out.
    """
    parts: dict[int, QSeries] = {}
    for (a1, b1), c in f.terms.items():
        for (a2, b2), d in g.terms.items():
            bracket = table[(a1, b1), (a2, b2)][n]
            if not bracket.is_zero():
                w = 4 * (a1 + a2) + 6 * (b1 + b2) + 2 * n
                s = bracket.scale(c * d)
                parts[w] = parts[w] + s if w in parts else s
    return GradedForm({w: ModularForm(w, s) for w, s in parts.items()})


def random_uniqueness_search(seeds: int, order: int = 3, prec: int = 15, seed0: int = 0) -> dict:
    """Seeded search for violations of the factorization property.

    Each trial draws two random graded pairs in generator coordinates; every
    third trial replaces the second pair by an exact rescaling of the first
    to exercise the recovery path.  The terms [f, g]_n are assembled from the
    search's monomial-bracket table and compared order by order, so
    non-matching pairs exit at their first differing term.  When every term
    up to `order` agrees, the series RC(f1, g1) and RC(f2, g2) are equal, so
    the pairs go straight to the verdict half of rc_uniqueness_check with no
    bracket recomputed.  Returns counts; 'counterexamples' must stay 0.
    """
    stats = {"trials": seeds, "equal_pairs": 0, "recovered_constants": 0, "counterexamples": 0}
    table = _BracketTable(order, prec)
    for i in range(seeds):
        rng = random.Random(seed0 + i)
        f1, g1 = _random_coords(rng), _random_coords(rng)
        if i % 3 == 0:
            c = Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice((1, -1))
            f2, g2 = f1 * (1 / c), g1 * c
        else:
            f2, g2 = _random_coords(rng), _random_coords(rng)
        if any(
            _bracket_term(f1, g1, n, table) != _bracket_term(f2, g2, n, table)
            for n in range(order + 1)
        ):
            continue
        res = _factorization_verdict(*(_graded(p, prec) for p in (f1, g1, f2, g2)))
        stats["equal_pairs"] += 1
        if res["proportional"] and res["C"] is not None:
            stats["recovered_constants"] += 1
        if res["counterexample"]:
            stats["counterexamples"] += 1
    return stats
