"""Command-line front door: computations and verification suites with JSON reports.

Every subcommand echoes its effective configuration into the report, sorts
check records by name, and stringifies all rationals, so identical
invocations produce byte-identical JSON.  Exit codes: 0 all checks pass,
1 a check failed (witness included), 2 usage error.  A suite that raises
fails as a `<suite>/error` record and the remaining suites still run; a
reader that closes stdout early gets exit 1 and no traceback.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import coeffsolve, forms, nearlyholo, rep, starprod, uniq
from .exactcore import pochhammer, rat
from .forms import GradedForm, form_by_name


class UsageError(Exception):
    """A usage or domain error found after parsing; main() reports it like a parse error."""


@dataclass
class RunConfig:
    """A verify report's `config` echo; each default is that of the suite keywords of its name."""
    prec: int = 20
    hbar_order: int = 4
    grid_bound: int = 4
    kappa_samples: tuple = ("1/2", "3/2", "2", "5/2")
    seed: int = 0


class Suite:
    """Collects named check records and renders the report; holds the run's catalogue forms."""

    def __init__(self, command: str, cfg: RunConfig):
        self.command = command
        self.cfg = cfg
        self.checks: list[dict] = []
        self._catalogues: dict[int, dict] = {}

    def catalogue(self, prec: int) -> dict:
        """E4, E6 and Delta at prec, built once per precision and read by every suite of the run."""
        if prec not in self._catalogues:
            self._catalogues[prec] = {name: form_by_name(name, prec) for name in ("E4", "E6", "Delta")}
        return self._catalogues[prec]

    def check(self, name: str, ok: bool, params: dict | None = None, **data) -> None:
        self.checks.append(
            {"name": name, "status": "pass" if ok else "fail", "params": params or {}, **data}
        )

    def ok(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def report(self) -> dict:
        return {
            "command": self.command,
            "config": asdict(self.cfg),
            "checks": sorted(self.checks, key=lambda c: c["name"]),
            "ok": self.ok(),
        }


def _jsonify(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _print_json(obj) -> None:
    """One compact line with sorted keys: the form every byte-identity guarantee pins."""
    print(json.dumps(_jsonify(obj), sort_keys=True, separators=(",", ":")))


def emit(report: dict, as_json: bool) -> None:
    if as_json:
        _print_json(report)
        return
    print(f"# {report['command']}")
    for c in report["checks"]:
        flag = "ok  " if c["status"] == "pass" else "FAIL"
        extra = {k: v for k, v in c.items() if k not in ("name", "status", "params")}
        tail = f"  {_jsonify(extra)}" if extra else ""
        print(f"  [{flag}] {c['name']}{tail}")
    print(f"result: {'pass' if report['ok'] else 'FAIL'}")


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def suite_forms(s: Suite, prec: int = RunConfig.prec) -> None:
    prec = max(prec, 16)
    cat = s.catalogue(prec)
    e4, e6, d = cat["E4"], cat["E6"], cat["Delta"]
    rel = (e4 * e4 * e4).series - (e6 * e6).series
    s.check("forms/discriminant-relation", rel == d.series.scale(1728), {"prec": prec})
    eta = forms.eta_log_derivative(prec)
    s.check("forms/eta-log-derivative", eta.scale(6) == forms.eisenstein(2, prec), {"prec": prec})
    phi = forms.phi_zagier(prec)
    s.check("forms/phi-normalization", phi.series.scale(144) == e4.series, {"prec": prec})


def suite_canonical(s: Suite, n_max: int = 6, phi_sign: str = "both", prec: int = RunConfig.prec) -> None:
    prec = max(prec, 12)
    cat = s.catalogue(prec)
    pairs = [("E4", "E6"), ("E4", "Delta"), ("E6", "Delta")]
    phi_plus = forms.phi_zagier(prec)
    phis = {"minus": phi_plus.scale(-1), "plus": phi_plus}
    # one Zagier chain per form and sign of phi, every pair reading it
    chains = {(name, sign): nearlyholo.zagier_sequence(f, phi, n_max)
              for name, f in cat.items() for sign, phi in phis.items() if phi_sign in (sign, "both")}
    for a, b in pairs:
        if phi_sign in ("minus", "both"):
            repm = nearlyholo.verify_canonical_rc(chains[a, "minus"], chains[b, "minus"])
            s.check(
                f"canonical/corrected-element/{a}-{b}",
                repm["ok"],
                {"n_max": n_max, "prec": prec, "phi": "-E4/144"},
                **({} if repm["ok"] else {"witness": _jsonify(repm["failures"][:1])}),
            )
        if phi_sign != "minus":
            # with both signs the quoted element is expected to fail
            repp = nearlyholo.verify_canonical_rc(chains[a, "plus"], chains[b, "plus"])
            kind = "quoted-element-mismatch-reproduced" if phi_sign == "both" else "quoted-element"
            s.check(
                f"canonical/{kind}/{a}-{b}",
                repp["ok"] != (phi_sign == "both"),
                {"n_max": n_max, "prec": prec, "phi": "+E4/144"},
                witness=_jsonify(repp["failures"][:1]),
            )


def suite_combi(s: Suite, n_max: int = 5, prec: int = RunConfig.prec) -> None:
    cat = s.catalogue(prec)
    for a, b in [("E4", "E6"), ("E4", "Delta")]:
        f, g = cat[a], cat[b]
        brackets = nearlyholo.combi_brackets(f, g, n_max)
        # each degree through the raising operator is holomorphic and equals rc_bracket
        bad = next((n for n, out in enumerate(brackets) if not out.is_holomorphic()
                    or out.ypoly[0] != nearlyholo.rc_bracket(f, g, n).series.truncate(out.prec)), None)
        s.check(f"combi/holomorphic-and-equal/{a}-{b}", bad is None, {"n_max": n_max, "prec": prec},
                **({} if bad is None else {"witness": {"n": bad}}))


def suite_der(s: Suite, n_max: int = 5, prec: int = RunConfig.prec) -> None:
    prec = max(prec, 12)
    cat = s.catalogue(prec)
    for name, f in cat.items():
        bad = nearlyholo.verify_der_identity(f, n_max)
        s.check(f"der/{name}", bad is None, {"m_max": n_max, "prec": prec},
                **({} if bad is None else {"witness": {"m": bad}}))


def _casimir_ok(w: int, n: int) -> bool:
    """The Casimir acts on phi_n of the weight-w module as its scalar."""
    v = rep.Vector.basis((w,), (n,))
    return (rep.casimir(v) - v.scale(rep.casimir_eigenvalue(w))).is_zero()


def _kernel_row(n: int) -> dict:
    """The degree-n slice of the (4, 4, 6) triple and the kernel of act_lower on it."""
    dim = len(rep.degree_slice(n))
    ker = rep.triple_kernel_dim((4, 4, 6), n)
    return {"n": n, "slice_dim": dim, "kernel_dim": ker,
            "ok": ker == n + 1 and dim == (n + 1) * (n + 2) // 2}


def suite_casimir(s: Suite) -> None:
    n_max = 10
    for w in (2, 4, 6, 12):
        ok = all(_casimir_ok(w, n) for n in range(n_max + 1))
        s.check(f"casimir/weight-{w}", ok, {"n_max": n_max, "eigenvalue": str(rep.casimir_eigenvalue(w))})


def suite_propasso(s: Suite, prec: int = RunConfig.prec) -> None:
    n_kernel, n_realize = 8, 4
    cat = s.catalogue(prec)
    ok = all(
        rep.act_lower(rep.lowest_weight_tensor(x, y, n)).is_zero()
        for n in range(n_kernel + 1)
        for x in (2, 4, 8)
        for y in (4, 6, 12)
    )
    s.check("propasso/tensor-kernel", ok, {"n_max": n_kernel})
    f, g = cat["E4"], cat["E6"]
    fs, gs = nearlyholo.dtil_chain(f, n_realize), nearlyholo.dtil_chain(g, n_realize)

    def realizes_bracket(n: int) -> bool:
        got = rep.realize_and_multiply(rep.lowest_weight_tensor(4, 6, n), fs, gs)
        want = nearlyholo.rc_bracket(f, g, n).series.scale(1 / (pochhammer(4, n) * pochhammer(6, n)))
        return got.is_holomorphic() and got.ypoly[0] == want.truncate(got.prec)

    bad = next((n for n in range(n_realize + 1) if not realizes_bracket(n)), None)
    s.check("propasso/realization-E4-E6", bad is None, {"n_max": n_realize, "prec": prec},
            **({} if bad is None else {"witness": {"n": bad}}))


def suite_triple(s: Suite, prec: int = RunConfig.prec) -> None:
    n_max, xi_n_max = 8, 3
    dims_ok = all(_kernel_row(n)["ok"] for n in range(n_max + 1))
    s.check("triple/kernel-dimensions", dims_ok, {"n_max": n_max})
    # act_lower(preimage) + basis(target) = 0
    bad = next((t for n in range(1, 6) for t in rep.degree_slice(n - 1)
                if rep.act_lower(rep.triple_preimage(t)).as_dict() != {t: -1}), None)
    s.check("triple/preimage-formula", bad is None, {"n_max": 5},
            **({} if bad is None else {"witness": {"target": list(bad)}}))
    prec = max(10, min(prec, 15))
    cat = s.catalogue(prec)
    triples = [("E4", "E4", "E6"), ("E4", "E6", "Delta")]
    for names in triples:
        xis = rep.xi_vectors(*(cat[x] for x in names), xi_n_max)
        bad = next((np for np, xi in xis.items() if not nearlyholo.lower(xi).is_zero()), None)
        s.check(f"triple/xi-kernel/{'-'.join(names)}", bad is None, {"n_max": xi_n_max, "prec": prec},
                **({} if bad is None else {"witness": {"n": bad[0], "p": bad[1]}}))


def suite_ident(s: Suite, n_max: int = 5, grid_bound: int = RunConfig.grid_bound,
                kappa_samples: tuple = RunConfig.kappa_samples) -> None:
    tables = [coeffsolve.ATable.from_kappa(rat(k), n_max, 4 * grid_bound + 2 * n_max) for k in kappa_samples]
    checked, bad = 0, [0] * len(tables)
    for n in range(n_max + 1):
        for k, l, m, p in coeffsolve.ident_row_points(n, grid_bound):
            for i, r in enumerate(starprod.ident_residuals(tables, k, l, m, n, p)):
                bad[i] += r != 0
            checked += 1
    for kap_s, nonzero in zip(kappa_samples, bad):
        s.check(
            f"ident/kappa-{kap_s.replace('/', 'over')}",
            nonzero == 0,
            {"n_max": n_max, "grid": grid_bound},
            checked=checked,
            nonzero=nonzero,
        )


def suite_assoc(s: Suite, prec: int = RunConfig.prec, hbar_order: int = RunConfig.hbar_order) -> None:
    cat = s.catalogue(prec)
    eh = starprod.StarCoefficients.eholzer()
    for names in [("E4", "E4", "E6"), ("E4", "E6", "Delta")]:
        f, g, h = (GradedForm.from_form(cat[x]) for x in names)
        res = starprod.assoc_residual(f, g, h, eh, hbar_order)
        s.check(
            f"assoc/eholzer/{'-'.join(names)}",
            res.is_zero(),
            {"order": hbar_order, "prec": prec},
        )
    free_ok = all(
        not starprod.free_assoc_residual(w, eh, hbar_order)
        for w in [(2, 2, 2), (4, 6, 12), (2, 4, 8)]
    )
    s.check("assoc/eholzer-free-model", free_ok, {"order": hbar_order})


def _inconsistency(n: int, grid: int, res) -> dict:
    """The witness of a level-n record whose system is inconsistent: its first contradictory row."""
    if res.consistent:
        return {}
    row = res.certificate_row
    k, l, m, p = list(coeffsolve.ident_row_points(n, grid))[row]
    return {"witness": {"level": n, "certificate_row": row, "k": k, "l": l, "m": m, "p": p}}


def suite_solve_unique(s: Suite, grid: int = 6) -> None:
    known = coeffsolve.ATable.eholzer(1, 4 * grid + 12)
    sys2 = coeffsolve.build_ident_system(2, grid, known)
    res2 = coeffsolve.solve(sys2)
    kernel_ok = False
    if res2.consistent and res2.nullity == 1:
        # the one null vector is x*y/(x+y+1) up to a nonzero scale
        ratios = {v / Fraction(x * y, x + y + 1) for v, (x, y) in zip(res2.null_basis[0], sys2.variables)}
        kernel_ok = len(ratios) == 1 and 0 not in ratios
    s.check(
        "solve/level2-nullity-and-kernel",
        kernel_ok,
        {"grid": grid},
        nullity=res2.nullity,
        **_inconsistency(2, grid, res2),
    )
    table = coeffsolve.ATable.eholzer(5, 4 * grid + 12)
    for n in (3, 4, 5):
        sysn = coeffsolve.build_ident_system(n, grid, table)
        resn = coeffsolve.solve(sysn)
        s.check(
            f"solve/level{n}-unique",
            resn.consistent and resn.nullity == 0,
            {"grid": grid},
            nullity=resn.nullity,
            **_inconsistency(n, grid, resn),
        )
    # the three degrees share one chain, each read from n + 2 samples c = 0..n+1,
    # one more than the degree bound n: with n + 1 a degree above n would
    # alias to a lower one instead of failing the check
    cs = range(6)
    try:
        tables = coeffsolve.chain_solve_many(cs, 4)
        degs = [coeffsolve.interpolant_degree(cs[: n + 2], [t.get(n, 4, 4) for t in tables[: n + 2]])
                for n in (2, 3, 4)]
    except ValueError as exc:  # a chain level that is not uniquely solved
        s.check("solve/degree-in-c", False, {"pair": [4, 4]}, witness=str(exc))
    else:
        s.check("solve/degree-in-c", degs == [1, 1, 2], {"pair": [4, 4]}, degrees=degs)


def suite_kappa_c(s: Suite, printed: bool = False, grid_bound: int = RunConfig.grid_bound,
                  kappa_samples: tuple = RunConfig.kappa_samples) -> None:
    for kap_s in kappa_samples:
        repc = coeffsolve.kappa_c_report(rat(kap_s), grid_bound)
        name = f"kappa-c/{kap_s.replace('/', 'over')}"
        if not printed:
            s.check(
                name + "/fit",
                repc["fit_consistent"] and repc["fit_matches_formula"],
                {"grid": grid_bound},
                c_fit=str(repc["c_fit"]),
                **({} if repc["fit_witness"] is None else {"witness": repc["fit_witness"]}),
            )
        # printed asserts the quoted constant as-is; by default its mismatch is the verdict
        s.check(
            name + ("/quoted-constant" if printed else "/quoted-constant-mismatch-reproduced"),
            repc["quoted_family_matches_induced"] == printed,
            {"grid": grid_bound},
            c_quoted=str(repc["c_quoted"]),
            c_fit=str(repc["c_fit"]),
        )


def _det2x2_failure(n: int, k: int, l: int, m: int) -> str | None:
    """Why det2x2_lemma fails at (n, k, l, m): it differs from det2x2_direct, or it is >= 0."""
    value = coeffsolve.det2x2_lemma(n, k, l, m)
    if value != coeffsolve.det2x2_direct(n, k, l, m):
        return "closed form disagrees with the direct determinant"
    return None if value < 0 else "determinant not negative"


def suite_fine(s: Suite, grid: int = 5, n_max: int = 6, prec: int = RunConfig.prec) -> None:
    n_max = max(3, n_max)  # the lemma starts at n = 3; record the n actually checked
    points = itertools.product(range(3, n_max + 1), *[range(1, grid + 1)] * 3)
    witness = next(
        ({"n": n, "k": k, "l": l, "m": m, "reason": why}
         for n, k, l, m in points if (why := _det2x2_failure(n, k, l, m))),
        None,
    )
    s.check(
        "fine/det2x2-closed-form-negative",
        witness is None,
        {"n_max": n_max, "grid": grid},
        **({} if witness is None else {"witness": witness}),
    )
    ok3 = all(
        uniq.fine_det3(k, l, m) < 0
        for k in range(1, 7)
        for l in range(1, 7)
        for m in range(k, 7)
    )
    s.check("fine/det3-negative", ok3, {"range": 6})
    d = uniq.fine_det3_mpoly()
    s.check("fine/det3-l2-divisible", all(e[1] >= 2 for e in d.terms), {})
    prec = min(prec, 14)
    cat = s.catalogue(prec)
    resid = uniq.bracket_shift_residual(cat["E4"], cat["E4"], cat["E6"], 1)
    s.check("fine/shift-residual-nonconstant-middle", not resid.is_zero(), {"prec": prec})


def suite_p3(s: Suite) -> None:
    repp = uniq.p3_certify_report()
    s.check(
        "p3/substituted-all-positive",
        repp["substituted_all_positive"],
        {},
        witness=repp["positivity_witness"],
    )
    s.check(
        "p3/spot-coefficients",
        repp["coeff_k5_l"] == 48 and repp["coeff_l2_m8"] == 1536,
        {},
        k5_l=str(repp["coeff_k5_l"]),
        l2_m8=str(repp["coeff_l2_m8"]),
    )
    remainder = repp["division_remainder"]
    s.check(
        "p3/reference-diff-within-recorded-damage",
        remainder is None and repp["inner_diff"] == [] and repp["substituted_diff"] == [],
        {},
        inner_diff=repp["inner_diff"],
        substituted_diff=repp["substituted_diff"],
        **({} if remainder is None else {"witness": remainder}),
    )


def suite_uniqueness(s: Suite, seeds: int = 200, order: int = 3, prec: int = RunConfig.prec,
                     seed: int = RunConfig.seed) -> None:
    prec = min(prec, 15)
    stats = uniq.random_uniqueness_search(seeds, order=order, prec=prec, seed0=seed)
    # every third trial is a rescaling, which must be recovered; a drawn pair can
    # be one too (one of the 1,000 trials from seed 9000 is), so >= and not ==
    rescalings = len(range(0, seeds, 3))
    s.check(
        "uniqueness/no-counterexamples",
        stats["counterexamples"] == 0 and stats["recovered_constants"] >= rescalings,
        {"seeds": seeds, "order": order, "prec": prec},
        **stats,
    )


SUITES = {
    "forms": suite_forms,
    "canonical": suite_canonical,
    "combi": suite_combi,
    "der": suite_der,
    "casimir": suite_casimir,
    "propasso": suite_propasso,
    "triple": suite_triple,
    "ident": suite_ident,
    "assoc": suite_assoc,
    "solve-unique": suite_solve_unique,
    "kappa-c": suite_kappa_c,
    "fine": suite_fine,
    "p3": suite_p3,
    "uniqueness": suite_uniqueness,
}


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _form(name: str, prec: int):
    try:
        return form_by_name(name, prec)
    except ValueError as exc:  # a precision the named form cannot take
        raise UsageError(f"{name}: {exc}") from None


def _output(args: argparse.Namespace, obj, text) -> None:
    """A computation's result: obj as one JSON line under --json, else text."""
    if args.json:
        _print_json(obj)
    else:
        print(text)


def cmd_form(args: argparse.Namespace) -> int:
    f = _form(args.name, args.prec)
    obj = {"name": args.name, "weight": f.weight, "series": f.series.to_json_obj()}
    _output(args, obj, f"{args.name} (weight {f.weight}): {f.series}")
    return 0


def cmd_bracket(args: argparse.Namespace) -> int:
    f = _form(args.f, args.prec)
    g = _form(args.g, args.prec)
    b = nearlyholo.rc_bracket(f, g, args.n)
    obj = {"f": args.f, "g": args.g, "n": args.n, "weight": b.weight, "series": b.series.to_json_obj()}
    _output(args, obj, f"[{args.f}, {args.g}]_{args.n} (weight {b.weight}): {b.series}")
    return 0


def cmd_star(args: argparse.Namespace) -> int:
    if args.kappa is None:
        kind, coeffs = "eholzer", starprod.StarCoefficients.eholzer()
    else:
        kind, coeffs = "cmz", starprod.StarCoefficients.cmz(rat(args.kappa))
    f = GradedForm.from_form(_form(args.f, args.prec))
    g = GradedForm.from_form(_form(args.g, args.prec))
    series = starprod.star_product(f, g, coeffs, args.order)
    obj = {"f": args.f, "g": args.g, "kind": kind, "kappa": args.kappa, "order": args.order,
           "series": series.to_json_obj()}
    _output(args, obj, series)
    return 0


def cmd_rep(args: argparse.Namespace) -> int:
    if args.rep_command == "casimir":
        w, scalar = args.weight, str(rep.casimir_eigenvalue(args.weight))
        rows = [{"n": n, "scalar": scalar, "ok": _casimir_ok(w, n)} for n in range(args.n_max + 1)]
        ok = all(r["ok"] for r in rows)
        obj = {"weight": w, "eigenvalue": scalar, "checks": rows, "ok": ok}
        text = [f"casimir scalar at weight {w}: {scalar} ({'ok' if ok else 'FAIL'})"]
    else:  # kernel-dims: argparse admits no other subcommand
        rows = [_kernel_row(n) for n in range(args.n_max + 1)]
        obj = {"checks": rows, "ok": all(r["ok"] for r in rows)}
        text = [f"n={r['n']}: slice {r['slice_dim']}, kernel {r['kernel_dim']}" for r in rows]
    _output(args, obj, "\n".join(text))
    return 0 if obj["ok"] else 1


def cmd_solve(args: argparse.Namespace) -> int:
    c = rat(args.c)
    n = args.n
    (known,) = coeffsolve.chain_solve_many([c], n - 1, args.grid + 1)
    pairs, ech = coeffsolve.level_echelon(n, args.grid, [known])
    res = ech.result(pairs)
    table = None
    residual_nonzero = None
    if res.consistent and res.nullity == 0:
        table = coeffsolve.extended(known, n, pairs, res)
        residual_nonzero = sum(
            starprod.ident_residual(table, k, l, m, n, p) != 0
            for k, l, m, p in coeffsolve.ident_row_points(n, args.grid)
        )
    kernel = None
    if res.consistent and 0 < res.nullity <= 3:
        kernel = [
            {f"{p}": str(vec[i]) for i, p in enumerate(pairs) if vec[i] != 0}
            for vec in res.null_basis
        ]
    samples = None
    if table is not None:  # a small grid does not solve every sample entry
        samples = {f"A_{n}({x},{y})": str(table.get(n, x, y))
                   for x in (2, 4) for y in (2, 4, 6) if (n, x, y) in table.values}
    obj = {
        "n": n,
        "c": str(c),
        "grid": args.grid,
        "consistent": res.consistent,
        "nullity": res.nullity,
        "kernel_basis_size": len(res.null_basis),
        "kernel_basis": kernel,
        "residual_nonzero_count": residual_nonzero,
        "sample_values": samples,
    }
    _output(args, obj, obj)
    return 0 if res.consistent and not residual_nonzero else 1


# Each `verify` setting and the suites that take it as a keyword of its name,
# read off their signatures: a setting left out of the command line leaves each
# suite's default, and one that reaches none of the suites being run is a usage error.
_KEYWORDS = {name: list(inspect.signature(suite).parameters)[1:] for name, suite in SUITES.items()}
SUITE_FLAGS = {flag: tuple(name for name, kws in _KEYWORDS.items() if flag in kws)
               for kws in _KEYWORDS.values() for flag in kws}

# The least value of a setting for which a suite checks anything, and why; a
# run below it is a usage error, found before any suite runs.  A flag left
# out of the command line keeps its default, which is above it.
SUITE_FLOORS = {
    # the quoted +E4/144 element first differs at degree 2: a shorter run
    # cannot reproduce the mismatch and would report a false FAIL
    ("canonical", "n_max"): 2,
    # [f, g]_0 = f g reads no raising operator: a shorter run checks nothing
    ("combi", "n_max"): 1,
    # D^0 f = f reads no raising operator: a shorter run checks nothing
    ("der", "n_max"): 1,
    # levels 0 and 1 are built into every table: a shorter run reads no kappa value
    ("ident", "n_max"): 2,
    # at hbar^0 both bracketings are the undeformed product: nothing is checked
    ("assoc", "hbar_order"): 1,
}


def _option(setting: str) -> str:
    """The `verify` option that sets a setting, as the parser spells it."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return next(a.option_strings[0] for a in sub.choices["verify"]._actions if a.dest == setting)


def run_verify(suite: str, settings: dict) -> Suite:
    """Run `verify <suite>` after every usage check, handing each setting to the suites that take it."""
    names = list(SUITES) if suite == "all" else [suite]
    for setting in settings:
        if not set(names) & set(SUITE_FLAGS[setting]):
            raise UsageError(f"{_option(setting)} does not apply to the {suite} suite")
    for (name, setting), low in SUITE_FLOORS.items():
        if name in names and (value := settings.get(setting, low)) < low:
            raise UsageError(f"{_option(setting)} must be >= {low} for the {name} suite, got {value}")
    s = Suite(f"verify {suite}", RunConfig(**{k: settings[k] for k in settings.keys() & asdict(RunConfig())}))
    for name in names:
        try:
            SUITES[name](s, **{k: v for k, v in settings.items() if k in _KEYWORDS[name]})
        except Exception as exc:  # a crash is a failed verdict, reported as a record
            s.check(f"{name}/error", False, exception=type(exc).__name__, message=str(exc))
    return s


def cmd_verify(args: argparse.Namespace) -> int:
    s = run_verify(args.suite, {k: v for k, v in vars(args).items() if k in SUITE_FLAGS})
    emit(s.report(), args.json)
    return 0 if s.ok() else 1


class _Parser(argparse.ArgumentParser):
    """Reports every usage error as one line on stderr and exits 2; a prefix is not a flag."""

    def __init__(self, **kwargs):  # add_parser builds every subparser from this class too
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def _positive_even(text: str) -> int:
    value = int(text)
    if value < 2 or value % 2:
        raise argparse.ArgumentTypeError(f"must be a positive even weight, got {value}")
    return value


def _form_name(name: str) -> str:
    try:
        form_by_name(name, 2)  # the least prec every catalogue form accepts
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return name


def _rational(text: str) -> str:
    """Validate a 'p/q' argument; it is kept as written, since reports echo it."""
    try:
        rat(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None
    return text


def _rational_list(text: str) -> tuple[str, ...]:
    """A comma list of distinct rationals, each kept as written without its blanks."""
    pieces = tuple(_rational(piece.strip()) for piece in text.split(","))
    if len({rat(piece) for piece in pieces}) < len(pieces):
        raise argparse.ArgumentTypeError(f"lists a value twice: {text!r}")
    return pieces


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="rc-lab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("form", help="print a catalogue form")
    p.add_argument("name", type=_form_name)
    p.add_argument("--prec", type=_int_at_least(1), default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_form)

    p = sub.add_parser("bracket", help="compute a bracket of two catalogue forms")
    p.add_argument("--f", type=_form_name, required=True)
    p.add_argument("--g", type=_form_name, required=True)
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--prec", type=_int_at_least(1), default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("star", help="compute a deformed product")
    p.add_argument("--kappa", type=_rational, default=None, help="use cmz(kappa), not eholzer")
    p.add_argument("--f", type=_form_name, required=True)
    p.add_argument("--g", type=_form_name, required=True)
    p.add_argument("--order", type=_int_at_least(0), default=4)
    p.add_argument("--prec", type=_int_at_least(1), default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_star)

    p = sub.add_parser("rep", help="lowest-weight model computations")
    repsub = p.add_subparsers(dest="rep_command", required=True)
    pc = repsub.add_parser("casimir")
    pc.add_argument("--weight", type=_positive_even, required=True)
    pc.add_argument("--n-max", dest="n_max", type=_int_at_least(0), default=10)
    pc.add_argument("--json", action="store_true")
    pk = repsub.add_parser("kernel-dims")
    pk.add_argument("--n-max", dest="n_max", type=_int_at_least(0), default=8)
    pk.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_rep)

    p = sub.add_parser("solve", help="solve coefficient identity systems")
    solvesub = p.add_subparsers(dest="solve_command", required=True)
    pa = solvesub.add_parser("an")
    pa.add_argument("--n", type=_int_at_least(1), required=True)
    pa.add_argument("--grid", type=_int_at_least(1), default=6)
    pa.add_argument("--c", type=_rational, default="0")
    pa.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=(*SUITES, "all"))
    # the SUITE_FLAGS: absent unless given, so each suite keeps its own default
    unset = argparse.SUPPRESS
    p.add_argument("--prec", type=_int_at_least(2), default=unset)
    p.add_argument("--hbar-order", dest="hbar_order", type=_int_at_least(0), default=unset)
    p.add_argument("--grid-bound", dest="grid_bound", type=_int_at_least(1), default=unset)
    p.add_argument("--seed", type=int, default=unset)
    p.add_argument("--kappas", dest="kappa_samples", type=_rational_list, default=unset,
                   help="comma-separated kappa sample list")
    p.add_argument("--grid", type=_int_at_least(1), default=unset)
    p.add_argument("--n-max", dest="n_max", type=_int_at_least(0), default=unset)
    p.add_argument("--seeds", type=_int_at_least(1), default=unset)
    p.add_argument("--order", type=_int_at_least(0), default=unset)
    p.add_argument("--phi-sign", dest="phi_sign", choices=("plus", "minus", "both"), default=unset)
    p.add_argument("--printed", action="store_true", default=unset,
                   help="assert the quoted kappa->c constant as-is")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    return ap


def _merge_negative_values(argv: list[str]) -> list[str]:
    # argparse rejects option values like -5/4; fold them into --flag=value
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--c", "--kappa", "--kappas") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_merge_negative_values(list(argv)))
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        parser.error(str(exc))
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull so the exit flush
        # cannot raise again, and fail without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
