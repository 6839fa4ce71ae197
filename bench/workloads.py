"""The three benchmark workloads: seeded inputs, the timed call, the output checks.

Each workload is a small class with

  setup(seed)      build the inputs from the seed (counted in setup_s)
  run(inputs)      the timed region: library calls until the verdict is in hand
  check(inputs, outputs, recompute) -> list[Unit]
                   exact checks outside the timed region; each Unit carries
                   the operations it covers, how many failed, and a digest
                   of its output for the golden comparison.  With recompute
                   False, checks that cost as much as the run itself are
                   skipped: the caller then relies on the digest matching a
                   run at the same seed whose checks were made

The library only ever sees the generated inputs, never the seed.  Why each
workload exists, and which layer it is meant to expose, is in NOTES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class Unit:
    name: str
    attempted: int
    failed: int
    digest: str


def jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def digest(obj) -> str:
    text = json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class VerifyAll:
    """`rc-lab verify all --json --seed S`, in-process, stdout captured.

    One operation is one check record of the report.
    """

    name = "verify-all"
    records = 52

    def __init__(self, rclab):
        from rclab import cli

        self.cli = cli

    def setup(self, seed: int):
        return ["verify", "all", "--json", "--seed", str(seed)]

    def planned_ops(self, inputs) -> int:
        return self.records

    def run(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    def check(self, argv, outputs, recompute: bool = True) -> list[Unit]:
        code, text = outputs
        report = json.loads(text)
        units = [Unit(f"record/{rec['name']}", 1, int(rec["status"] != "pass"), digest(rec))
                 for rec in report["checks"]]
        missing = self.records - len(units)
        verdict_ok = code == 0 and report["ok"] is True and missing <= 0
        units.append(Unit("report", max(missing, 0), 0 if verdict_ok else max(missing, 1),
                          hashlib.sha256(text.encode()).hexdigest()))
        return units


class QSeriesBrackets:
    """rc_bracket for n = 0..6 at two precisions, plus one cmz associativity residual.

    Pairs: the generator pairs (E4,E6), (E4,Delta), (E6,Delta) and two seeded
    pairs of isobaric combinations of E4^a E6^b.  One form of each seeded
    pair is scaled by a non-integer rational, so every run mixes integral
    and non-integral operands.  One operation is one bracket or one
    associativity residual.
    """

    name = "qseries-brackets"
    precs = (30, 150)
    n_max = 6
    # weights of the four seeded forms; the seed only shuffles them, so the
    # amount of work stays the same from seed to seed
    seeded_weights = (4, 8, 12, 16)

    def __init__(self, rclab):
        self.rclab = rclab

    @staticmethod
    def _basis(weight):
        return [(a, (weight - 4 * a) // 6) for a in range(weight // 4 + 1) if (weight - 4 * a) % 6 == 0]

    def setup(self, seed: int):
        forms = self.rclab.forms
        rng = random.Random(seed)
        top = max(self.precs)
        e4, e6, delta = forms.eisenstein_form(4, top), forms.eisenstein_form(6, top), forms.delta(top)
        pairs = [("E4-E6", e4, e6), ("E4-Delta", e4, delta), ("E6-Delta", e6, delta)]
        # every monomial of every seeded weight is built, whatever the
        # coefficients, so that set-up does the same work at every seed
        basis = {ab for w in self.seeded_weights for ab in self._basis(w)}
        powers = {}
        for base, gen in ((4, e4.series), (6, e6.series)):
            top_e = max(ab[base == 6] for ab in basis)
            for e in range(1, top_e + 1):
                powers[base, e] = gen if e == 1 else powers[base, e - 1] * gen
        monomials = {(a, b): powers[4, a] * powers[6, b] if a and b else powers[(4, a) if a else (6, b)]
                     for a, b in basis}
        weights = list(self.seeded_weights)
        rng.shuffle(weights)
        for i in range(len(weights) // 2):
            f, g = (forms.ModularForm(w, self._combo(rng, w, monomials))
                    for w in weights[2 * i: 2 * i + 2])
            scale = Fraction(rng.randint(1, 9), rng.randint(2, 9))
            if scale.denominator == 1:
                scale += Fraction(1, 2)
            scale *= rng.choice((1, -1))
            if rng.random() < 0.5:
                f = f.scale(scale)
            else:
                g = g.scale(scale)
            pairs.append((f"seeded{i}", f, g))
        brackets = [(f"{label}/prec{prec}", f.truncate(prec), g.truncate(prec))
                    for prec in self.precs for label, f, g in pairs]
        low = min(self.precs)
        kappa = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        triple = [forms.GradedForm.from_form(x.truncate(low)) for x in (e4, e6, delta)]
        return {"brackets": brackets, "kappa": kappa, "triple": triple}

    def _combo(self, rng, weight, monomials):
        basis = self._basis(weight)
        coeffs = [rng.randint(-3, 3) for _ in basis]
        if not any(coeffs):
            coeffs[rng.randrange(len(coeffs))] = rng.choice((-3, -2, -1, 1, 2, 3))
        total = None
        for ab, c in zip(basis, coeffs):
            if c:
                term = monomials[ab].scale(c)
                total = term if total is None else total + term
        return total

    def planned_ops(self, inputs) -> int:
        return len(inputs["brackets"]) * (self.n_max + 1) + 1

    def run(self, inputs):
        rc_bracket = self.rclab.nearlyholo.rc_bracket
        sp = self.rclab.starprod
        out = {}
        for label, f, g in inputs["brackets"]:
            for n in range(self.n_max + 1):
                out[f"bracket/{label}/n{n}"] = rc_bracket(f, g, n)
        f, g, h = inputs["triple"]
        out["assoc/cmz"] = sp.assoc_residual(f, g, h, sp.StarCoefficients.cmz(inputs["kappa"]), 4)
        return out

    def check(self, inputs, outputs, recompute: bool = True) -> list[Unit]:
        rc_bracket = self.rclab.nearlyholo.rc_bracket
        units = []
        for label, f, g in inputs["brackets"]:
            for n in range(self.n_max + 1):
                key = f"bracket/{label}/n{n}"
                fg = outputs[key]
                ok = True
                if recompute:
                    gf = rc_bracket(g, f, n)
                    ok = gf.weight == fg.weight and gf.series == fg.series.scale((-1) ** n)
                units.append(Unit(key, 1, int(not ok),
                                  digest({"weight": fg.weight, "series": fg.series.to_json_obj()})))
        res = outputs["assoc/cmz"]
        units.append(Unit("assoc/cmz", 1, int(not res.is_zero()), digest(res.to_json_obj())))
        return units


class CoeffSystems:
    """Scalar Fraction algebra only: identity systems, degrees in c, residual sweeps.

    One operation is one identity row built (by the top-level systems), one
    ident_residual or free_assoc_residual evaluated, or one degree_in_c.
    """

    name = "coeff-systems"
    grid = 6
    levels = (2, 3, 4, 5)
    degree_levels = (2, 3, 4)
    ident_n_max = 5
    ident_grid = 4
    kappas = 2
    triples = 6

    def __init__(self, rclab):
        self.rclab = rclab

    def setup(self, seed: int):
        cs, sp = self.rclab.coeffsolve, self.rclab.starprod
        rng = random.Random(seed)
        bound = 4 * self.grid + 12
        known = {2: cs.ATable.eholzer(1, bound)}
        table = cs.ATable.eholzer(max(self.levels), bound)
        known.update({n: table for n in self.levels if n > 2})
        kappas = []
        while len(kappas) < self.kappas:
            k = Fraction(rng.randint(-9, 9), rng.randint(2, 7))
            if k.denominator > 1 and k not in kappas:
                kappas.append(k)
        tables = [cs.ATable.from_kappa(k, self.ident_n_max, 4 * self.ident_grid + 2 * self.ident_n_max)
                  for k in kappas]
        triples = [(tuple(rng.choice(range(2, 17, 2)) for _ in range(3)),
                    sp.StarCoefficients.cmz(kappas[i % len(kappas)]))
                   for i in range(self.triples)]
        return {"known": known, "kappas": kappas, "tables": tables, "triples": triples}

    def _ident_count(self) -> int:
        return sum(n + 1 for n in range(self.ident_n_max + 1)) * self.ident_grid ** 3

    def planned_ops(self, inputs) -> int:
        # rows per level-n system on grid g: (n + 1) g^3
        rows = sum((n + 1) * self.grid ** 3 for n in self.levels)
        return (rows + len(self.degree_levels) + len(inputs["tables"]) * self._ident_count()
                + len(inputs["triples"]))

    def run(self, inputs):
        cs, sp = self.rclab.coeffsolve, self.rclab.starprod
        out = {}
        for n in self.levels:
            system = cs.build_ident_system(n, self.grid, inputs["known"][n])
            out[f"system/level{n}"] = (system, cs.solve(system))
        for n in self.degree_levels:
            out[f"degree/level{n}"] = cs.degree_in_c(n, (4, 4), list(range(n + 1)))
        g = self.ident_grid
        for i, table in enumerate(inputs["tables"]):
            out[f"ident/kappa{i}"] = [
                sp.ident_residual(table, k, l, m, n, p)
                for n in range(self.ident_n_max + 1) for p in range(n + 1)
                for k in range(1, g + 1) for l in range(1, g + 1) for m in range(1, g + 1)]
        for i, (weights, coeffs) in enumerate(inputs["triples"]):
            out[f"free/{i}"] = sp.free_assoc_residual(weights, coeffs, 4)
        return out

    def check(self, inputs, outputs, recompute: bool = True) -> list[Unit]:
        units = []
        for n in self.levels:
            system, res = outputs[f"system/level{n}"]
            ok = res.consistent and res.nullity == (1 if n == 2 else 0)
            if ok and n == 2:
                # the kernel is x*y/(x+y+1) up to scale
                vec = res.null_basis[0]
                ratios = {vec[i] / Fraction(x * y, x + y + 1) for i, (x, y) in enumerate(system.variables)}
                ok = len(ratios) == 1 and 0 not in ratios
            units.append(Unit(f"system/level{n}", len(system.rows), 0 if ok else len(system.rows), digest({
                "variables": system.variables, "rank": res.rank, "nullity": res.nullity,
                "solution": res.solution, "null_basis": res.null_basis})))
        expected = {2: 1, 3: 1, 4: 2}
        for n in self.degree_levels:
            got = outputs[f"degree/level{n}"]
            units.append(Unit(f"degree/level{n}", 1, int(got != expected[n]), digest(got)))
        for i in range(len(inputs["tables"])):
            resid = outputs[f"ident/kappa{i}"]
            units.append(Unit(f"ident/kappa{i}", len(resid), sum(r != 0 for r in resid), digest(resid)))
        for i in range(len(inputs["triples"])):
            resid = outputs[f"free/{i}"]
            units.append(Unit(f"free/{i}", 1, int(bool(resid)), digest(sorted(resid.items()))))
        return units


WORKLOADS = {w.name: w for w in (VerifyAll, QSeriesBrackets, CoeffSystems)}
