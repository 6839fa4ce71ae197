"""Span tracing around the public functions of each rclab module.

The wrappers live here, in the benchmark, and observe the library from the
outside: nothing under src/ knows it is traced.  Installing them rebinds
every module-level name, class attribute and registry entry that refers to
a traced function, because the modules import `binom`, `rc_bracket` and
friends by name and a patch on the defining module alone would miss those
call sites.

Spans (name, start, end, parent) live in flat arrays while the workload
runs and are written once at the end.  Self time is computed afterwards
from the span tree: a span's duration minus the durations of its direct
children.  Counters computed from a call's operands (coefficient products,
operand bits, distinct arguments, system sizes) run after the call returns,
inside a `trace.counters` span, so their cost lands in no layer's time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

COUNTERS = "trace.counters"
SETUP = "bench.setup"
ROOT = "bench.timed"


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self._restore: list[tuple[object, str, object, bool]] = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append(sid)
        self.span_start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def see(self, key: str, arg) -> None:
        self.distinct.setdefault(key, set()).add(arg)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        cid = self.name_id(COUNTERS)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hook is not None:
                hid = tracer.open(cid)
                hook(tracer, args, kwargs, result)
                tracer.close(hid)
            return result

        return traced

    def patch(self, modules: list, fn, wrapped) -> int:
        """Replace every binding of `fn` in the modules, their classes and dicts."""
        hits = 0
        for mod in modules:
            for owner in [mod] + [v for v in vars(mod).values() if inspect.isclass(v)]:
                for attr, val in list(vars(owner).items()):
                    if val is fn:
                        self._restore.append((owner, attr, fn, False))
                        setattr(owner, attr, wrapped)
                        hits += 1
                    elif isinstance(val, dict) and owner is mod:
                        for key, item in list(val.items()):
                            if item is fn:
                                self._restore.append((val, key, fn, True))
                                val[key] = wrapped
                                hits += 1
        return hits

    def uninstall(self) -> None:
        for owner, attr, fn, is_dict in reversed(self._restore):
            if is_dict:
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        per: dict[str, list] = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            rec = per[self.names[self.span_name[i]]]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child[i]
        return {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in per.items()}

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that have an `ancestor` span above them."""
        nid, aid = self.name_ids.get(name), self.name_ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        inside = bytearray(len(self.span_name))
        hits = 0
        for i, (sn, p) in enumerate(zip(self.span_name, self.span_parent)):
            inside[i] = 1 if (p >= 0 and (inside[p] or self.span_name[p] == aid)) else 0
            if sn == nid and inside[i]:
                hits += 1
        return hits

    def dump(self, path: Path) -> None:
        """Write the span arrays (binary) and the name table, once."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".spans"), "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        meta = {"spans": len(self.span_name), "names": self.names, "counts": self.counts,
                "layout": ["name:i32", "parent:i32", "start:f64", "end:f64"]}
        path.with_suffix(".json").write_text(json.dumps(meta, sort_keys=True))


# ---------------------------------------------------------------------------
# Counter hooks: computed from operands after the call returns
# ---------------------------------------------------------------------------


def _mul_hook(t: Tracer, args, kwargs, result) -> None:
    a, b = args
    prec = min(a.prec, b.prec)
    ac, bc = a.coeffs[:prec], b.coeffs[:prec]
    # nonzero pairs a_i * b_j with i + j < prec, via prefix counts of nonzero b_j
    prefix = [0]
    for c in bc:
        prefix.append(prefix[-1] + (c != 0))
    t.count("exactcore.qseries_mul.coeff_products",
            sum(prefix[prec - i] for i, c in enumerate(ac) if c != 0))
    t.count("exactcore.qseries_mul.operand_bits", sum(
        c.numerator.bit_length() + c.denominator.bit_length() for c in ac + bc))
    if all(c.denominator == 1 for c in ac + bc):
        t.count("exactcore.qseries_mul.integral")


def _distinct_hook(key):
    def hook(t: Tracer, args, kwargs, result) -> None:
        t.see(key, (args, tuple(sorted(kwargs.items()))))
    return hook


def _solve_hook(t: Tracer, args, kwargs, result) -> None:
    system = args[0] if args else kwargs["sys"]
    t.count("coeffsolve.solve.rows", len(system.rows))
    t.count("coeffsolve.solve.unknowns", len(system.variables))
    t.count("coeffsolve.solve.rank", result.rank)
    t.count("coeffsolve.solve.nnz", sum(len(coeffs) for coeffs, _ in system.rows))


def _search_hook(t: Tracer, args, kwargs, result) -> None:
    t.count("uniq.search.trials", result["trials"])


def _targets(rclab) -> list[tuple[str, object, object]]:
    """(span name, function object, hook) for every traced entry point."""
    ec, forms, nh, rep = rclab.exactcore, rclab.forms, rclab.nearlyholo, rclab.rep
    sp, cs, uq, cli = rclab.starprod, rclab.coeffsolve, rclab.uniq, rclab.cli
    qs, mp = ec.QSeries, ec.MPoly
    out = [
        ("exactcore.qseries_mul", qs.__mul__, _mul_hook),
        *[("exactcore.qseries_linear", getattr(qs, m), None)
          for m in ("__add__", "__sub__", "scale", "derive", "truncate", "shift")],
        ("exactcore.binom", ec.binom, _distinct_hook("exactcore.binom")),
        ("exactcore.pochhammer", ec.pochhammer, _distinct_hook("exactcore.pochhammer")),
        ("exactcore.mpoly_mul", mp.__mul__, None),
        ("exactcore.mpoly_substitute", mp.substitute, None),
        ("exactcore.mpoly_substitute", mp.evaluate, None),
        ("forms.eisenstein", forms.eisenstein, _distinct_hook("forms.eisenstein")),
        ("forms.delta", forms.delta, None),
        ("nearlyholo.rc_bracket", nh.rc_bracket, _distinct_hook("nearlyholo.rc_bracket")),
        ("nearlyholo.raise", nh.shimura_X, None),
        ("nearlyholo.canonical_rc", nh.canonical_rc, None),
        ("starprod.star_product", sp.star_product, None),
        ("starprod.ident_residual", sp.ident_residual, None),
        ("starprod.cmz_coeff", sp.cmz_coeff, None),
        ("starprod.free_assoc_residual", sp.free_assoc_residual, None),
        ("coeffsolve.build_ident_system", cs.build_ident_system, None),
        ("coeffsolve.solve", cs.solve, _solve_hook),
        ("uniq.search", uq.random_uniqueness_search, _search_hook),
        ("uniq.full_check", uq.rc_uniqueness_check, None),
        ("uniq.to_form", uq.IsobaricPoly.to_form, None),
        ("cli.emit", cli.emit, None),
    ]
    out += [("uniq.p3", fn, None) for name, fn in vars(uq).items()
            if name.startswith("p3_") and inspect.isfunction(fn)]
    out += [(f"rep.{name}", fn, None) for name, fn in vars(rep).items()
            if inspect.isfunction(fn) and fn.__module__ == rep.__name__ and not name.startswith("_")]
    out += [(f"cli.suite.{name}", fn, None) for name, fn in cli.SUITES.items()]
    return out


def install(tracer: Tracer, rclab) -> None:
    """Wrap every traced entry point at all of its bindings."""
    importlib.import_module("rclab.cli")
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "rclab" or name.startswith("rclab."))]
    for name, fn, hook in _targets(rclab):
        if tracer.patch(modules, fn, tracer.wrap(name, fn, hook)) == 0:
            raise RuntimeError(f"no binding found for traced function {name}")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run (trace.overhead_frac is added by the caller)."""
    agg = tracer.aggregate()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name):
        return agg.get(name, zero)

    def distinct_frac(name):
        calls = span(name)["calls"]
        return len(tracer.distinct.get(name, ())) / calls if calls else 0.0

    c = tracer.counts
    m: dict[str, float] = {}
    mul = span("exactcore.qseries_mul")
    m["exactcore.qseries_mul.calls"] = mul["calls"]
    m["exactcore.qseries_mul.self_s"] = mul["self_s"]
    m["exactcore.qseries_mul.coeff_products"] = c.get("exactcore.qseries_mul.coeff_products", 0)
    m["exactcore.qseries_mul.operand_bits"] = c.get("exactcore.qseries_mul.operand_bits", 0)
    m["exactcore.qseries_mul.integral_frac"] = (
        c.get("exactcore.qseries_mul.integral", 0) / mul["calls"] if mul["calls"] else 0.0)
    m["exactcore.qseries_linear.self_s"] = span("exactcore.qseries_linear")["self_s"]
    for name in ("exactcore.binom", "exactcore.pochhammer"):
        m[f"{name}.calls"] = span(name)["calls"]
        m[f"{name}.self_s"] = span(name)["self_s"]
        m[f"{name}.distinct_frac"] = distinct_frac(name)
    m["exactcore.mpoly_mul.calls"] = span("exactcore.mpoly_mul")["calls"]
    m["exactcore.mpoly_mul.self_s"] = span("exactcore.mpoly_mul")["self_s"]
    m["exactcore.mpoly_substitute.self_s"] = span("exactcore.mpoly_substitute")["self_s"]
    m["forms.eisenstein.calls"] = span("forms.eisenstein")["calls"]
    m["forms.eisenstein.self_s"] = span("forms.eisenstein")["self_s"]
    m["forms.eisenstein.distinct_frac"] = distinct_frac("forms.eisenstein")
    m["forms.delta.self_s"] = span("forms.delta")["self_s"]
    m["nearlyholo.rc_bracket.calls"] = span("nearlyholo.rc_bracket")["calls"]
    m["nearlyholo.rc_bracket.self_s"] = span("nearlyholo.rc_bracket")["self_s"]
    m["nearlyholo.rc_bracket.distinct_frac"] = distinct_frac("nearlyholo.rc_bracket")
    m["nearlyholo.raise.calls"] = span("nearlyholo.raise")["calls"]
    m["nearlyholo.raise.self_s"] = span("nearlyholo.raise")["self_s"]
    m["nearlyholo.canonical_rc.self_s"] = span("nearlyholo.canonical_rc")["self_s"]
    m["rep.self_s"] = sum(v["self_s"] for k, v in agg.items() if k.startswith("rep."))
    m["rep.triple_kernel_dim.calls"] = span("rep.triple_kernel_dim")["calls"]
    for name in ("star_product", "ident_residual", "cmz_coeff"):
        m[f"starprod.{name}.calls"] = span(f"starprod.{name}")["calls"]
        m[f"starprod.{name}.self_s"] = span(f"starprod.{name}")["self_s"]
    m["starprod.free_assoc_residual.self_s"] = span("starprod.free_assoc_residual")["self_s"]
    for name in ("build_ident_system", "solve"):
        m[f"coeffsolve.{name}.calls"] = span(f"coeffsolve.{name}")["calls"]
        m[f"coeffsolve.{name}.self_s"] = span(f"coeffsolve.{name}")["self_s"]
    for stat in ("rows", "unknowns", "rank", "nnz"):
        m[f"coeffsolve.solve.{stat}"] = c.get(f"coeffsolve.solve.{stat}", 0)
    trials = c.get("uniq.search.trials", 0)
    m["uniq.search.trials"] = trials
    m["uniq.search.full_checks"] = span("uniq.full_check")["calls"]
    m["uniq.search.brackets_per_trial"] = (
        tracer.calls_under("nearlyholo.rc_bracket", "uniq.search") / trials if trials else 0.0)
    m["uniq.to_form.calls"] = span("uniq.to_form")["calls"]
    m["uniq.to_form.self_s"] = span("uniq.to_form")["self_s"]
    m["uniq.p3.self_s"] = span("uniq.p3")["self_s"]
    for name in SUITE_NAMES:
        m[f"cli.suite.{name}.wall_s"] = span(f"cli.suite.{name}")["total_s"]
    m["cli.emit.self_s"] = span("cli.emit")["self_s"]
    return m


def diagnostics(tracer: Tracer) -> dict:
    """Tracer bookkeeping kept beside the metrics: span count, hook cost, glue time."""
    agg = tracer.aggregate()
    return {"spans": len(tracer.span_name),
            "counters_s": agg.get(COUNTERS, {}).get("total_s", 0.0),
            "unattributed_s": agg.get(ROOT, {}).get("self_s", 0.0)}


# The 14 suites of `rc-lab verify all`, in registry order.  Listed here, not
# read from the library, so that a suite renamed or dropped shows as a
# missing metric instead of silently changing the metric set.
SUITE_NAMES = ("forms", "canonical", "combi", "der", "casimir", "propasso", "triple",
               "ident", "assoc", "solve-unique", "kappa-c", "fine", "p3", "uniqueness")
