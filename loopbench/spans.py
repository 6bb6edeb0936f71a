"""Per-layer spans and counters, recorded from outside the library.

`Tracer.install()` replaces loopgrowth's public functions, at every module
attribute where a caller looks them up (both `series.poly_gcd` and
`polynomial.poly_gcd`, say), with wrappers that record a span: name,
parent span, request id, start and end. Counters are read off arguments and
return values at the same boundary: degrees, coefficient bit sizes, rows,
basis words. Spans stay in memory and are written out at the end of a run.

Self time is a span's duration minus the durations of its direct children.
Counter extraction runs after the span closes, inside the parent's span.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from loopgrowth import cli, freeloop, loop, polynomial, series, space, torsion

MODULES = (polynomial, series, space, loop, freeloop, torsion, cli)


def _bits(values) -> int:
    return max((abs(int(v)).bit_length() for v in values), default=0)


def _gcd_info(args, kwargs, result):
    a, b = args[:2]
    return {"in_degree": max(a.degree(), b.degree()), "out_bits": _bits(result.coeffs)}


def _sturm_info(args, kwargs, result):
    return {"bits": max((max(c.numerator.bit_length(), c.denominator.bit_length())
                         for row in result for c in row), default=0)}


def _bisect_info(args, kwargs, result):
    lo, hi = args[2], args[3]
    new_lo, new_hi = result
    if new_hi > new_lo:
        ratio = (hi - lo) / (new_hi - new_lo)
        return {"steps": ratio.numerator.bit_length() - 1}
    return {"steps": None}


def _pole_info(args, kwargs, result):
    return {"exact": result.is_exact, "den": args[0].den.coeffs}


def _expand_info(args, kwargs, result):
    return {"terms": len(result.coeffs)}


def _rank_info(args, kwargs, result):
    return {"rows": len(args[0])}


def _brute_info(args, kwargs, result):
    return {"words": sum(freeloop.tensor_algebra_dims(args[0], args[1]))}


def _census_info(args, kwargs, result):
    return {"factors": sum(args[0].factors.values())}


# span name -> (owner, attribute, counter extraction)
FUNCTIONS = {
    "polynomial.poly_gcd": (polynomial, "poly_gcd", _gcd_info),
    "polynomial.squarefree_part": (polynomial, "squarefree_part", None),
    "polynomial.sturm_chain": (polynomial, "sturm_chain", _sturm_info),
    "polynomial.count_roots_halfopen": (polynomial, "count_roots_halfopen", None),
    "series.RationalGF.normalize": (series, "_normalize", None),
    "series.expand": (series, "expand", _expand_info),
    "series.smallest_positive_pole": (series, "smallest_positive_pole", _pole_info),
    "series.compare_radii": (series, "compare_radii", None),
    "series.bisect": (series, "_bisect", _bisect_info),
    "loop.loop_gf": (loop, "loop_gf", None),
    "loop.inert_cofiber_loop_gf": (loop, "inert_cofiber_loop_gf", None),
    "loop.good_growth_verdict": (loop, "good_growth_verdict", None),
    "freeloop.exact_rank": (freeloop, "exact_rank", _rank_info),
    "freeloop.hh_bruteforce": (freeloop, "hh_bruteforce", _brute_info),
    "freeloop.hh_necklace": (freeloop, "hh_necklace", None),
    "torsion.hilton_milnor_census": (torsion, "hilton_milnor_census", None),
    "torsion.torsion_report": (torsion, "torsion_report", None),
    "space.parse": (space, "parse", None),
}
METHODS = {
    "series.Radius.refined": (series.Radius, "refined", None),
    "torsion.HiltonMilnorCensus.reconstruct": (torsion.HiltonMilnorCensus, "reconstruct", _census_info),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent, request, start, end, info]
        self.request = None
        self._stack = []
        self._patched = []

    def begin(self, request_id) -> None:
        self.request = request_id
        self._stack.clear()  # a RecursionError may have skipped some pops

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, stack[-1] if stack else None, self.request, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                if stack and stack[-1] == sid:
                    stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name, (owner, attr, info) in FUNCTIONS.items():
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, info)
            for module in MODULES:
                if module.__dict__.get(attr) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapped)
        for name, (owner, attr, info) in METHODS.items():
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, info))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, request, start, end, info) in enumerate(self.spans):
                info = {k: v for k, v in (info or {}).items() if k != "den"}
                fh.write(json.dumps({"id": sid, "parent": parent, "request": request, "name": name,
                                     "start": start, "end": end, **info}) + "\n")

    def layer_metrics(self, passes: int) -> dict:
        """Counts and times per pass over the request list."""
        spans = self.spans
        child = defaultdict(float)
        for name, parent, _, start, end, _ in spans:
            if parent is not None:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        infos = defaultdict(list)
        for sid, (name, parent, _, start, end, info) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[sid]
            if info is not None:
                infos[name].append((sid, info))

        def total(name, key):
            return sum(i[key] for _, i in infos[name] if i[key] is not None)

        def largest(name, key):
            return max((i[key] for _, i in infos[name]), default=0)

        poles = infos["series.smallest_positive_pole"]
        unused = sum(i["terms"] for sid, i in infos["series.expand"]
                     if spans[sid][1] is not None and spans[spans[sid][1]][0] == "series.smallest_positive_pole")
        per_verdict = defaultdict(list)
        for sid, i in poles:
            up = spans[sid][1]
            while up is not None and spans[up][0] != "loop.good_growth_verdict":
                up = spans[up][1]
            if up is not None:
                per_verdict[up].append(i["den"])
        verdicts = calls["loop.good_growth_verdict"]

        out = {}
        for name in list(FUNCTIONS) + list(METHODS) + ["cli.run"]:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_s"] = self_s[name] / passes
        out.update({
            "polynomial.poly_gcd.max_in_degree": largest("polynomial.poly_gcd", "in_degree"),
            "polynomial.poly_gcd.max_out_bits": largest("polynomial.poly_gcd", "out_bits"),
            "polynomial.sturm_chain.max_bits": largest("polynomial.sturm_chain", "bits"),
            "series.bisection_steps": total("series.bisect", "steps") / passes,
            "series.smallest_positive_pole.exact_frac":
                sum(i["exact"] for _, i in poles) / len(poles) if poles else 0.0,
            "series.expand.terms": total("series.expand", "terms") / passes,
            "series.expand.unused_terms": unused / passes,
            "loop.poles_per_verdict": sum(map(len, per_verdict.values())) / verdicts if verdicts else 0.0,
            "loop.distinct_poles_per_verdict":
                sum(len(set(d)) for d in per_verdict.values()) / verdicts if verdicts else 0.0,
            "freeloop.exact_rank.rows": total("freeloop.exact_rank", "rows") / passes,
            "freeloop.hh_bruteforce.basis_words": total("freeloop.hh_bruteforce", "words") / passes,
            "torsion.HiltonMilnorCensus.reconstruct.factors":
                total("torsion.HiltonMilnorCensus.reconstruct", "factors") / passes,
            "cli.run.report_bytes": total("cli.run", "bytes") / passes,
        })
        return out
