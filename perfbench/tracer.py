"""Spans and work counters around regcert's layer entry points.

The tracer wraps public functions of the groebner, monomials, resolution
and verify modules from outside the package: it rebinds every name in a
regcert module that refers to the wrapped function, because modules
import each other's functions by name.  Spans (name, start, end, parent)
are kept in memory and written as JSON lines when the repetition ends.
Work counters are computed from arguments and results only.
"""

import json
import sys
import time


def _rank_counts(args, kwargs, result):
    rows = args[0]
    ncols = len(rows[0]) if rows else 0
    return {"rows": len(rows), "entries": len(rows) * ncols, "rank": result}


def _lex_counts(args, kwargs, result):
    h = args[0]
    D = args[2] if len(args) > 2 else kwargs.get("D")
    if D is None:
        D = h.cutoff
    ideal, complete = result
    return {"degrees_scanned": D + 1, "gens_out": len(ideal.gens),
            "complete": int(complete)}


# (module, function, counter of work from arguments and result)
TARGETS = [
    ("groebner", "buchberger",
     lambda a, kw, r: {"basis_out": len(r)}),
    ("groebner", "normal_form",
     lambda a, kw, r: {"zero": int(r[0].is_zero())}),
    ("groebner", "reduce_basis", None),
    ("monomials", "lex_segment_ideal", _lex_counts),
    ("monomials", "minimalize_monomials",
     lambda a, kw, r: {"monos_in": len(a[0])}),
    ("monomials", "is_strongly_stable",
     lambda a, kw, r: {"gens_checked": len(a[0].gens)}),
    ("monomials", "hilbert_function", None),
    ("resolution", "matrix_rank", _rank_counts),
    ("resolution", "monomial_quotient_betti", None),
    ("resolution", "betti_table", None),
    ("verify", "hf_direct", None),
    ("verify", "lex_ideal_of_presentation", None),
    ("verify", "verify_main", None),
    ("verify", "verify_regbound", None),
]


class Tracer:
    """Records a span per call of each target while installed."""

    def __init__(self):
        self.spans = []    # [name, start_ns, end_ns, parent index or -1]
        self.counts = {}   # "<module>.<function>.<counter>" -> total
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        # minimalize_monomials may get a generator; count it before use
        listify = name == "monomials.minimalize_monomials"

        def traced(*args, **kwargs):
            if listify:
                args = (list(args[0]),) + args[1:]
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            key = name + ".calls"
            counts[key] = counts.get(key, 0) + 1
            if counter is not None:
                for stat, k in counter(args, kwargs, result).items():
                    key = f"{name}.{stat}"
                    counts[key] = counts.get(key, 0) + k
            return result
        return traced

    def install(self):
        """Wrap every target in every regcert module that binds it."""
        modules = [mod for modname, mod in sorted(sys.modules.items())
                   if modname == "regcert" or modname.startswith("regcert.")]
        for modname, fname, counter in TARGETS:
            original = getattr(sys.modules[f"regcert.{modname}"], fname)
            traced = self._wrap(f"{modname}.{fname}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def self_times(self):
        """Seconds per span name: duration minus the time child spans
        cover."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] = out.get(name, 0) + (end - start - covered)
        return {name: ns / 1e9 for name, ns in out.items()}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


# Per-layer metrics: (name, unit).  "<target>.self_s" comes from span
# self times, "trace.overhead_s" from run.py, everything else from
# the counters.
PER_LAYER = [
    ("groebner.buchberger.calls", "count"),
    ("groebner.buchberger.self_s", "s"),
    ("groebner.buchberger.basis_out", "count"),
    ("groebner.normal_form.calls", "count"),
    ("groebner.normal_form.self_s", "s"),
    ("groebner.normal_form.zero_share", "share"),
    ("groebner.reduce_basis.self_s", "s"),
    ("monomials.lex_segment_ideal.calls", "count"),
    ("monomials.lex_segment_ideal.self_s", "s"),
    ("monomials.lex_segment_ideal.degrees_scanned", "count"),
    ("monomials.lex_segment_ideal.gens_out", "count"),
    ("monomials.lex_segment_ideal.complete_share", "share"),
    ("monomials.minimalize_monomials.calls", "count"),
    ("monomials.minimalize_monomials.self_s", "s"),
    ("monomials.minimalize_monomials.monos_in", "count"),
    ("monomials.is_strongly_stable.calls", "count"),
    ("monomials.is_strongly_stable.self_s", "s"),
    ("monomials.is_strongly_stable.gens_checked", "count"),
    ("monomials.hilbert_function.self_s", "s"),
    ("resolution.matrix_rank.calls", "count"),
    ("resolution.matrix_rank.self_s", "s"),
    ("resolution.matrix_rank.entries", "count"),
    ("resolution.matrix_rank.rank_over_rows", "share"),
    ("resolution.monomial_quotient_betti.calls", "count"),
    ("resolution.monomial_quotient_betti.self_s", "s"),
    ("resolution.betti_table.self_s", "s"),
    ("verify.hf_direct.calls", "count"),
    ("verify.hf_direct.self_s", "s"),
    ("verify.lex_ideal_of_presentation.calls", "count"),
    ("verify.verify_main.self_s", "s"),
    ("verify.verify_regbound.self_s", "s"),
    ("trace.overhead_s", "s"),
]

# share metrics: (numerator counter, denominator counter)
_SHARES = {
    "groebner.normal_form.zero_share":
        ("groebner.normal_form.zero", "groebner.normal_form.calls"),
    "monomials.lex_segment_ideal.complete_share":
        ("monomials.lex_segment_ideal.complete",
         "monomials.lex_segment_ideal.calls"),
    "resolution.matrix_rank.rank_over_rows":
        ("resolution.matrix_rank.rank", "resolution.matrix_rank.rows"),
}


def layer_value(name, counts, self_s):
    """Value of one per-layer metric (other than trace.overhead_s) from a
    repetition's counters and self times."""
    if name.endswith(".self_s"):
        return self_s.get(name[:-len(".self_s")], 0.0)
    if name in _SHARES:
        num, den = _SHARES[name]
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    return counts.get(name, 0)
