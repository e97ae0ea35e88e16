"""Outside-in tracer: wraps leafnorm's layer functions from the benchmark's side.

Every public module-level function of each layer module, the kernel methods
named in `METHODS` and the interpreter's per-command dispatch are replaced by
a wrapper that records a span (name, start, end, parent) in flat arrays.
Every binding of a wrapped function is replaced, in every leafnorm module
and class (for example `interp`'s own `decompose` import and
`RatFunc.__rmul__`), or calls made through it would be missed.

Self time is a span's duration minus the time its child spans cover;
`total_s` sums only the outermost spans of a name, so recursive calls are not
counted twice.  Counters that need the arguments (gcd operand sizes,
distinct derivative inputs, token counts) are kept beside the spans.
"""

import array
import functools
import gzip
import importlib
import inspect
import json
import re
import sys
import time

LAYERS = ("rational", "linalg", "multivector", "omega", "vorobjev", "models",
          "smith", "dsl", "interp", "cli")

# (module, class, method) -> span name
METHODS = {
    ("rational", "Poly", "__mul__"): "rational.poly_mul",
    ("rational", "RatFunc", "__mul__"): "rational.ratfunc_mul",
    ("rational", "RatFunc", "derivative"): "rational.derivative",
    ("linalg", "MatrixRF", "det"): "linalg.det",
    ("linalg", "MatrixRF", "solve"): "linalg.solve",
}

CMD_KINDS = ("check_jacobi", "check_dirac", "decompose", "structure_eqs",
             "jet", "moser", "chain_map", "monodromy", "ratio_constancy",
             "affine", "int_identity", "emit")


def _cmd_kind(cmd):
    name = type(cmd).__name__
    name = name[3:] if name.startswith("Cmd") else name
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def _terms_key(poly):
    return tuple(sorted(poly.terms.items()))


def _ratfunc_key(f):
    return (f.num.ctx.vars, _terms_key(f.num), _terms_key(f.den))


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._depth = []
        self._stack = []
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_outer = array.array("b")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._patches = []
        self.gcd_const_top = 0
        self.gcd_max_terms = 0
        self.gcd_max_degree = 0
        self.derivative_inputs = set()
        self.decompose_inputs = set()
        self.tokens = 0

    def _intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    # -- hooks that read arguments or results ------------------------------------

    def _gcd_args(self, args, outer):
        if not outer:
            return
        f, g = args[0], args[1]
        if f.is_const() or g.is_const():
            self.gcd_const_top += 1
        self.gcd_max_terms = max(self.gcd_max_terms, len(f.terms),
                                 len(g.terms))
        self.gcd_max_degree = max(self.gcd_max_degree, f.total_degree(),
                                  g.total_degree())

    def _derivative_args(self, args, outer):
        self.derivative_inputs.add((_ratfunc_key(args[0]), args[1]))

    def _decompose_args(self, args, outer):
        theta = args[0]
        self.decompose_inputs.add((theta.context.vars, tuple(sorted(
            (k, _ratfunc_key(c)[1:]) for k, c in theta.terms.items()))))

    def _tokenize_result(self, result):
        self.tokens += len(result)

    # -- wrapping -------------------------------------------------------------------

    def _wrapper(self, fn, name, pre=None, post=None, name_of=None):
        nid = None if name is None else self._intern(name)
        names, parents, outers = self.span_name, self.span_parent, \
            self.span_outer
        starts, ends = self.span_start, self.span_end
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = nid if name_of is None else name_of(args)
            outer = depth[n] == 0
            if pre is not None:
                pre(args, outer)
            idx = len(names)
            names.append(n)
            parents.append(stack[-1] if stack else -1)
            outers.append(outer)
            ends.append(0.0)
            depth[n] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                depth[n] -= 1
            if post is not None:
                post(result)
            return result
        return wrapper

    def install(self, package):
        """Wrap every layer of an imported leafnorm package."""
        mods = {short: importlib.import_module(package.__name__ + "." + short)
                for short in LAYERS}
        hooks = {
            "rational.poly_gcd": (self._gcd_args, None),
            "rational.derivative": (self._derivative_args, None),
            "vorobjev.decompose": (self._decompose_args, None),
            "dsl.tokenize": (None, self._tokenize_result),
        }
        wrapped = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    name = "%s.%s" % (short, attr)
                    pre, post = hooks.get(name, (None, None))
                    wrapped[fn] = self._wrapper(fn, name, pre, post)
        for (short, cls, meth), name in METHODS.items():
            fn = vars(getattr(mods[short], cls))[meth]
            pre, post = hooks.get(name, (None, None))
            wrapped[fn] = self._wrapper(fn, name, pre, post)
        run_command = vars(mods["interp"])["_run_command"]
        wrapped[run_command] = self._wrapper(
            run_command, None, name_of=lambda args: self._intern(
                "interp.cmd." + _cmd_kind(args[0])))
        # rebind every reference: module globals, re-exports, class aliases
        for modname, mod in list(sys.modules.items()):
            if modname != package.__name__ and \
                    not modname.startswith(package.__name__ + "."):
                continue
            for owner in [mod] + [v for v in vars(mod).values()
                                  if inspect.isclass(v) and
                                  v.__module__ == modname]:
                for attr, value in list(vars(owner).items()):
                    if inspect.isfunction(value) and value in wrapped:
                        self._patches.append((owner, attr, value))
                        setattr(owner, attr, wrapped[value])

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    # -- results ----------------------------------------------------------------------

    def summary(self):
        n = len(self.span_name)
        covered = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, \
            self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        agg = {name: {"calls": 0, "outer_calls": 0, "total_s": 0.0,
                      "self_s": 0.0} for name in self.names}
        for i in range(n):
            a = agg[self.names[self.span_name[i]]]
            dur = ends[i] - starts[i]
            a["calls"] += 1
            a["self_s"] += dur - covered[i]
            if self.span_outer[i]:
                a["outer_calls"] += 1
                a["total_s"] += dur
        return {
            "spans": n,
            "layers": agg,
            "report_s": agg["interp.execute"]["total_s"] +
            agg["interp.emit"]["total_s"],
            "counters": {
                "gcd_const_top": self.gcd_const_top,
                "gcd_max_terms": self.gcd_max_terms,
                "gcd_max_degree": self.gcd_max_degree,
                "derivative_distinct": len(self.derivative_inputs),
                "decompose_distinct": len(self.decompose_inputs),
                "tokens": self.tokens,
            },
        }

    def write(self, path, summary):
        """Summary as JSON at `path`; every span as TSV at `path`.spans.gz."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
        with gzip.open(path + ".spans.gz", "wt", encoding="utf-8",
                       compresslevel=1) as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            t0 = self.span_start[0] if self.span_start else 0.0
            names = self.names
            for i in range(len(self.span_name)):
                fh.write("%d\t%d\t%s\t%.7f\t%.7f\n" % (
                    i, self.span_parent[i], names[self.span_name[i]],
                    self.span_start[i] - t0, self.span_end[i] - t0))


def _metric(layers, name, field):
    a = layers.get(name)
    return 0 if a is None else a[field]


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "rational.poly_gcd.calls_top": "count",
    "rational.poly_gcd.calls_total": "count",
    "rational.poly_gcd.self_s": "s",
    "rational.poly_gcd.const_operand_share": "share",
    "rational.poly_gcd.max_terms": "count",
    "rational.poly_gcd.max_degree": "count",
    "rational.derivative.calls": "count",
    "rational.derivative.distinct_inputs": "count",
    "rational.derivative.distinct_share": "share",
    "rational.derivative.total_s": "s",
    "rational.ratfunc_normalize.calls": "count",
    "rational.ratfunc_normalize.self_s": "s",
    "rational.poly_exact_div.calls": "count",
    "rational.poly_exact_div.self_s": "s",
    "rational.poly_mul.calls": "count",
    "rational.poly_mul.self_s": "s",
    "rational.ratfunc_mul.calls": "count",
    "rational.ratfunc_mul.self_s": "s",
    "linalg.det.calls": "count",
    "linalg.det.self_s": "s",
    "linalg.solve.calls": "count",
    "linalg.solve.self_s": "s",
    "multivector.schouten.calls": "count",
    "multivector.schouten.self_s": "s",
    "multivector.is_poisson.total_s": "s",
    "omega.ltimes_bracket.calls": "count",
    "omega.ltimes_bracket.self_s": "s",
    "omega.dilation.self_s": "s",
    "omega.jet_n.total_s": "s",
    "vorobjev.decompose.calls": "count",
    "vorobjev.decompose.distinct_inputs": "count",
    "vorobjev.decompose.total_s": "s",
    "vorobjev.tau.calls": "count",
    "vorobjev.leaf_check.calls": "count",
    "vorobjev.first_jet_model.calls": "count",
    "vorobjev.moser_path.total_s": "s",
    "vorobjev.structure_equations.total_s": "s",
    "vorobjev.chain_map_residual.total_s": "s",
    "models.integer_affine_identity.total_s": "s",
    "models.monodromy.total_s": "s",
    "models.ratio_constancy.total_s": "s",
    "smith.integer_solve.calls": "count",
    "smith.integer_solve.self_s": "s",
    "dsl.parse.total_s": "s",
    "dsl.tokens": "count",
    "dsl.tokens_per_s": "1/s",
}
PER_LAYER.update(("interp.cmd.%s.total_s" % k, "s") for k in CMD_KINDS)
PER_LAYER.update({
    "interp.execute.self_s": "s",
    "interp.emit.total_s": "s",
    "trace.overhead_share": "share",
})

def per_layer_metrics(summary, untraced_report_s):
    """Every PER_LAYER metric from a trace summary, as {name: value}."""
    layers, counters = summary["layers"], summary["counters"]
    gcd_top = _metric(layers, "rational.poly_gcd", "outer_calls")
    deriv = _metric(layers, "rational.derivative", "calls")
    parse_s = _metric(layers, "dsl.parse", "total_s")
    special = {
        "rational.poly_gcd.calls_top": gcd_top,
        "rational.poly_gcd.calls_total":
            _metric(layers, "rational.poly_gcd", "calls"),
        "rational.poly_gcd.const_operand_share":
            counters["gcd_const_top"] / gcd_top if gcd_top else 0.0,
        "rational.poly_gcd.max_terms": counters["gcd_max_terms"],
        "rational.poly_gcd.max_degree": counters["gcd_max_degree"],
        "rational.derivative.distinct_inputs":
            counters["derivative_distinct"],
        "rational.derivative.distinct_share":
            counters["derivative_distinct"] / deriv if deriv else 0.0,
        "vorobjev.decompose.distinct_inputs": counters["decompose_distinct"],
        "dsl.tokens": counters["tokens"],
        "dsl.tokens_per_s": counters["tokens"] / parse_s if parse_s else 0.0,
        "trace.overhead_share": summary["report_s"] / untraced_report_s - 1,
    }
    out = {}
    for name in PER_LAYER:
        if name in special:
            out[name] = special[name]
        else:
            span, field = name.rsplit(".", 1)
            out[name] = _metric(layers, span, field)
    return out
