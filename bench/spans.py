"""Spans around the calls into ssetkit's layers, installed from outside.

`Tracer.install()` replaces each traced function at every place its name is
bound (the defining module, every module that imported it, the package
namespace and the benchmark's own modules), and each traced method on its
class.  A wrapper records nothing unless an operation is open, so the
benchmark's correctness checks, which run between operations, are not
counted.

A layer's self time is its span's duration less the time its child spans
cover.  Spans of one operation share the operation's index, and each span
names its parent.  They are kept in compact arrays and written out by
`write_spans` when the run ends.  `act` and `compose` run millions of
times in a soa run, so they get no span records of their own: their calls
and self time are counted, and their time lies inside the span of the
traced function that called them.
"""

import json
import sys
import time
from array import array

# (module, attribute); "Class.method" traces a method on its class.  The
# metric prefix is "<module>.<function>".
TRACED = (
    ("core", "enumerate_maps"), ("core", "FiniteSimplicialSet.act"),
    ("core", "compose"), ("core", "validate"), ("core", "map_errors"),
    ("colimits", "pushout"), ("colimits", "pushout_induced"),
    ("colimits", "coproduct"), ("colimits", "sequential_colimit"),
    ("lifting", "solve_lift"), ("lifting", "enumerate_squares"),
    ("lifting", "check_rlp"),
    ("cells", "PresentationBuilder.close_stage"), ("cells", "realize"),
    ("cells", "j_to_i_presentation"), ("cells", "factor_through_stage"),
    ("factorization", "factorize"),
    ("factorization", "verify_factorization"),
    ("homology", "homology_groups"), ("homology", "chain_complex"),
    ("homology", "smith_normal_form"), ("homology", "mapping_cone"),
    ("homology", "weak_equivalence_certificate"),
    ("formats", "parse_document"), ("formats", "parse_cellpres"),
    ("formats", "print_document"), ("formats", "print_cellpres"),
    ("cli", "main"),
)


FOLDED = ("core.act", "core.compose")


class Tracer:
    def __init__(self, binding_modules):
        # modules outside ssetkit that hold references to traced functions
        self.binding_modules = list(binding_modules)
        self.names = [f"{m}.{a.rsplit('.', 1)[-1]}" for m, a in TRACED]
        self._squares_nid = self.names.index("lifting.enumerate_squares")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters = {"lifting.solve_lift.refuted": 0,
                         "lifting.enumerate_squares.pairs_tested": 0,
                         "lifting.enumerate_squares.squares": 0,
                         "homology.smith_normal_form.entries": 0,
                         "core.enumerate_maps.cache_hits": 0,
                         "core.enumerate_maps.cache_entries": 0}
        self.op_s = 0.0
        self.uncovered_s = 0.0
        # open calls: [span index, child time, name index, hom-set sizes]
        self.stack = []
        self.active = False
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_kinds = []
        self._restore = []
        self._enumerate_maps = None
        self._hits = 0

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "ssetkit" or name.startswith("ssetkit."))
                   and m is not None] + self.binding_modules
        for nid, (mod_name, attr) in enumerate(TRACED):
            module = sys.modules[f"ssetkit.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._bind(cls, meth, self._wrap(nid, original))
                continue
            original = getattr(module, attr)
            if attr == "enumerate_maps":
                self._enumerate_maps = original
            wrapper = self._wrap(nid, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, wrapper)

    def _bind(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore = []

    def _wrap(self, nid, fn):
        name = self.names[nid]
        post = {"core.enumerate_maps": self._post_enumerate_maps,
                "lifting.enumerate_squares": self._post_enumerate_squares,
                "lifting.solve_lift": self._post_solve_lift,
                "homology.smith_normal_form": self._post_snf}.get(name)
        tracer = self
        clock = time.perf_counter
        stack = self.stack
        calls = self.calls
        self_s = self.self_s
        span_name, span_op = self.span_name, self.span_op
        span_parent = self.span_parent
        span_start, span_end = self.span_start, self.span_end

        if name in FOLDED:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                # children's spans name the nearest recorded ancestor
                frame = [stack[-1][0], 0.0, nid, None]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    stack.pop()
                    self_s[nid] += duration - frame[1]
                    calls[nid] += 1
                    stack[-1][1] += duration
        else:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                index = len(span_start)
                frame = [index, 0.0, nid, []]
                span_name.append(nid)
                span_op.append(len(tracer.op_kinds) - 1)
                span_parent.append(stack[-1][0])
                stack.append(frame)
                start = clock()
                span_start.append(start)
                span_end.append(0.0)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    span_end[index] = end
                    duration = end - start
                    self_s[nid] += duration - frame[1]
                    calls[nid] += 1
                    stack[-1][1] += duration
                if post is not None:
                    post(args, result, frame)
                return result

        wrapper.__wrapped__ = fn
        for attr in ("__name__", "__qualname__", "__doc__", "__module__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # -- per-call quantities ------------------------------------------------

    def _post_enumerate_maps(self, args, result, frame):
        # the two hom-sets enumerate_squares multiplies
        parent = self.stack[-1]
        if parent[2] == self._squares_nid:
            parent[3].append(len(result))

    def _post_enumerate_squares(self, args, result, frame):
        pairs = 1
        for size in frame[3]:
            pairs *= size
        self.counters["lifting.enumerate_squares.pairs_tested"] += pairs
        self.counters["lifting.enumerate_squares.squares"] += len(result)

    def _post_solve_lift(self, args, result, frame):
        self.counters["lifting.solve_lift.refuted"] += getattr(
            result, "refuted", 0)

    def _post_snf(self, args, result, frame):
        m = args[0]
        self.counters["homology.smith_normal_form.entries"] += (
            len(m) * (len(m[0]) if m else 0))

    # -- operations ---------------------------------------------------------

    def begin_op(self, kind):
        """Open the root span of one operation; returns its start time."""
        self.op_kinds.append(kind)
        self._hits = self._enumerate_maps.cache_info().hits
        index = len(self.span_start)
        self.span_name.append(-1)
        self.span_op.append(len(self.op_kinds) - 1)
        self.span_parent.append(-1)
        self.stack.append([index, 0.0, -1, None])
        self.active = True
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(0.0)
        return start

    def end_op(self):
        end = time.perf_counter()
        self.active = False
        index, covered, _, _ = self.stack.pop()
        if self.stack:
            raise RuntimeError("trace: a span was left open")
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self.op_s += duration
        self.uncovered_s += duration - covered
        info = self._enumerate_maps.cache_info()
        self.counters["core.enumerate_maps.cache_hits"] += (
            info.hits - self._hits)
        self.counters["core.enumerate_maps.cache_entries"] = max(
            self.counters["core.enumerate_maps.cache_entries"], info.currsize)
        return end

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Every per-layer quantity by metric name."""
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
        out.update(self.counters)
        pairs = self.counters["lifting.enumerate_squares.pairs_tested"]
        out["lifting.enumerate_squares.yield"] = (
            self.counters["lifting.enumerate_squares.squares"] / pairs
            if pairs else 0.0)
        out["trace.op_s"] = self.op_s
        out["trace.uncovered_s"] = self.uncovered_s
        return out

    def write_spans(self, path):
        """Spans as columns: layer name (or the operation kind for a root
        span), operation index, parent span index (-1 for roots), start and
        end in seconds."""
        names = self.names
        kinds = self.op_kinds
        data = {
            "columns": ["name", "op", "parent", "start", "end"],
            "spans": [[names[n] if n >= 0 else f"op.{kinds[o]}", o, p,
                       round(s, 9), round(e, 9)]
                      for n, o, p, s, e in zip(
                          self.span_name, self.span_op, self.span_parent,
                          self.span_start, self.span_end)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
