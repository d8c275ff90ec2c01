"""Per-layer spans for `cartaneq`, recorded from outside the package.

`Tracer.install()` replaces each function in `TRACED` with a wrapper in every
namespace that binds it: the defining module, every other `cartaneq` module
that imported it by name (`cli` binds the engine stages, `jets` binds
`row_reduce`, `symbolic_rank` and `mat_inverse`), and the class for methods.
Recursive calls are caught too, because `exprs` calls `_pgcd` through its
module globals.  `uninstall()` puts the originals back.

Every call becomes one span (id, name, parent id, request, start, end),
appended when the call ends, kept in memory and written out by `write()`.
A request timeout can cut a call short before its span is appended; its
children then name a parent that is not in the list.  Aggregates are kept per name:

* `calls` counts every call, recursive ones included;
* `total_s` adds a call's duration only when no call of the same name
  encloses it, so recursion is not counted twice;
* `self_s` is a call's duration minus the part its child spans cover, taken
  from a span stack.

`discard_request()` takes a timed-out request back out of the aggregates,
because how far it got depends on the machine's speed; its spans stay.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import sys
from time import perf_counter

# (layer, metric name, attribute path in the layer's module)
TRACED = [
    ("exprs", "make", "Expr._make"),
    ("exprs", "gcd", "_pgcd"),
    ("exprs", "probe", "_gcd_probe_trivial"),
    ("exprs", "subs", "Expr.subs"),
    ("exprs", "diff", "Expr.diff"),
    ("linalg", "mat_inverse", "mat_inverse"),
    ("linalg", "mat_det", "mat_det"),
    ("linalg", "mat_mul", "mat_mul"),
    ("linalg", "symbolic_rank", "symbolic_rank"),
    ("linalg", "row_reduce", "row_reduce"),
    ("forms", "structure_functions", "structure_functions"),
    ("forms", "rewrite_in_coframe", "rewrite_in_coframe"),
    ("forms", "exterior_derivative", "exterior_derivative"),
    ("groups", "right_mc", "right_mc"),
    ("groups", "check_closure", "check_closure"),
    ("groups", "membership_equations", "membership_equations"),
    ("groups", "solve_linear_in", "solve_linear_in"),
    ("characters", "reduced_characters", "reduced_characters"),
    ("engine", "compute_structure_data", "compute_structure_data"),
    ("engine", "build_absorption", "build_absorption"),
    ("engine", "solve_absorption", "solve_absorption"),
    ("engine", "classify_torsion", "classify_torsion"),
    ("engine", "cartan_characters", "cartan_characters"),
    ("engine", "reduce_group", "reduce_group"),
    ("engine", "prolong", "prolong"),
    ("engine", "run_loop", "run_loop"),
    ("jets", "encode_gstructure", "encode_gstructure"),
    ("jets", "prolong_system", "prolong_system"),
    ("jets", "total_derivative", "total_derivative"),
    ("jets", "project_integrability", "project_integrability"),
    ("jets", "complete_to_order", "complete_to_order"),
    ("jets", "jet_characters", "jet_characters"),
    ("jets", "crosscheck_characters", "crosscheck_characters"),
    ("problems", "load_problem", "load_problem"),
    ("problems", "validate_problem", "validate_problem"),
    ("parsing", "parse_expr", "parse_expr"),
    ("report", "result_to_json", "result_to_json"),
]

LAYERS = list(dict.fromkeys(layer for layer, _, _ in TRACED))
NAMES = [f"{layer}.{name}" for layer, name, _ in TRACED]

# Per-layer metric names and units, in report order.
METRICS = (
    [(f"{n}.{field}", unit) for n in NAMES for field, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))]
    # a layer with one traced function has that function's self_s as its own
    + [(f"{layer}.self_s", "s") for layer in LAYERS if sum(t[0] == layer for t in TRACED) > 1]
    + [
        ("exprs.gcd.nontrivial_ratio", "ratio"),
        ("exprs.probe.hit_ratio", "ratio"),
        ("exprs.max_terms", "count"),
    ]
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (span id, name index, parent id or -1, request, start, end)
        self.request = -1
        self._ids = itertools.count()
        self._stack: list = []  # [time covered by child spans, span index] per open span
        self._patches: list = []
        k = len(TRACED)
        self.calls, self.total, self.self_time, self._depth = [0] * k, [0.0] * k, [0.0] * k, [0] * k
        self.reset()

    def _state(self):
        return (self.calls[:], self.total[:], self.self_time[:],
                self.gcd_top, self.gcd_top_nontrivial, self.probes, self.probe_hits, self.max_terms)

    def _restore(self, state):
        # in place: the wrappers hold the lists
        (self.calls[:], self.total[:], self.self_time[:],
         self.gcd_top, self.gcd_top_nontrivial, self.probes, self.probe_hits, self.max_terms) = state

    def reset(self):
        """Zero the aggregates; recorded spans are kept."""
        k = len(TRACED)
        self._restore(([0] * k, [0.0] * k, [0.0] * k, 0, 0, 0, 0, 0))

    def begin_request(self, index: int):
        """Tag the following spans with request `index`.  A timeout raised
        inside a wrapper's bookkeeping can leave spans open, so start clean."""
        self.request = index
        self._stack.clear()
        self._depth[:] = [0] * len(TRACED)
        self._saved = self._state()

    def discard_request(self):
        """Take the current request out of the aggregates; its spans stay."""
        self._restore(self._saved)

    # result hooks: counts taken where the work happens
    def _on_gcd(self, poly, top):
        if top:
            self.gcd_top += 1
            self.gcd_top_nontrivial += any(poly)  # a constant has only the empty monomial

    def _on_probe(self, trivial, top):
        self.probes += 1
        self.probe_hits += bool(trivial)

    def _on_make(self, expr, top):
        self.max_terms = max(self.max_terms, len(expr._num) + len(expr._den))

    def _wrap(self, fn, nid, hook):
        stack, spans, ids = self._stack, self.spans, self._ids
        calls, total, self_time, depth = self.calls, self.total, self.self_time, self._depth

        def traced(*args, **kwargs):
            sid = next(ids)
            frame = [0.0, sid]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            depth[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                depth[nid] -= 1
                if not depth[nid]:
                    total[nid] += d
                self_time[nid] += d - frame[0]
                calls[nid] += 1
                if stack:
                    stack[-1][0] += d
                spans.append((sid, nid, parent, self.request, t0, t1))
            if hook is not None:
                hook(result, not depth[nid])
            return result

        return traced

    def install(self):
        hooks = {"exprs.gcd": self._on_gcd, "exprs.probe": self._on_probe, "exprs.make": self._on_make}
        modules = [m for name, m in list(sys.modules.items()) if name == "cartaneq" or name.startswith("cartaneq.")]
        for nid, (layer, name, path) in enumerate(TRACED):
            module = importlib.import_module(f"cartaneq.{layer}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapper = self._wrap(fn, nid, hooks.get(NAMES[nid]))
                setattr(cls, attr, staticmethod(wrapper) if is_static else wrapper)
                self._patches.append((cls, attr, raw))
                continue
            fn = getattr(module, path)
            wrapper = self._wrap(fn, nid, hooks.get(NAMES[nid]))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics accumulated since the last reset()."""
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for nid, (layer, _, _) in enumerate(TRACED):
            name = NAMES[nid]
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.total_s"] = self.total[nid]
            out[f"{name}.self_s"] = self.self_time[nid]
            layer_self[layer] += self.self_time[nid]
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        out["exprs.gcd.nontrivial_ratio"] = self.gcd_top_nontrivial / self.gcd_top if self.gcd_top else 0.0
        out["exprs.probe.hit_ratio"] = self.probe_hits / self.probes if self.probes else 0.0
        out["exprs.max_terms"] = self.max_terms
        return out

    def write(self, path, requests: list[str]):
        """Write every recorded span, gzip-compressed JSON, times in microseconds."""
        t_base = min((span[4] for span in self.spans), default=0.0)
        doc = {
            "names": NAMES,
            "requests": requests,
            "fields": ["id", "name", "parent", "request", "start_us", "end_us"],
            "spans": [
                [sid, nid, parent, req, round((t0 - t_base) * 1e6, 1), round((t1 - t_base) * 1e6, 1)]
                for sid, nid, parent, req, t0, t1 in self.spans
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
