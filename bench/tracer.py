"""Spans around colline's public functions, installed from outside.

Each target function is replaced by a wrapper in every ``colline.*`` module
namespace that holds it (``from .x import y`` copies the binding) and, for
methods, on the class. A wrapper records a span: name, start, end, parent and
the current item id. The hottest leaf spans (vector arithmetic, map
evaluation, the sampler) are aggregated per (name, parent) only, so memory
stays bounded; the coarser spans are also kept one by one. Self time is a
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

# span name -> (module, "Class.method" or "function", ...); every entry is a
# public function or method of colline
SPANS = {
    "field.vector_arith": ("field", "Vector.__add__", "Vector.__sub__", "Vector.__neg__",
                           "Vector.__mul__", "Vector.__rmul__"),
    "field.vector_init": ("field", "Vector.__init__"),
    "field.rank": ("field", "affine_rank", "linearly_independent", "matrix_rank"),
    "field.collinearity": ("field", "collinearity_scalar"),
    "field.text": ("field", "parse_vector", "format_vector", "parse_scalar", "format_scalar"),
    "geometry.line": ("geometry", "Line.__init__", "Line.point_at", "Line.contains",
                      "line_through"),
    "geometry.ratio": ("geometry", "divides_in_ratio", "in_interval"),
    "geometry.incidence": ("geometry", "lines_parallel", "line_intersection",
                           "crossing_line", "containing_plane"),
    "dsl.parse": ("dsl", "parse_map_file", "parse_map"),
    "dsl.eval": ("dsl", "eval_map"),
    "dsl.symbolic": ("dsl", "symbolic_affine_form"),
    "dsl.render": ("dsl", "render_map"),
    "zoo.eval.linear": ("zoo", "LinearMap.__call__"),
    "zoo.eval.affine": ("zoo", "AffineMap.__call__"),
    "zoo.eval.dsl": ("zoo", "DslMap.__call__"),
    "zoo.eval.compose": ("zoo", "ComposeMap.__call__"),
    "zoo.eval.lemma23": ("zoo", "Lemma23Map.__call__"),
    "zoo.from_source": ("zoo", "from_source"),
    "predicates.check.homogeneity": ("predicates", "check_homogeneity"),
    "predicates.check.additivity": ("predicates", "check_additivity"),
    "predicates.check.zero_fixed": ("predicates", "check_zero_fixed"),
    "predicates.check.line_image": ("predicates", "check_line_image"),
    "predicates.check.line_injectivity": ("predicates", "check_line_injectivity"),
    "predicates.check.ratio_preservation": ("predicates", "check_ratio_preservation"),
    "predicates.check.betweenness": ("predicates", "check_betweenness"),
    "predicates.check.parallelism_preservation": ("predicates",
                                                  "check_parallelism_preservation"),
    "predicates.check.scalar_multiplicative": ("predicates", "check_scalar_multiplicative"),
    "predicates.check.scalar_monotone": ("predicates", "check_scalar_monotone"),
    "predicates.sampler": ("predicates", "_Sampler.scalar", "_Sampler.nonzero_scalar",
                           "_Sampler.vector", "_Sampler.nonzero_vector", "_Sampler.line",
                           "_Sampler.params", "_Sampler.unit_interval"),
    "predicates.shrink": ("predicates", "_shrink"),
    "predicates.independence": ("predicates", "find_independence_witness"),
    "predicates.revalidate": ("predicates", "revalidate_witness"),
    "engine.classify": ("engine", "classify_map"),
    "engine.phi": ("engine", "phi_consistency", "extract_phi"),
    "engine.certificate_build": ("engine", "additivity_certificate",
                                 "homogeneity_certificate"),
    "engine.certificate_validate": ("engine", "Certificate.validate"),
    "engine.affine": ("engine", "find_affine_witnesses", "check_affine_reconstruction",
                      "affine_reduce", "shift_reduce"),
    "serialize.encode": ("serialize", "to_jsonable"),
    "serialize.decode": ("serialize", "from_jsonable"),
    "cli.run": ("cli", "run"),
}
# the hand-written codecs of the report types count as serialization too
CODECS = (("predicates", "Witness"), ("predicates", "CheckOutcome"),
          ("engine", "Certificate"), ("engine", "Classification"), ("engine", "PhiTable"))

HOT = ("field.", "geometry.", "zoo.eval.", "dsl.eval", "predicates.sampler",
       "serialize.", "engine.phi")
MODULES = ("field", "geometry", "dsl", "zoo", "predicates", "engine", "serialize", "cli")


class Tracer:
    """Span bookkeeping for one traced run; ``on`` pauses recording."""

    def __init__(self):
        self.on = False
        self.item = None
        self.stack = []  # frames: [name, child_ns, record index or -1]
        self.agg = {}  # (name, parent name) -> [calls, self_ns, incl_ns, entries]
        self.records = []  # [name, start_ns, end_ns, parent record, item]
        self.probes = 0
        self.skipped = 0
        self.parse_bytes = 0
        self.evals = 0
        self.distinct = set()
        self.distinct_count = 0
        self._patched = []

    # -- installation ------------------------------------------------------

    def install(self, lib) -> None:
        for name, (module, *targets) in SPANS.items():
            for target in targets:
                self._patch(getattr(lib, module), target, name)
        for module, cls_name in CODECS:
            cls = getattr(getattr(lib, module), cls_name)
            if "to_json" in vars(cls):
                self._patch(getattr(lib, module), f"{cls_name}.to_json", "serialize.encode")
            if "from_json" in vars(cls):
                self._patch(getattr(lib, module), f"{cls_name}.from_json", "serialize.decode")

    def _patch(self, module, target, name) -> None:
        if "." in target:
            cls_name, attr = target.split(".")
            cls = getattr(module, cls_name)
            original = vars(cls)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            self._set(cls, attr, wrapped)
            return
        original = getattr(module, target)
        wrapped = self._wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "colline" or mod_name.startswith("colline.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self.stack
        agg = self.agg
        records = self.records
        hot = name.startswith(HOT)
        check = name.startswith("predicates.check.")
        parse = name == "dsl.parse"
        evaluation = name.startswith("zoo.eval.")
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            rec = -1
            if not hot:
                rec = len(records)
                records.append([name, 0, 0, _nearest_record(stack), tracer.item])
            if parse:
                tracer.parse_bytes += len(args[0].encode("utf-8"))
            if evaluation:
                tracer.evals += 1
                tracer.distinct.add((id(args[0]), hash(args[1])))
            frame = [name, 0, rec]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                pname = parent[0] if parent else None
                if parent is not None:
                    parent[1] += dur
                key = (name, pname)
                entry = agg.get(key)
                if entry is None:
                    entry = agg[key] = [0, 0, 0, 0]
                entry[0] += 1
                entry[1] += dur - frame[1]
                if pname != name:
                    entry[2] += dur
                    entry[3] += 1
                if rec >= 0:
                    records[rec][1] = start
                    records[rec][2] = end
            if check:
                tracer.probes += result.probes
                tracer.skipped += result.skipped
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def begin_item(self, item_id) -> None:
        self.item = item_id
        self.distinct.clear()

    def end_item(self) -> None:
        self.distinct_count += len(self.distinct)
        self.distinct.clear()
        self.item = None

    # -- summaries -----------------------------------------------------------

    def per_span(self) -> dict:
        """name -> calls (entries from another span name), self_ms, incl_ms."""
        out = {name: {"calls": 0, "self_ms": 0.0, "incl_ms": 0.0} for name in SPANS}
        for (name, _), (calls, self_ns, incl_ns, entries) in self.agg.items():
            row = out[name]
            row["calls"] += entries
            row["self_ms"] += self_ns / 1e6
            row["incl_ms"] += incl_ns / 1e6
        for row in out.values():
            row["us_per_call"] = row["incl_ms"] * 1000 / row["calls"] if row["calls"] else 0.0
        return out

    def module_shares(self) -> dict:
        spans = self.per_span()
        total = sum(row["self_ms"] for row in spans.values())
        shares = {}
        for module in MODULES:
            ms = sum(row["self_ms"] for n, row in spans.items() if n.split(".")[0] == module)
            calls = sum(row["calls"] for n, row in spans.items() if n.split(".")[0] == module)
            shares[module] = {"self_share": ms / total if total else 0.0, "calls": calls}
        return shares

    def dump(self) -> dict:
        return {
            "spans": self.per_span(),
            "by_parent": [
                {"name": n, "parent": p, "calls": c, "self_ms": s / 1e6,
                 "incl_ms": i / 1e6}
                for (n, p), (c, s, i, _) in sorted(self.agg.items(), key=lambda kv: -kv[1][1])
            ],
            "module_shares": self.module_shares(),
            "records": self.records,
        }


def _nearest_record(stack) -> int:
    for frame in reversed(stack):
        if frame[2] >= 0:
            return frame[2]
    return -1
