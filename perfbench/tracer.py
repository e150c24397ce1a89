"""Spans around realcheck's public functions, installed from outside.

``Tracer.install`` rebinds each entry point in ``ENTRY_POINTS`` wherever its
name is bound: in its own module, in every realcheck module that imported
it, and in the benchmark modules passed in.  ``uninstall`` puts the
originals back.  Nothing under ``src/`` is edited.

A span records (name, start, end, parent span, workload, item).  Only the
outermost call of a function opens a span: a call made while the same
function is already running passes straight through.  A self-recursive
function (its name appears in its own code) keeps the binding in its own
module, so its recursion stays a direct call.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

from canon import canon, digest

LAYERS = ("terms", "opca", "bco", "aks", "tripos", "k2",
          "lattices", "formats", "report", "cli")

# O(1) accessors (FiniteOpca.app/leq, Aks.in_pole) and recursive primitives
# (free_vars, bracket, subst, app, pair/unpair, the sequence coders) are not
# wrapped: a span would cost more than the call.
ENTRY_POINTS = {
    "terms": ("lam", "eval_in_opca", "reduce_term", "parse_term"),
    "opca": ("check_opca_axioms", "check_filter", "derive_sequence_kit",
             "skk_element", "turing_leq", "SequenceKit.seq_value",
             "SequenceKit.numeral_value", "SequenceKit.element"),
    "aks": ("check_aks", "build_aks", "closed_stack_sets", "aks_apply", "aks_imp",
            "cc_element", "order_ca", "check_order_ca", "check_kr", "tv_least_of_aks"),
    "bco": ("check_bco", "check_bco_morphism", "opca_to_bco", "product_bco",
            "downsets_of_poset", "downset_bco", "downset_monad", "downset_opca",
            "internal_meets", "find_top", "truth_values", "tv_least", "join_sup",
            "check_pseudo_d_algebra", "check_star", "preserves_finite_meets",
            "check_applicative_morphism", "check_density", "find_right_adjoint",
            "check_implicative", "sup_from_implication", "implication_from_sup"),
    "tripos": ("predicate_leq", "arrow_U", "boolean_leq", "streicher_leq",
               "localic_criterion"),
    "k2": ("k2_apply", "tau_extract", "is_discrete", "from_expr"),
    "lattices": ("enumerate_lattices", "semilattice_opca"),
    "formats": ("load_opca", "load_bco", "load_aks", "load_map", "save_aks"),
    "report": ("Report.render_machine", "Report.render_text"),
    "cli": ("main",),
}

# Per-function figures reported by name: (span name, "calls" | "s").
FUNCTION_METRICS = (
    ("terms.lam", "calls"), ("terms.eval_in_opca", "calls"), ("terms.eval_in_opca", "s"),
    ("opca.derive_sequence_kit", "s"), ("opca.SequenceKit.seq_value", "calls"),
    ("opca.SequenceKit.seq_value", "s"), ("opca.check_opca_axioms", "s"),
    ("aks.build_aks", "s"), ("aks.check_aks", "s"), ("aks.check_kr", "s"),
    ("aks.closed_stack_sets", "s"), ("aks.order_ca", "s"),
    ("bco.internal_meets", "calls"), ("bco.internal_meets", "s"),
    ("bco.check_bco_morphism", "calls"), ("bco.check_applicative_morphism", "s"),
    ("bco.check_density", "s"), ("bco.check_pseudo_d_algebra", "s"),
    ("bco.check_star", "s"), ("bco.downset_opca", "s"),
    ("tripos.boolean_leq", "calls"), ("tripos.boolean_leq", "s"),
    ("tripos.localic_criterion", "s"),
    ("k2.k2_apply", "calls"), ("k2.k2_apply", "s"), ("k2.tau_extract", "s"),
    ("lattices.enumerate_lattices", "s"), ("formats.load_opca", "s"),
    ("formats.load_aks", "s"), ("formats.save_aks", "s"),
    ("report.render_machine", "s"), ("cli.main", "s"),
)

# Every per-layer metric with its unit, in report order.
PER_LAYER = (
    [(f"{layer}.{what}", unit) for layer in LAYERS
     for what, unit in (("self_s", "s"), ("spans", "count"))]
    + [(f"{name}.{what}", "count" if what == "calls" else "s")
       for name, what in FUNCTION_METRICS]
    + [("opca.seq_value.distinct_ratio", "ratio"), ("aks.build_aks.stacks", "count"),
       ("aks.order_ca.carrier", "count"), ("bco.internal_meets.distinct_ratio", "ratio"),
       ("k2.alpha_queries", "count"), ("k2.query_bits_max", "bits"),
       ("cli.import_s", "s"), ("trace.overhead_frac", "ratio")]
)


def _opca_key(opca):
    return (opca.elements, opca.table, opca.k, opca.s)


def _bco_key(bco):
    return (bco.elements, bco.leq_pairs, bco.functions)


class Tracer:
    """Collects spans and counters for one process; see the module docstring."""

    def __init__(self, workload):
        self.workload = workload
        self.item = "setup"
        self.spans = []          # [name, start, end, parent index, item]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, s, self_s
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self._open = []          # [span index, time covered by children]
        self._struct = {}        # id -> (object, digest); the object pins the id
        self._undo = []

    # -- spans ----------------------------------------------------------

    def open_span(self, name, start):
        parent = self._open[-1][0] if self._open else -1
        self.spans.append([name, start, None, parent, self.item])
        self._open.append([len(self.spans) - 1, 0.0])

    def close_span(self, end):
        index, covered = self._open.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        if self._open:
            self._open[-1][1] += duration
        stat = self.stats[span[0]]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - covered

    def add_span(self, name, start, end):
        self.open_span(name, start)
        self.close_span(end)

    # -- counters -------------------------------------------------------

    def _structure(self, obj, key_fn):
        entry = self._struct.get(id(obj))
        if entry is None:
            entry = self._struct[id(obj)] = (obj, digest(key_fn(obj)))
        return entry[1]

    def _seen_sequence(self, args):
        kit, elements = args[0], args[1]
        self.distinct["opca.seq_value"].add(
            f"{self._structure(kit.opca, _opca_key)}:{canon(list(elements))!r}")

    def _seen_bco(self, args):
        self.distinct["bco.internal_meets"].add(self._structure(args[0], _bco_key))

    def _built(self, result):
        self.counts["aks.build_aks.stacks"] += len(result.aks.stacks)

    def _order_ca(self, result):
        self.counts["aks.order_ca.carrier"] += len(result.opca.elements)

    def count_queries(self, fn):
        """``fn`` counting its calls and the widest code it was asked about."""
        counts = self.counts

        def counted(x):
            counts["k2.alpha_queries"] += 1
            if x.bit_length() > counts["k2.query_bits_max"]:
                counts["k2.query_bits_max"] = x.bit_length()
            return fn(x)

        return counted

    # -- installing -----------------------------------------------------

    def _wrapper(self, name, fn):
        tracer = self
        on_call = {"opca.SequenceKit.seq_value": self._seen_sequence,
                   "bco.internal_meets": self._seen_bco}.get(name)
        on_result = {"aks.build_aks": self._built,
                     "aks.order_ca": self._order_ca}.get(name)
        running = [False]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if running[0]:
                return fn(*args, **kwargs)
            if on_call:
                on_call(args)
            running[0] = True
            tracer.open_span(name, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close_span(perf_counter())
                running[0] = False
            if on_result:
                on_result(result)
            return result

        return traced

    def install(self, extra_modules=()):
        # Load every module that binds an entry point first: a module imported
        # later would keep the wrappers after uninstall.
        import realcheck.cli  # noqa: F401
        import realcheck.lattices  # noqa: F401

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "realcheck" or n.startswith("realcheck."))]
        modules += list(extra_modules)
        for layer, names in ENTRY_POINTS.items():
            module = sys.modules[f"realcheck.{layer}"]
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                span_name = f"{layer}.{qualname}"
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    self._rebind(owner, attr, self._wrapper(span_name, original))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrapper(span_name, original)
                recursive = attr in original.__code__.co_names
                for mod in modules:
                    if recursive and mod is module:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapped)

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------

    def dump(self):
        """Everything another process needs to merge this one's results."""
        return {"spans": self.spans, "stats": dict(self.stats),
                "counts": dict(self.counts),
                "distinct": {k: sorted(v) for k, v in self.distinct.items()}}

    def merge(self, data, item):
        base = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, item])
        for name, (calls, total, own) in data["stats"].items():
            stat = self.stats[name]
            stat[0] += calls
            stat[1] += total
            stat[2] += own
        for name, value in data["counts"].items():
            if name == "k2.query_bits_max":
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value
        for name, keys in data["distinct"].items():
            self.distinct[name].update(keys)

    def write_spans(self, path):
        """One JSON header line, then one [name, start, end, parent, item]
        array per span; parent is the index of the enclosing span or -1."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": self.workload,
                                 "fields": ["name", "start", "end", "parent", "item"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self, plain_s, traced_s):
        """Every per-layer metric; ``plain_s``/``traced_s`` time the same pass."""
        values = {}
        for layer in LAYERS:
            mine = [s for name, s in self.stats.items() if name.split(".")[0] == layer]
            values[f"{layer}.self_s"] = sum(s[2] for s in mine)
            values[f"{layer}.spans"] = sum(s[0] for s in mine)
        for name, what in FUNCTION_METRICS:
            stat = self.stats.get(name, (0, 0.0, 0.0))
            values[f"{name}.{what}"] = stat[0] if what == "calls" else stat[1]
        for name, calls in (("opca.seq_value", "opca.SequenceKit.seq_value"),
                            ("bco.internal_meets", "bco.internal_meets")):
            n = self.stats.get(calls, (0,))[0]
            values[f"{name}.distinct_ratio"] = len(self.distinct[name]) / n if n else 0.0
        for name in ("aks.build_aks.stacks", "aks.order_ca.carrier",
                     "k2.alpha_queries", "k2.query_bits_max"):
            values[name] = self.counts.get(name, 0)
        values["cli.import_s"] = self.stats.get("cli.import", (0, 0.0))[1]
        values["trace.overhead_frac"] = traced_s / plain_s - 1.0
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
