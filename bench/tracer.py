"""Outside-in tracer for charprod.

The tracer changes nothing under ``src/``.  It replaces functions and class
attributes of the loaded ``charprod`` modules with wrappers, at every binding
a caller looks them up through (a function imported by name into another
module is patched there too), and puts every original back on ``uninstall``.

A *span* wrapper records calls, total time and self time under a span name
whose prefix before the first dot is the layer (``chartab.split`` belongs to
``chartab``).  Self time is the span's duration minus the time of the spans
nested inside it, so the self times of all spans add up to the time covered
by the outermost spans.  A *counter* wrapper only counts calls; it is used on
functions called millions of times (``Group.mul``, ``Cyclotomic.__init__``),
whose time stays with the caller.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

LAYERS = ("perm", "modular", "chartab", "charops", "structure", "verify")
MODULES = ("perm", "cyclotomic", "modular", "chartab", "charops", "structure", "verify", "catalog", "cli")

# (defining module, function, span name).  Every binding of the function in
# any charprod module, and in verify._CHECKERS, gets the same wrapper.
FUNCTION_SPANS = (
    ("perm", "group_closure", "perm.closure"),
    ("chartab", "dixon_table", "chartab.table"),
    ("modular", "solve_columns_mod", "modular.solve"),
    ("modular", "nullspace_mod", "modular.nullspace"),
    ("modular", "charpoly_mod", "modular.charpoly"),
    ("modular", "poly_roots_mod", "modular.roots"),
    ("chartab", "class_constants", "chartab.class_constants"),
    ("chartab", "_split_eigenspaces", "chartab.split"),
    ("chartab", "_lift_degree", "chartab.lift"),
    ("chartab", "_lift_values", "chartab.lift"),
    ("chartab", "_orthogonality_defect", "chartab.orthogonality"),
    ("charops", "induce", "charops.induce"),
    ("charops", "inner_product", "charops.inner_product"),
    ("charops", "stabilizer_and_orbit", "charops.stabilizer"),
    ("charops", "restrict", "charops.restrict"),
    ("charops", "decompose", "charops.decompose"),
    ("charops", "center_of", "charops.center"),
    ("charops", "kernel_of", "charops.kernel"),
    ("charops", "clifford_correspondent", "charops.clifford"),
    ("structure", "normal_lattice", "structure.lattice"),
    ("structure", "quotient", "structure.quotient"),
    ("structure", "chief_factor_above", "structure.chief"),
    ("verify", "run_suite", "verify.suite"),
    ("verify", "_run_group", "verify.suite"),
    ("verify", "check_theorem_A", "verify.check_A"),
    ("verify", "check_theorem_B", "verify.check_B"),
    ("verify", "check_theorem_C", "verify.check_C"),
    ("verify", "check_lemma_counting", "verify.check_lemma"),
    ("verify", "check_eta_bound", "verify.check_bound"),
    ("verify", "monomial_witness_search", "verify.descent"),
    ("verify", "_descend", "verify.descent"),
    ("verify", "_verify_witness", "verify.witness_check"),
    ("catalog", "parse_group", "catalog.parse"),
    ("catalog", "load_manifest", "catalog.parse"),
)

# (module, class, method, span name) for plain methods.
METHOD_SPANS = (
    ("perm", "Subgroup", "__init__", "perm.subgroup"),
    ("perm", "Group", "_closure_indices", "perm.subgroup_closure"),
    ("chartab", "CharacterTable", "to_json", "chartab.render"),
    ("verify", "GroupSession", "__init__", "verify.session"),
)

# (module, class, method, counter name): counted, not timed.
METHOD_COUNTERS = (
    ("perm", "Group", "mul", "perm.mul_calls"),
    ("cyclotomic", "Cyclotomic", "__init__", "cyclotomic.values"),
)

SESSION_PROPERTY_SPANS = {"products": "verify.products", "normal_data": "verify.normal_data"}


class Tracer:
    """Span and counter accumulator plus the patches that feed it.

    ``clock`` is the time source; tests pass a fake one.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}  # span name -> [calls, total_s, self_s]
        self.counts = Counter()
        self._stack = []  # child time accumulated per open span
        self._undo = []

    # -- accumulation ---------------------------------------------------------

    def take(self):
        """Return (spans, counts) gathered since the last take, and reset."""
        out = (self.spans, self.counts)
        self.spans, self.counts = {}, Counter()
        return out

    def span(self, name, fn):
        """Wrap ``fn`` so each call is recorded under the span ``name``."""
        clock, stack = self.clock, self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                rec = self.spans.get(name)
                if rec is None:
                    rec = self.spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` so each call increments the counter ``name``."""

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr, new):
        old = vars(owner)[attr]
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _set_item(self, mapping, key, new):
        old = mapping[key]
        mapping[key] = new
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def _rebind(self, modules, checkers, fn, new):
        """Point every module-level binding of ``fn``, and its entry in the
        statement dispatch table, at ``new``."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, new)
        for key, value in list(checkers.items()):
            if value is fn:
                self._set_item(checkers, key, new)

    def install(self, package):
        """Patch the loaded ``package`` (the charprod package object)."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        mods = {name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES}
        modules = [package] + list(mods.values())
        checkers = mods["verify"]._CHECKERS
        try:
            for mod_name, func_name, span_name in FUNCTION_SPANS:
                fn = vars(mods[mod_name])[func_name]
                self._rebind(modules, checkers, fn, self.span(span_name, self._probe(func_name, fn)))
            for mod_name, cls_name, attr, span_name in METHOD_SPANS:
                cls = getattr(mods[mod_name], cls_name)
                self._set(cls, attr, self.span(span_name, vars(cls)[attr]))
            for mod_name, cls_name, attr, count_name in METHOD_COUNTERS:
                cls = getattr(mods[mod_name], cls_name)
                self._set(cls, attr, self.counter(count_name, vars(cls)[attr]))

            build = vars(mods["charops"].InducedContext)["build"]
            self._set(mods["charops"].InducedContext, "build",
                      classmethod(self.span("charops.context", self._context_probe(build.__func__, mods["perm"].Subgroup))))

            session = mods["verify"].GroupSession
            for attr, prop in list(vars(session).items()):
                if isinstance(prop, property):
                    name = SESSION_PROPERTY_SPANS.get(attr, "verify.session_data")
                    self._set(session, attr, property(self.span(name, prop.fget), prop.fset, prop.fdel, prop.__doc__))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # ``with Tracer().install(charprod) as tracer:`` uninstalls on exit.
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- memo probes ----------------------------------------------------------

    def _probe(self, func_name, fn):
        if func_name == "dixon_table":
            return self._table_probe(fn)
        if func_name == "_verify_witness":
            return self._witness_probe(fn)
        return fn

    def _table_probe(self, fn):
        """Counts calls and memo hits: a hit finds ``_character_table`` set."""

        def dixon_table(group, use_cache=True):
            self.counts["chartab.table_calls"] += 1
            if use_cache and getattr(group, "_character_table", None) is not None:
                self.counts["chartab.table_hits"] += 1
            return fn(group, use_cache)

        return dixon_table

    def _witness_probe(self, fn):
        """Counts witness checks and the dead ones (result None)."""

        def verify_witness(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["verify.witness_checks"] += 1
            if result is None:
                self.counts["verify.dead_branches"] += 1
            return result

        return verify_witness

    def _context_probe(self, fn, subgroup_type):
        """Counts contexts asked for and memo hits: the element set is
        already a key of the parent's ``_promotions``."""

        def build(cls, parent, subgroup, subgroup_group=None):
            if not isinstance(subgroup, subgroup_type):
                subgroup = list(subgroup)
                key = frozenset(subgroup)
            else:
                key = subgroup.element_set
            self.counts["charops.context_calls"] += 1
            if key in parent._promotions:
                self.counts["charops.context_hits"] += 1
            return fn(cls, parent, subgroup, subgroup_group)

        return build


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts, setup_spans, passes, setup_passes):
    """Per-layer metrics, each the mean over ``passes`` traced passes.

    ``spans``/``counts`` are summed over the timed passes, ``setup_spans``
    over the ``setup_passes`` traced set-ups (the catalog layer only runs
    there).
    """

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2] / passes

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0] / passes

    def count(name):
        return counts.get(name, 0) / passes

    def layer_self(layer):
        return sum(rec[2] for name, rec in spans.items() if name.split(".", 1)[0] == layer) / passes

    table_calls = count("chartab.table_calls")
    table_hits = count("chartab.table_hits")
    context_calls = count("charops.context_calls")
    context_hits = count("charops.context_hits")
    checks = count("verify.witness_checks")
    dead = count("verify.dead_branches")
    m = {
        "perm.closure_s": self_s("perm.closure"),
        "perm.closure_calls": calls("perm.closure"),
        "perm.mul_calls": count("perm.mul_calls"),
        "perm.subgroups": calls("perm.subgroup"),
        "perm.subgroup_s": self_s("perm.subgroup"),
        "perm.subgroup_closure_s": self_s("perm.subgroup_closure"),
        "cyclotomic.values": count("cyclotomic.values"),
    }
    for op in ("solve", "nullspace", "charpoly", "roots"):
        m[f"modular.{op}_s"] = self_s(f"modular.{op}")
        m[f"modular.{op}_calls"] = calls(f"modular.{op}")
    m.update({
        "chartab.table_calls": table_calls,
        "chartab.table_builds": table_calls - table_hits,
        "chartab.table_reuse": _ratio(table_hits, table_calls),
        "chartab.class_constants_s": self_s("chartab.class_constants"),
        "chartab.split_s": self_s("chartab.split"),
        "chartab.lift_s": self_s("chartab.lift"),
        "chartab.orthogonality_s": self_s("chartab.orthogonality"),
        "chartab.render_s": self_s("chartab.render"),
        "charops.context_calls": context_calls,
        "charops.context_builds": context_calls - context_hits,
        "charops.context_reuse": _ratio(context_hits, context_calls),
        "charops.context_s": self_s("charops.context"),
        "charops.induce_s": self_s("charops.induce"),
        "charops.induce_calls": calls("charops.induce"),
        "charops.inner_product_s": self_s("charops.inner_product"),
        "charops.inner_product_calls": calls("charops.inner_product"),
        "charops.stabilizer_s": self_s("charops.stabilizer"),
        "structure.lattice_s": self_s("structure.lattice"),
        "structure.lattice_calls": calls("structure.lattice"),
        "structure.quotient_s": self_s("structure.quotient"),
        "structure.quotient_calls": calls("structure.quotient"),
        "verify.session_s": self_s("verify.session"),
        "verify.products_s": self_s("verify.products"),
        "verify.normal_data_s": self_s("verify.normal_data"),
    })
    for statement in ("A", "B", "C", "lemma", "bound"):
        m[f"verify.check_{statement}_s"] = self_s(f"verify.check_{statement}")
    m.update({
        "verify.descent_s": self_s("verify.descent"),
        "verify.witness_check_s": self_s("verify.witness_check"),
        "verify.witness_checks": checks,
        "verify.dead_branches": dead,
        "verify.branch_yield": _ratio(checks - dead, checks),
        "catalog.parse_s": setup_spans.get("catalog.parse", (0, 0.0, 0.0))[2] / setup_passes,
        "catalog.parse_calls": setup_spans.get("catalog.parse", (0, 0.0, 0.0))[0] / setup_passes,
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    return m
