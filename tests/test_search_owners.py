"""Each witness search has one owner: a check that no module writes one out again.

``FiniteBco.track`` is the only search of a structure's function set,
``Aks`` itself the only reader of its pole rows, ``tripos.first_unstable``
the only place where the Booleanization scan builds its predicates (each
single downset, then the generic predicate),
``Program.values`` the only interpreter of terms, and ``terms._subterms``
the only walk over a whole term: no function in ``terms.py`` calls itself
but ``parse_term``'s descent, which ``_MAX_DEPTH`` bounds.  Each derived
value has one producer too: the truth values' top comes from ``find_top``
alone, the (k, s) search from ``opca.first_ks``, a given U of ``build_aks``
is checked by the opca constructor, and the kit terms are cached only as
``_kit_program``'s roots.  ``Poset.lower`` and ``Poset.upper`` own the
bounds of a subset: no module but ``poset.py`` writes one out as
``all(... .leq(...) for ...)``, and none lists every subset of a collection
but ``lattices._lattice_orders``, whose candidate orders are the subsets of
their free pairs.
"""

import ast
from pathlib import Path

import pytest

import realcheck

SOURCES = sorted(Path(realcheck.__file__).parent.glob("*.py"))


def scoped_nodes(tree):
    """(qualified name of the enclosing def or class, node) for every node."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield inner, child
            yield from walk(child, inner)
    return walk(tree, "")


def called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def function_set_searches(source):
    """Scopes of the ``tracker(...)`` calls that pass some ``x.functions``."""
    return [scope for scope, node in scoped_nodes(ast.parse(source))
            if isinstance(node, ast.Call) and called_name(node) == "tracker"
            and any(isinstance(arg, ast.Attribute) and arg.attr == "functions"
                    for arg in node.args)]


def row_reads(source):
    """Scopes that read an attribute ``rows``."""
    return [scope for scope, node in scoped_nodes(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "rows"]


def predicate_constructions(source):
    """Scopes that call ``Predicate(...)`` or ``module.Predicate(...)``."""
    return [scope for scope, node in scoped_nodes(ast.parse(source))
            if isinstance(node, ast.Call) and called_name(node) == "Predicate"]


def table_reads(source):
    """Scopes that read an attribute ``table`` or ``app`` (an application)."""
    return [scope for scope, node in scoped_nodes(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in ("table", "app")]


def self_calls(source):
    """Scopes that call, by name, the function they are in."""
    return [scope for scope, node in scoped_nodes(ast.parse(source))
            if isinstance(node, ast.Call) and called_name(node) == scope.rsplit(".", 1)[-1]]


def bound_scans(source):
    """Scopes of an ``all(...)`` over a generator of ``leq`` calls."""
    return [scope for scope, node in scoped_nodes(ast.parse(source))
            if isinstance(node, ast.Call) and called_name(node) == "all"
            and isinstance(gen := node.args[0], ast.GeneratorExp)
            and isinstance(gen.elt, ast.Call) and called_name(gen.elt) == "leq"]


def every_mask(node):
    """Whether ``node`` is ``range(1 << ...)``."""
    return (isinstance(node, ast.Call) and called_name(node) == "range"
            and isinstance(shift := node.args[0], ast.BinOp) and isinstance(shift.op, ast.LShift)
            and isinstance(shift.left, ast.Constant) and shift.left.value == 1)


def subset_enumerations(source):
    """Scopes that loop over ``range(1 << ...)`` or call ``combinations``."""
    return [scope for scope, node in scoped_nodes(ast.parse(source))
            if isinstance(node, (ast.For, ast.comprehension)) and every_mask(node.iter)
            or isinstance(node, ast.Call) and called_name(node) == "combinations"]


def calls(name):
    """(scope, called name) for every call in the module ``name``."""
    path = next(p for p in SOURCES if p.name == name)
    return [(scope, called_name(node)) for scope, node in
            scoped_nodes(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)]


def test_each_derived_value_has_one_producer():
    bco, aks, opca = calls("bco.py"), calls("aks.py"), calls("opca.py")
    assert [scope for scope, name in bco if name == "internal_meets"] == \
        ["preserves_finite_meets"] * 2
    assert [scope for scope, name in bco if name == "find_top"] == \
        ["internal_meets", "truth_values"]
    assert [scope for scope, name in aks if name == "opca_to_bco"] == []
    assert [name for scope, name in aks if scope.startswith("build_aks")
            and name in ("is_downward_closed", "downward_closure")] == []
    assert {scope for scope, name in aks + opca if name in ("k_law", "s_law")} == \
        {"first_ks", "check_opca_axioms"}
    assert {scope for scope, name in aks + opca if name == "first_ks"} == \
        {"check_opca_axioms", "order_ca"}
    path = next(p for p in SOURCES if p.name == "terms.py")
    kit_terms = next(node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.FunctionDef) and node.name == "_kit_terms")
    assert kit_terms.decorator_list == []


def test_the_checks_find_searches_written_out_again():
    inlined = '''
class FiniteBco:
    def track(self, pairs):
        return self.tracker(self.functions, self.apply, pairs)

def predicate_leq(phi, psi, bco):
    return bco.tracker(bco.functions, bco.apply, pairs)

def streicher_leq(phi, psi, aks):
    return next((t for t, row in zip(aks.terms, aks.rows) if row & needed == needed), None)

def _cmd_check_tripos(args):
    preds = [triposmod.Predicate(index, dict(zip(index, vals))) for vals in values]
'''
    assert function_set_searches(inlined) == ["FiniteBco.track", "predicate_leq"]
    assert row_reads(inlined) == ["streicher_leq"]
    assert predicate_constructions(inlined) == ["_cmd_check_tripos"]
    walker = '''
def eval_in_opca(term, env, opca):
    return opca.app(eval_in_opca(term.fn, env, opca), eval_in_opca(term.arg, env, opca))

class Program:
    def values(self, opca, slots=None):
        table = opca.table
'''
    assert table_reads(walker) == ["eval_in_opca", "Program.values"]
    recursive = '''
def free_vars(term):
    return free_vars(term.fn) | free_vars(term.arg)

def term_str(term):
    def go(t):
        return f"{go(t.fn)} {go(t.arg)}"
    return go(term)

class Program:
    def values(self, opca, slots=None):
        return self.values(opca)
'''
    assert self_calls(recursive) == ["free_vars", "free_vars", "term_str.go", "term_str.go",
                                     "Program.values"]


def test_the_checks_find_bounds_and_subsets_written_out_again():
    written_out = '''
def _all_subsets(elements):
    return (frozenset(e for i, e in enumerate(elements) if mask >> i & 1)
            for mask in range(1 << len(elements)))

def check_implicative(kit):
    lower = [x for x in els if all(host.leq(x, a) for a in subset)]
    for r in range(len(els) + 1):
        parts = list(combinations(els, r))

def _verify_derivation_facts(kit):
    for mask in range(1 << len(alpha_l)):
        if not all(host.leq(v, b) for v in prods):
            continue
    return all(leq(a, x) and x for a in alpha)
'''
    assert bound_scans(written_out) == ["check_implicative", "_verify_derivation_facts"]
    assert subset_enumerations(written_out) == ["_all_subsets", "check_implicative",
                                                "_verify_derivation_facts"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "poset.py"],
                         ids=lambda p: p.name)
def test_only_the_poset_core_writes_out_a_bound(path):
    assert bound_scans(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_lists_every_subset(path):
    expected = ["_lattice_orders"] if path.name == "lattices.py" else []
    assert subset_enumerations(path.read_text(encoding="utf-8")) == expected


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_finite_bco_track_searches_a_function_set(path):
    expected = ["FiniteBco.track"] if path.name == "bco.py" else []
    assert function_set_searches(path.read_text(encoding="utf-8")) == expected


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "aks.py"],
                         ids=lambda p: p.name)
def test_no_module_but_aks_reads_the_pole_rows(path):
    assert row_reads(path.read_text(encoding="utf-8")) == []


def test_the_cli_builds_no_predicate():
    cli = next(p for p in SOURCES if p.name == "cli.py")
    assert predicate_constructions(cli.read_text(encoding="utf-8")) == []


def test_only_program_values_interprets_a_term():
    terms = next(p for p in SOURCES if p.name == "terms.py")
    assert table_reads(terms.read_text(encoding="utf-8")) == ["Program.values"]


def test_no_term_function_recurses_but_the_parser():
    terms = next(p for p in SOURCES if p.name == "terms.py")
    assert set(self_calls(terms.read_text(encoding="utf-8"))) == {"parse_term.parse_expr"}
