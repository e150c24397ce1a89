"""Executable checkers and constructions for realizability structures.

Finite ordered partial combinatory algebras and basic combinatorial
objects, their axiom checkers, the downset construction, pseudo-sup-algebra
and implicative structure, abstract Krivine structures with the
orthogonality apparatus, the induced realizability preorders and their
Booleanization, localic criteria, and a dialogue model on Baire space.

Importing the package runs none of its modules: each is compiled and run on its first
attribute access, or when a name it exports is first read (not thread-safe before 3.12).
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

_EXPORTS = {  # module -> the names the package exports from it
    "aks": ("Aks", "BuiltAks", "aks_apply", "aks_imp", "biorthogonal_closure", "build_aks",
            "cc_element", "check_aks", "check_kr", "check_order_ca", "closed_stack_sets",
            "order_ca", "orthogonal_stacks", "orthogonal_terms", "tv_least_of_aks"),
    "bco": ("BcoMorphism", "DensityWitnesses", "FiniteBco", "ImplicativeKit", "InternalMeets",
            "PseudoDAlgebra", "applicative_verdict", "check_applicative_morphism", "check_bco",
            "check_bco_morphism", "check_density", "check_implicative", "check_pseudo_d_algebra",
            "check_star", "downset_bco", "downset_monad", "downset_opca", "downsets_of_poset",
            "find_right_adjoint", "find_top", "implication_from_sup", "internal_meets", "join_sup",
            "morphism_leq", "opca_to_bco", "preserves_finite_meets", "product_bco",
            "sup_from_implication", "truth_values", "tv_least"),
    "errors": ("CapExceeded", "ConstructionError", "InvariantViolation", "StructureError"),
    "k2": ("K2Element", "FuelExhausted", "apply_elem", "apply_many", "basic_open_contains",
           "decode_seq", "encode_seq", "from_expr", "is_discrete", "k2_apply", "k2_basis",
           "tau_extract"),
    "opca": ("FiniteOpca", "SequenceKit", "check_filter", "check_opca_axioms",
             "derive_sequence_kit", "skk_element", "turing_leq"),
    "terms": ("App", "Const", "Diverged", "K", "S", "Var", "app", "bracket", "eval_in_opca",
              "free_vars", "lam", "parse_term", "reduce_term", "subst", "term_str"),
    "tripos": ("BooleanVerdict", "Predicate", "arrow_U", "boolean_leq", "localic_criterion",
               "predicate_leq", "streicher_leq"),
    "report": ("Report",), "formats": (), "lattices": (), "poset": (), "record": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)

# ``cli`` is left out: ``python -m realcheck.cli`` warns when the module it
# runs is already in sys.modules.
for _name in _EXPORTS:
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = globals()[_name] = module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del sys, LazyLoader, find_spec, module_from_spec, _name, _spec, _module


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__():
    return sorted({*globals(), *_OWNER})
