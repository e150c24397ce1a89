"""The names the package exports, each read from its module on first use,
and a check that no module loads a lazy layer when it is itself loaded."""

import ast
from pathlib import Path

import pytest

import realcheck

SOURCES = sorted(Path(realcheck.__file__).parent.glob("*.py"))

# The layers a subcommand may never run.  ``from .opca import FiniteOpca``
# reads FiniteOpca, so it loads opca with the importing module; a module
# reads a layer through ``from . import opca as opcamod`` at call time.
# errors, record, report and poset are loaded by every path that loads them.
LAZY_LAYERS = {"aks", "bco", "formats", "k2", "lattices", "opca", "terms", "tripos"}

# every name the package exports, as ``from realcheck import NAME``
EXPORTED = frozenset("""
    Aks BuiltAks aks_apply aks_imp biorthogonal_closure build_aks cc_element check_aks
    check_kr check_order_ca closed_stack_sets order_ca orthogonal_stacks orthogonal_terms
    tv_least_of_aks
    BcoMorphism DensityWitnesses FiniteBco ImplicativeKit InternalMeets PseudoDAlgebra
    applicative_verdict check_applicative_morphism check_bco check_bco_morphism check_density
    check_implicative check_pseudo_d_algebra check_star downset_bco downset_monad downset_opca
    downsets_of_poset find_right_adjoint find_top implication_from_sup internal_meets join_sup
    morphism_leq opca_to_bco preserves_finite_meets product_bco sup_from_implication
    truth_values tv_least
    CapExceeded ConstructionError InvariantViolation StructureError
    K2Element FuelExhausted apply_elem apply_many basic_open_contains decode_seq encode_seq
    from_expr is_discrete k2_apply k2_basis tau_extract
    FiniteOpca SequenceKit check_filter check_opca_axioms derive_sequence_kit skk_element
    turing_leq
    Report
    App Const Diverged K S Var app bracket eval_in_opca free_vars lam parse_term reduce_term
    subst term_str
    BooleanVerdict Predicate arrow_U boolean_leq localic_criterion predicate_leq streicher_leq
""".split())


def test_package_imports_only_names_its_modules_list_in_all():
    for module, names in realcheck._EXPORTS.items():
        listed = getattr(getattr(realcheck, module), "__all__", None)
        if listed is not None:
            assert [name for name in names if name not in listed] == [], module


def test_each_exported_name_is_its_modules_object():
    for module, names in realcheck._EXPORTS.items():
        for name in names:
            assert getattr(realcheck, name) is getattr(getattr(realcheck, module), name)


def test_the_exported_names_are_pinned_and_listed():
    exported = {name for names in realcheck._EXPORTS.values() for name in names}
    assert exported == EXPORTED
    assert set(realcheck.__all__) == EXPORTED
    assert EXPORTED <= set(dir(realcheck))
    assert set(realcheck._EXPORTS) <= set(dir(realcheck))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        realcheck.no_such_name
    assert not hasattr(realcheck, "cli_main")


def eager_layer_imports(source):
    """The lazy layers that ``source`` imports names from with ``from .layer
    import ...`` outside any function (a class body runs when its module
    loads), in source order."""
    found = []

    def walk(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.ImportFrom) and child.level == 1 \
                    and child.module in LAZY_LAYERS:
                found.append(child.module)
            walk(child)

    walk(ast.parse(source))
    return found


def test_the_check_finds_an_eager_layer_import():
    source = """
from . import opca as opcamod, terms as termsmod
from .errors import StructureError
from .opca import FiniteOpca
from .terms import lam

class Kit:
    from .bco import FiniteBco

def later():
    from .terms import parse_term
"""
    assert eager_layer_imports(source) == ["opca", "terms", "bco"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_names_from_a_lazy_layer(path):
    assert eager_layer_imports(path.read_text(encoding="utf-8")) == []
