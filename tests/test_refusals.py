"""Each library call refuses a bad argument with its own error and message,
and the small scans that find nothing say so."""

import pytest

from realcheck import k2, report
from realcheck.aks import build_aks
from realcheck.bco import (BcoMorphism, FiniteBco, ImplicativeKit, PseudoDAlgebra,
                           check_applicative_morphism, check_implicative,
                           check_pseudo_d_algebra, downset_monad, downset_opca,
                           implication_from_sup, join_sup, opca_to_bco, preserves_finite_meets,
                           sup_from_implication, truth_values)
from realcheck.errors import ConstructionError, StructureError
from realcheck.lattices import L2, L3, semilattice_opca
from realcheck.opca import FiniteOpca, check_filter, skk_element
from realcheck.report import CheckRecord, Report
from realcheck.terms import app, parse_term
from realcheck.tripos import Predicate, localic_criterion, streicher_leq

from test_bco import heyting_kit

BARE = L2.replace(filter=None)
NO_FUNCTIONS = FiniteBco(("a",), frozenset(), {})
L2_BCO = opca_to_bco(L2)
ONE_POINT = FiniteOpca(elements=("a",), leq_pairs=frozenset(), table={}, k="a", s="a")


def sup_of_bare_host():
    kit = heyting_kit(L2)
    return sup_from_implication(ImplicativeKit(BARE, kit.inf, kit.imp, kit.i, kit.i_prime,
                                               kit.e, kit.e_prime))


def failing_algebra():
    alg = PseudoDAlgebra(L3, {**join_sup(L3), frozenset({"0"}): "1"})
    rep = check_pseudo_d_algebra(alg)
    assert not rep.passed
    return implication_from_sup(alg, rep, "1")


REFUSALS = {
    # bco
    "opca_to_bco without a filter": (lambda: opca_to_bco(BARE), StructureError,
                                     "L2: opca has no filter"),
    "morphism not total": (lambda: BcoMorphism(L2_BCO, L2_BCO, {"0": "0"}), StructureError,
                           "morphism: morphism not total at '1'"),
    "morphism escapes": (lambda: BcoMorphism(L2_BCO, L2_BCO, {"0": "0", "1": "zz"}),
                         StructureError, "morphism: morphism escapes target at '1'"),
    "downset monad of a non-BCO": (
        lambda: downset_monad(NO_FUNCTIONS), ConstructionError,
        "unit(bco) is not a BCO morphism:\n"
        "[   fail] unit(bco) :: morphism.order_tracking"
        "  counterexample=['no order-tracking witness']"
        "\n[   pass] unit(bco) :: morphism.function_tracking  witnesses={'trackers': {}}"),
    "downset opca without a filter": (lambda: downset_opca(BARE), StructureError,
                                      "L2: downset_opca needs a filtered opca"),
    "truth values without a top": (lambda: truth_values(NO_FUNCTIONS), StructureError,
                                   "bco: truth values need an internal top"),
    "sup undefined on a downset": (
        lambda: PseudoDAlgebra(L2, {frozenset({"0"}): "0"}).value(frozenset()),
        StructureError, "alg: field 'sup': sup undefined on downset []"),
    "sup-algebra without a filter": (lambda: PseudoDAlgebra(BARE, {}), StructureError,
                                     "alg: pseudo-sup-algebra host needs a filter"),
    "applicative without filters": (lambda: check_applicative_morphism({}, BARE, L2),
                                    StructureError, "applicative morphisms need filtered opcas"),
    "implicative mode": (lambda: check_implicative(heyting_kit(L2), mode="other"), ValueError,
                         "other"),
    "derived sup without a filter": (sup_of_bare_host, StructureError,
                                     "L2: kit host needs a filter"),
    "implication from a failing algebra": (failing_algebra, ConstructionError,
                                           "implication_from_sup needs a passing algebra"),
    # k2
    "generator trailing tokens": (lambda: k2.parse_generator("1 2"), StructureError,
                                  "trailing tokens [2]"),
    # lattices
    "semilattice without a meet": (
        lambda: semilattice_opca(("a", "b"), set(), filter={"a"}), StructureError,
        "semilattice: no meet for ('a','b')"),
    "semilattice without a top": (
        lambda: semilattice_opca(("0", "a", "b"), {("0", "a"), ("0", "b")}), StructureError,
        "semilattice: no top element; pass an explicit filter"),
    # opca
    "track without a filter": (lambda: BARE.track([("0", "0")]), StructureError,
                               "L2: opca has no filter"),
    "filter subset escapes": (lambda: check_filter(L2, {"zz"}), StructureError,
                              "L2: field 'filter': filter subset escapes carrier"),
    "s·k·k undefined": (lambda: skk_element(ONE_POINT), ConstructionError,
                        "s·k·k undefined; structure violates the s law"),
    # report
    "bad verdict": (lambda: CheckRecord("s", "c", "maybe"), ValueError, "bad verdict 'maybe'"),
    "no such record": (lambda: Report("s").record("c"), KeyError, "'c'"),
    # terms
    "app of nothing": (app, ValueError, "app() needs at least one term"),
    "bad term character": (lambda: parse_term(r"\x. x $"), ValueError,
                           "bad character '$' in term at 6"),
    # tripos
    "predicate not total": (lambda: Predicate((0, 1), {0: "0"}), StructureError,
                            "predicate not total at index 1"),
    "streicher index sets": (
        lambda: streicher_leq(Predicate((0,), {0: frozenset()}),
                              Predicate((1,), {1: frozenset()}), build_aks(L2, U={"0"}).aks),
        StructureError, "predicates over different index sets"),
    "localic criterion without U": (lambda: localic_criterion(L2.replace(U=None)),
                                    StructureError,
                                    "L2: localic criterion needs a filter and U"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_each_refusal_names_its_reason(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_a_morphism_applies_its_mapping():
    assert BcoMorphism(L2_BCO, L2_BCO, {"0": "1", "1": "1"})("0") == "1"


def test_meets_of_a_structure_without_a_top_are_not_preserved():
    assert preserves_finite_meets({"a": "0"}, NO_FUNCTIONS, L2_BCO) is None


def test_an_element_shows_its_tag():
    k, _ = k2.k2_basis()
    assert repr(k) == "<K2 k [rec]>"
    assert repr(k2.K2Element(lambda n: n)) == "<K2 elem [raw]>"


def test_a_witness_of_another_type_is_shown_as_text():
    assert report._show({"t": 1j}) == {"t": "1j"}
