import re
from itertools import product

import pytest

from realcheck.aks import build_aks, closed_stack_sets
from realcheck.bco import downset_opca, opca_to_bco
from realcheck.errors import InvariantViolation, StructureError
from realcheck.lattices import DIAMOND, L2, L3
from realcheck.opca import FiniteOpca, skk_element
from realcheck.tripos import (Predicate, arrow_U, boolean_leq, first_unstable,
                              localic_criterion, predicate_leq, streicher_leq)
from realcheck.tripos import _d_predicate_leq


L2U = L2.replace(U=frozenset({"0"}))
L3U = L3.replace(U=frozenset({"0"}))


def predicates_over(values, size=2):
    index = tuple(f"i{n}" for n in range(size))
    return [Predicate(index, dict(zip(index, vals)))
            for vals in product(values, repeat=size)]


# -- the uniform preorder ---------------------------------------------------------

def test_reflexive_via_sub_identity():
    view = opca_to_bco(L3)
    for phi in predicates_over(L3.elements):
        assert predicate_leq(phi, phi, view) is not None


def test_pointwise_order_realized_uniformly():
    view = opca_to_bco(L3)
    skk = skk_element(L3)
    for phi in predicates_over(L3.elements):
        for psi in predicates_over(L3.elements):
            if all(L3.leq(phi(i), psi(i)) for i in phi.index):
                w = predicate_leq(phi, psi, view)
                assert w is not None
                assert w == f"ap[{skk}]" or view.leq(
                    view.functions[w][phi("i0")], psi("i0"))


def test_transitive_through_composition():
    view = opca_to_bco(L3)
    preds = predicates_over(L3.elements)
    for phi in preds:
        for psi in preds:
            if predicate_leq(phi, psi, view) is None:
                continue
            for chi in preds:
                if predicate_leq(psi, chi, view) is not None:
                    assert predicate_leq(phi, chi, view) is not None


def test_downset_preorder_table_on_l2_is_pointwise_inclusion():
    # D(L2) has a single filter function, which acts as the identity; the
    # hand-derived table is therefore exactly pointwise inclusion
    DL2 = downset_opca(L2)
    view = opca_to_bco(DL2)
    preds = predicates_over(DL2.elements)
    for phi in preds:
        for psi in preds:
            expected = all(phi(i) <= psi(i) for i in phi.index)
            assert (predicate_leq(phi, psi, view) is not None) == expected


def test_index_mismatch_rejected():
    view = opca_to_bco(L2)
    phi = Predicate(("i",), {"i": "0"})
    psi = Predicate(("j",), {"j": "0"})
    with pytest.raises(StructureError):
        predicate_leq(phi, psi, view)


# -- negation into U -----------------------------------------------------------------

def test_arrow_values_on_l2():
    assert arrow_U(frozenset(), L2U) == frozenset({"0", "1"})
    assert arrow_U(frozenset({"0", "1"}), L2U) == frozenset({"0"})
    assert arrow_U(L2U.down("1"), L2U) == frozenset({"0"})


def test_arrow_antitone():
    downs = L3U.downsets()
    for x in downs:
        for y in downs:
            if x <= y:
                assert arrow_U(y, L3U) <= arrow_U(x, L3U)


def test_arrow_requires_U():
    with pytest.raises(StructureError):
        arrow_U(frozenset(), L2)


def test_booleanization_without_a_filter_is_refused_by_name():
    unfiltered = L2.replace(U=frozenset({"0"}), filter=None)
    phi = Predicate(("i0",), {"i0": frozenset({"0"})})
    message = "L2: boolean_leq needs a filter and U on the opca"
    with pytest.raises(StructureError, match=message):
        boolean_leq(phi, phi, unfiltered)
    with pytest.raises(StructureError, match=message):
        first_unstable(unfiltered)


def test_an_arrow_that_is_no_downset_is_named():
    # 1·0 = 0 is in U but 0·0 is undefined, so {0} -> U = {1} misses 0 <= 1
    partial = FiniteOpca(elements=("0", "1"), leq_pairs=frozenset({("0", "1")}),
                         table={("1", "0"): "0"}, k="1", s="1", filter=frozenset({"0", "1"}),
                         U=frozenset({"0"}), name="partial")
    assert arrow_U(frozenset(), partial) == frozenset({"0", "1"})
    message = "['0'] -> U not downward closed in partial"
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        arrow_U(frozenset({"0"}), partial)
    phi = Predicate(("i0",), {"i0": frozenset({"0"})})
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        boolean_leq(phi, phi, partial)


# -- Booleanization -------------------------------------------------------------------

def test_boolean_order_reflexive_and_forms_agree():
    for opca in (L2U, L3U, L3.replace(U=frozenset({"0", "m"}))):
        for phi in predicates_over(opca.downsets()):
            v = boolean_leq(phi, phi, opca)
            assert v.holds  # boolean_leq raises when the two forms disagree


def test_double_negation_stability():
    for opca in (L2U, L3U):
        for phi in predicates_over(opca.downsets()):
            notnot = phi.map_values(lambda a: arrow_U(arrow_U(a, opca), opca))
            assert boolean_leq(phi, notnot, opca).holds
            assert boolean_leq(notnot, phi, opca).holds


def test_boolean_transitivity():
    preds = predicates_over(L2U.downsets())
    for phi in preds:
        for psi in preds:
            if not boolean_leq(phi, psi, L2U).holds:
                continue
            for chi in preds:
                if boolean_leq(psi, chi, L2U).holds:
                    assert boolean_leq(phi, chi, L2U).holds


def test_pointwise_equal_predicates_compare():
    downs = L3U.downsets()
    phi = Predicate(("i",), {"i": downs[1]})
    assert boolean_leq(phi, phi, L3U).holds


# -- the Streicher order across the construction ------------------------------------------

def test_equal_stack_predicates_have_a_witness():
    for base, U in ((L2, {"0"}), (L3, {"0"})):
        opca = base.replace(U=frozenset(U))
        aks = build_aks(opca, U=U).aks
        for phi in predicates_over(closed_stack_sets(aks)):
            assert streicher_leq(phi, phi, aks) is not None


def test_empty_target_accepts_any_quasi_proof():
    aks = build_aks(L2, U={"0"}).aks
    sets = closed_stack_sets(aks)
    empty = Predicate(("i",), {"i": frozenset()})
    for alpha in sets:
        phi = Predicate(("i",), {"i": alpha})
        w = streicher_leq(phi, empty, aks)
        assert w == next(t for t in aks.terms if t in aks.qp)


def test_streicher_matches_negated_downset_order():
    for base, U in ((L2, {"0"}), (L3, {"0"}), (L3, {"0", "m"})):
        opca = base.replace(U=frozenset(U))
        aks = build_aks(opca, U=U).aks
        preds = predicates_over(closed_stack_sets(aks))
        for phi in preds:
            for psi in preds:
                st = streicher_leq(phi, psi, aks)
                lhs = phi.map_values(lambda a: arrow_U(a, opca))
                rhs = psi.map_values(lambda a: arrow_U(a, opca))
                assert (st is None) == (_d_predicate_leq(lhs, rhs, opca) is None)


# -- localic criterion -----------------------------------------------------------------------

def test_complement_of_the_filter_is_localic():
    w = localic_criterion(L2U)  # U = carrier minus filter
    assert w is not None
    skk = skk_element(L2U)
    triggers = [a for a in L2U.elements
                if any(L2U.app(b, a) in L2U.U for b in L2U.filter)]
    assert all(L2U.app(skk, a) in L2U.U for a in triggers)


def test_turing_upward_closed_U_is_localic():
    # every downset U on these fixtures with upward-closed complement under
    # reducibility admits the identity realizer
    from realcheck.opca import turing_leq
    for opca in (L2, L3):
        skk = skk_element(opca)
        for mask in range(1 << len(opca.elements)):
            U = frozenset(e for i, e in enumerate(opca.elements) if mask >> i & 1)
            if not opca.is_downward_closed(U) or U & opca.filter:
                continue
            turing_up = all(v in U for u in U for v in opca.elements
                            if turing_leq(opca, u, v) is not None)
            if turing_up:
                w = localic_criterion(opca.replace(U=U))
                assert w is not None


def test_empty_U_accepts_the_first_filter_element():
    w = localic_criterion(L3.replace(U=frozenset()))
    assert w == next(iter(L3.ordered(L3.filter)))
