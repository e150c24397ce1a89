import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from realcheck.bco import (BcoMorphism, FiniteBco, ImplicativeKit,
                           PseudoDAlgebra, applicative_verdict, check_bco,
                           check_applicative_morphism, check_bco_morphism,
                           check_density, check_implicative,
                           check_pseudo_d_algebra, check_star, downset_bco,
                           downset_monad, downset_opca, find_right_adjoint,
                           find_top, implication_from_sup, internal_meets,
                           join_sup, morphism_leq,
                           opca_to_bco, product_bco, sup_from_implication,
                           truth_values, tv_least)
from realcheck.errors import CapExceeded, ConstructionError, StructureError
from realcheck.formats import load_opca
from realcheck.lattices import DIAMOND, L2, L3, M3, N5, VEE, enumerate_lattices
from realcheck.opca import check_opca_axioms, skk_element

from conftest import CHILD_ENV, FIXTURES, STANDARD_OPCAS


def implication_of(alg):
    """``implication_from_sup`` with the clause report and the bound witness
    searched here, once, as its callers do."""
    return implication_from_sup(alg, check_pseudo_d_algebra(alg), check_star(alg))


def heyting_kit(opca, name="heyting"):
    """Infima over the closed downsets plus the relative pseudo-complement arrow."""
    inf = {low: next(x for x in low if all(opca.leq(y, x) for y in low))
           for low in opca.closed_downsets()}
    imp = {}
    for b in opca.elements:
        for c in opca.elements:
            good = [a for a in opca.elements if opca.leq(opca.app(a, b), c)]
            imp[(b, c)] = next(a for a in good if all(opca.leq(x, a) for x in good))
    top = next(iter(opca.filter))
    return ImplicativeKit(opca, inf, imp, i=top, i_prime=top, e=top, e_prime=top,
                          name=name)


# -- check_bco -----------------------------------------------------------------

def test_opca_views_are_bcos():
    for opca in STANDARD_OPCAS:
        assert check_bco(opca_to_bco(opca)).passed


def test_non_downward_closed_domain_fails():
    bco = FiniteBco(elements=("0", "1"), leq_pairs=frozenset({("0", "1")}),
                    functions={"id": {"0": "0", "1": "1"}, "partial": {"1": "1"}})
    assert check_bco(bco).record("bco.domains_monotone").verdict == "fail"


def test_missing_sub_identity_fails():
    bco = FiniteBco(elements=("0", "1"), leq_pairs=frozenset({("0", "1")}),
                    functions={"up": {"0": "1", "1": "1"}})
    assert check_bco(bco).record("bco.sub_identity").verdict == "fail"


def test_witness_named_empty_string_counts():
    bco = FiniteBco(elements=("x",), leq_pairs=frozenset(), functions={"": {"x": "x"}})
    assert check_bco(bco).record("bco.sub_identity").witnesses == {"i": ""}
    rep = check_bco_morphism(BcoMorphism(bco, bco, {"x": "x"}))
    assert rep.passed and rep.record("morphism.order_tracking").witnesses == {"u": ""}


def test_composition_closure_fails_when_composite_missing():
    # f maps both to 1, g maps both to 0: g∘f = const 0 needs some h <= it
    bco = FiniteBco(elements=("0", "1"), leq_pairs=frozenset({("0", "1")}),
                    functions={"id": {"0": "0", "1": "1"},
                               "up": {"0": "1", "1": "1"}})
    # up∘up = up, id∘f = f: closure holds here, so this one passes
    assert check_bco(bco).passed


# -- the view kept on its opca ----------------------------------------------------

def reference_view(opca):
    """The BCO view built afresh from the opca's fields, as ``opca_to_bco``
    built it on every call before the view was kept."""
    if opca.filter is None:
        raise StructureError("opca has no filter", source=opca.name)
    return FiniteBco(elements=opca.elements, leq_pairs=opca.leq_pairs,
                     functions={f"ap[{a}]": {b: c for b in opca.elements
                                             if (c := opca.app(a, b)) is not None}
                                for a in opca.ordered(opca.filter)},
                     name=f"bco({opca.name})", origin_opca=opca)


L3MF = L3.replace(filter=frozenset({"m", "1"}), name="L3mf")
FILTERED_FILES = ("l2.json", "l3.json", "vee.json", "diamond.json", "m3.json")
VIEW_OPCAS = (*enumerate_lattices(3), L3MF, *STANDARD_OPCAS,  # VEE is standard
              *(load_opca(FIXTURES / name)[0] for name in FILTERED_FILES))


@pytest.mark.parametrize("opca", VIEW_OPCAS, ids=lambda o: o.name.rpartition("/")[2])
def test_each_opca_keeps_one_view_equal_to_a_fresh_one(opca):
    view = opca_to_bco(opca)
    assert opca_to_bco(opca) is view
    ref = reference_view(opca)
    assert view.elements == ref.elements and view.leq_pairs == ref.leq_pairs
    assert list(view.functions.items()) == list(ref.functions.items())  # filter order
    assert [list(t) for t in view.functions.values()] == [list(t) for t in ref.functions.values()]
    assert view.name == ref.name == f"bco({opca.name})"
    assert view.origin_opca is opca
    other = opca.replace()
    other_view = opca_to_bco(other)
    assert other_view is not view and other_view.origin_opca is other
    assert other_view.functions == view.functions


def test_an_opca_without_a_filter_is_refused_on_every_call_and_keeps_no_view():
    bare = L2.replace(filter=None)
    messages = []
    for _ in range(2):
        with pytest.raises(StructureError) as exc:
            opca_to_bco(bare)
        messages.append(str(exc.value))
        assert bare._bco_view is None
    assert messages == [f"{L2.name}: opca has no filter"] * 2


def test_applicative_records_agree_with_freshly_built_views(monkeypatch):
    small = (*enumerate_lattices(2), L2)

    def records(fmap, src, dst):
        rep = check_applicative_morphism(fmap, src, dst)
        return [(x.check, x.verdict, x.witnesses, x.counterexample) for x in rep.records]

    maps = [(dict(zip(src.elements, values)), src, dst) for src in small for dst in small
            for values in product(dst.elements, repeat=len(src.elements))]
    kept = [records(*m) for m in maps]
    assert [records(*m) for m in maps] == kept  # second round: every view is a kept one
    fresh = []
    monkeypatch.setattr("realcheck.bco.opca_to_bco", lambda o: fresh.append(o) or reference_view(o))
    assert [records(*m) for m in maps] == kept
    assert len(maps) == 23 and len(fresh) == 2 * 23


# -- morphisms -------------------------------------------------------------------

def test_identity_morphism_passes():
    view = opca_to_bco(L2)
    m = BcoMorphism(view, view, {a: a for a in view.elements})
    assert check_bco_morphism(m).passed


def test_morphism_reflexive_preorder():
    view = opca_to_bco(L3)
    ident = {a: a for a in view.elements}
    assert morphism_leq(ident, ident, view) is not None


def test_constant_bottom_below_identity_but_not_conversely():
    view = opca_to_bco(L2)
    const0 = {a: "0" for a in view.elements}
    ident = {a: a for a in view.elements}
    assert morphism_leq(const0, ident, view) is not None
    assert morphism_leq(ident, const0, view) is None


# -- downsets ---------------------------------------------------------------------

def test_downsets_of_two_chain_form_three_chain():
    d = downset_bco(opca_to_bco(L2))
    assert len(d.elements) == 3
    chain = sorted(d.elements, key=len)
    for i in range(len(chain) - 1):
        assert d.leq(chain[i], chain[i + 1])


def test_downset_filter_of_l2():
    DL2 = downset_opca(L2)
    assert DL2.filter == frozenset({frozenset({"0", "1"})})
    assert check_opca_axioms(DL2).passed


def test_downset_opcas_of_fixtures_pass():
    for opca in (L2, L3, VEE, DIAMOND):
        assert check_opca_axioms(downset_opca(opca)).passed


def test_unit_and_multiplication_are_morphisms():
    monad = downset_monad(opca_to_bco(L2))  # raises if either check fails
    assert monad.unit.mapping["0"] == frozenset({"0"})
    assert monad.mult.mapping[frozenset()] == frozenset()


def test_monad_laws_on_fixtures():
    for opca in (L2, L3):
        monad = downset_monad(opca_to_bco(opca))
        d = monad.d_bco
        ident = {alpha: alpha for alpha in d.elements}
        # mult after unit-at-D is the identity on the nose, and realized
        unit_d = {alpha: frozenset(beta for beta in d.elements if beta <= alpha)
                  for alpha in d.elements}
        composite = {alpha: monad.mult.mapping[unit_d[alpha]] for alpha in d.elements}
        assert composite == ident
        assert morphism_leq(composite, ident, d) is not None
        assert morphism_leq(ident, composite, d) is not None
        # mult after the lifted unit likewise
        lifted = {alpha: frozenset(x for x in d.elements
                                   if any(x <= opca.down(a) for a in alpha))
                  for alpha in d.elements}
        composite2 = {alpha: monad.mult.mapping[lifted[alpha]] for alpha in d.elements}
        assert composite2 == ident


def test_downset_cap_refusal(monkeypatch):
    monkeypatch.setattr("realcheck.poset.DOWNSET_CAP", 3)
    with pytest.raises(CapExceeded) as exc:
        downset_bco(opca_to_bco(L3.replace()))  # a new view, whose downsets are not listed yet
    assert str(exc.value) == "downsets of bco(L3): 4 items exceeds cap 3"


# -- internal meets and truth values ------------------------------------------------

def test_opca_views_have_internal_meets():
    for opca in STANDARD_OPCAS:
        meets = internal_meets(opca_to_bco(opca))
        assert meets is not None
        top = next(iter(opca.filter))  # singleton-filter fixtures: the top
        if len(opca.filter) == 1:
            assert meets.top == top


def test_one_element_bco_top_is_the_element():
    bco = FiniteBco(elements=("e",), leq_pairs=frozenset(),
                    functions={"id": {"e": "e"}})
    meets = internal_meets(bco)
    assert meets is not None and meets.top == "e"


def test_antichain_with_identity_has_no_meets():
    bco = FiniteBco(elements=("a", "b"), leq_pairs=frozenset(),
                    functions={"id": {"a": "a", "b": "b"}})
    assert internal_meets(bco) is None
    assert find_top(bco) is None  # the top side fails


def test_meet_side_failure_detected_by_enumeration():
    # a and b below a top, but nothing below both: counit cannot exist
    bco = FiniteBco(elements=("a", "b", "t"),
                    leq_pairs=frozenset({("a", "t"), ("b", "t")}),
                    functions={"id": {"a": "a", "b": "b", "t": "t"}})
    assert internal_meets(bco) is None
    assert find_top(bco) is not None  # so the meet side fails
    assert truth_values(bco) == frozenset({"t"})  # the top alone decides them


def test_meet_search_past_the_enumeration_refuses():
    # four elements, a constant map to "a" makes "a" the top, no poset meets
    # and no pairing: the 4^16 maps are not tried, so the miss is refused
    els = ("a", "b", "c", "d")
    bco = FiniteBco(elements=els, leq_pairs=frozenset(),
                    functions={"id": {x: x for x in els}, "to_a": {x: "a" for x in els}})
    assert check_bco(bco).passed and find_top(bco) == ("a", "to_a")
    with pytest.raises(CapExceeded) as exc:
        internal_meets(bco)
    assert (exc.value.count, exc.value.cap) == (4 ** 16, 20000)
    assert str(exc.value).startswith("meet maps of bco: ")
    # without a top the search ends before any meet map, with None
    no_top = FiniteBco(elements=els, leq_pairs=frozenset(), functions={"id": {x: x for x in els}})
    assert internal_meets(no_top) is None


def test_truth_values_upward_closed_and_meet_closed():
    for opca in (L2, L3, DIAMOND):
        view = opca_to_bco(opca)
        meets = internal_meets(view)
        tv = truth_values(view)
        for a in tv:
            for b in view.elements:
                if view.leq(a, b):
                    assert b in tv
        for a in tv:
            for b in tv:
                assert meets.meet[(a, b)] in tv


def test_tv_least_on_semilattice_is_top():
    view = opca_to_bco(L3)
    assert tv_least(view) == "1"
    assert truth_values(view) == frozenset({"1"})


def test_find_top_matches_internal_meets_choice():
    for opca in (L2, L3, DIAMOND):
        view = opca_to_bco(opca)
        assert find_top(view)[0] == internal_meets(view).top


# -- pseudo-sup-algebras --------------------------------------------------------------

def test_locale_case_passes_with_uniform_bound():
    for opca in (L2, L3, DIAMOND):
        alg = PseudoDAlgebra(opca, join_sup(opca), name=f"join({opca.name})")
        assert check_pseudo_d_algebra(alg).passed
        assert check_star(alg) is not None


def test_constant_bottom_sup_fails_principal_clause():
    alg = PseudoDAlgebra(L2, {d: "0" for d in L2.downsets()}, name="const-bottom")
    rep = check_pseudo_d_algebra(alg)
    assert rep.record("sup.principal_h4").verdict == "fail"


def test_singleton_host_trivially_passes():
    from realcheck.opca import FiniteOpca
    one = FiniteOpca(elements=("e",), leq_pairs=frozenset(),
                     table={("e", "e"): "e"}, k="e", s="e",
                     filter=frozenset({"e"}), name="one")
    alg = PseudoDAlgebra(one, {frozenset(): "e", frozenset({"e"}): "e"})
    assert check_pseudo_d_algebra(alg).passed
    assert check_star(alg) is not None


def test_nondistributive_lattices_fail_the_bound_only():
    for opca in (M3, N5):
        alg = PseudoDAlgebra(opca, join_sup(opca), name=f"join({opca.name})")
        assert check_pseudo_d_algebra(alg).passed
        assert check_star(alg) is None


# '0' realizes every clause and the bound of L3's join sup (0·x = 0 is below
# everything), so on L3, whose filter is {'1'}, only the filter gate fails it
WIDE_L3 = L3.replace(filter=L3.element_set)


@pytest.mark.parametrize("key, check", [
    ("u", "sup.monotone_u"), ("g3", "sup.flatten_g3"), ("h3", "sup.flatten_h3"),
    ("g4", "sup.principal_g4"), ("h4", "sup.principal_h4")])
def test_a_pinned_witness_outside_the_filter_fails_its_clause(key, check):
    wide = check_pseudo_d_algebra(PseudoDAlgebra(WIDE_L3, join_sup(L3)), witnesses={key: "0"})
    assert wide.passed
    rep = check_pseudo_d_algebra(PseudoDAlgebra(L3, join_sup(L3)), witnesses={key: "0"})
    assert [r.check for r in rep.failures] == [check]
    assert rep.record(check).counterexample == (key, "0", "outside the filter")


def test_a_pinned_g2_outside_the_filter_names_its_filter_element():
    wide = PseudoDAlgebra(WIDE_L3, join_sup(L3))
    assert check_pseudo_d_algebra(wide, witnesses={"g2": dict.fromkeys("0m1", "0")}).passed
    rep = check_pseudo_d_algebra(PseudoDAlgebra(L3, join_sup(L3)), witnesses={"g2": {"1": "0"}})
    assert [r.check for r in rep.failures] == ["sup.image_g2"]
    assert rep.record("sup.image_g2").counterexample == ("g2", "1", "0", "outside the filter")


def test_a_pinned_bound_witness_outside_the_filter_is_none():
    assert check_star(PseudoDAlgebra(WIDE_L3, join_sup(L3)), v="0") == "0"
    alg = PseudoDAlgebra(L3, join_sup(L3))
    assert check_star(alg, v="0") is None
    assert check_star(alg, v="1") == check_star(alg) == "1"


def test_sup_adjoint_to_principal_downsets():
    # unit side of the adjunction: some F-function lands each downset below
    # the principal downset of its sup
    for opca in (L2, L3, DIAMOND):
        alg = PseudoDAlgebra(opca, join_sup(opca))
        view = opca_to_bco(opca)
        witness = next(
            (fname for fname, ftab in view.functions.items()
             if all(set(alpha) <= set(ftab)
                    and all(opca.leq(ftab[x], alg.value(alpha)) for x in alpha)
                    for alpha in opca.downsets())),
            None)
        assert witness is not None


# -- applicative morphisms -------------------------------------------------------------

def test_identity_is_applicative():
    rep = check_applicative_morphism({a: a for a in L2.elements}, L2, L2)
    assert rep.passed


def test_appl_equals_fpp_on_self_maps():
    for opca in (L2, L3, VEE):
        for values in product(opca.elements, repeat=len(opca.elements)):
            fmap = dict(zip(opca.elements, values))
            rep = check_applicative_morphism(fmap, opca, opca)
            assert rep.record("crosscheck.appl_equals_fpp").passed, (opca.name, fmap)


def test_sup_applicative_iff_uniform_bound():
    for opca in (L2, L3, DIAMOND, M3, N5):
        alg = PseudoDAlgebra(opca, join_sup(opca))
        DA = downset_opca(opca)
        fmap = {d: alg.value(d) for d in DA.elements}
        rep = check_applicative_morphism(fmap, DA, opca)
        assert applicative_verdict(rep) == (check_star(alg) is not None), opca.name


# -- density ------------------------------------------------------------------------------

def test_identity_density_witnesses():
    dens = check_density({a: a for a in L2.elements}, L2, L2)
    assert dens.cd is not None and dens.simple is not None and dens.agree
    assert dens.cd[0] == skk_element(L2)  # first filter element: the top


@pytest.mark.parametrize("src, dst", [(L2.replace(filter=None), L2),
                                      (L2, L2.replace(filter=None))], ids=["source", "target"])
def test_density_refuses_an_opca_without_a_filter(src, dst):
    identity = {a: a for a in L2.elements}
    with pytest.raises(StructureError, match="^computational density needs filtered opcas$"):
        check_density(identity, src, dst)


@pytest.mark.parametrize("consumer", [check_applicative_morphism, check_density,
                                      find_right_adjoint])
@pytest.mark.parametrize("mapping, message", [
    ({"0": "0"}, "map not total / escapes target at '1'"),
    ({"0": "0", "1": "zz"}, "map not total / escapes target at '1'"),
    ({"0": "0", "1": "1", "zz": "1"}, "map key 'zz' outside the source carrier"),
], ids=["missing-key", "value-outside", "stray-key"])
def test_every_map_consumer_refuses_a_map_off_the_carriers(consumer, mapping, message):
    with pytest.raises(StructureError) as exc:
        consumer(mapping, L2, L2)
    assert str(exc.value) == f"{L2.name}->{L2.name}: field 'map': {message}"


def test_bco_morphism_refuses_a_key_outside_its_source():
    bco = opca_to_bco(L2)
    identity = {a: a for a in bco.elements}
    assert BcoMorphism(bco, bco, identity).mapping == identity
    with pytest.raises(StructureError, match="morphism key 'zz' outside the source"):
        BcoMorphism(bco, bco, dict(identity, zz="1"))


def test_density_families_agree_on_small_morphisms():
    for src, dst in ((L2, L2), (L2, L3), (L3, L2), (VEE, L2)):
        for values in product(dst.elements, repeat=len(src.elements)):
            fmap = dict(zip(src.elements, values))
            if not applicative_verdict(check_applicative_morphism(fmap, src, dst)):
                continue
            assert check_density(fmap, src, dst).agree, (src.name, dst.name, fmap)


def test_density_iff_right_adjoint_for_sup_preserving_maps():
    def sup_commutes(fmap, A, B):
        ja, jb = join_sup(A), join_sup(B)
        return all(fmap[ja[al]] == jb[B.downward_closure({fmap[a] for a in al})]
                   for al in A.downsets())

    for src, dst in ((L2, L2), (L2, L3), (L3, L2), (L3, L3)):
        for values in product(dst.elements, repeat=len(src.elements)):
            fmap = dict(zip(src.elements, values))
            if not applicative_verdict(check_applicative_morphism(fmap, src, dst)):
                continue
            if not sup_commutes(fmap, src, dst):
                continue
            dens = check_density(fmap, src, dst)
            adj = find_right_adjoint(fmap, src, dst)
            assert (dens.simple is not None) == (adj is not None), fmap


# -- implicative structure ------------------------------------------------------------------

def test_heyting_kit_passes_pre_implicative():
    for opca in (L3, DIAMOND):
        assert check_implicative(heyting_kit(opca), mode="pre-implicative").passed


def test_broken_implication_names_the_triple():
    kit = heyting_kit(L3)
    broken = ImplicativeKit(L3, kit.inf, {bc: "0" for bc in kit.imp},
                            i=kit.i, i_prime=kit.i_prime, e=kit.e,
                            e_prime=kit.e_prime, name="broken-imp")
    rec = check_implicative(broken).record("implicative.imp_witnessed")
    assert rec.verdict == "fail" and rec.counterexample is not None


def test_ioca_mode_rejects_partial_application():
    from realcheck.opca import FiniteOpca
    partial = FiniteOpca(elements=("0", "1"), leq_pairs=frozenset({("0", "1")}),
                         table={("1", "1"): "1", ("1", "0"): "0", ("0", "1"): "0"},
                         k="1", s="1", filter=frozenset({"1"}), name="partial")
    kit = ImplicativeKit(partial,
                         {frozenset({"0"}): "0", frozenset({"0", "1"}): "1"},
                         {(b, c): "1" for b in ("0", "1") for c in ("0", "1")},
                         i="1", i_prime="1", e="1", e_prime="1", name="partial-kit")
    rep = check_implicative(kit, mode="ioca")
    assert rep.record("ioca.total_application").verdict == "fail"


@pytest.mark.parametrize("constant, field, check", [
    ("i", "i", "implicative.inf_witnessed"),
    ("i'", "i_prime", "implicative.inf_witnessed"),
    ("e", "e", "implicative.imp_witnessed"),
    ("e'", "e_prime", "implicative.imp_witnessed"),
])
def test_kit_constant_outside_the_filter_fails_its_clause(constant, field, check):
    # on L3 application is the meet, so '0' would pass both scans as any of
    # the four constants; the filter is {'1'}
    kit = heyting_kit(L3)
    moved = ImplicativeKit(**{**{f: getattr(kit, f) for f in ImplicativeKit._fields},
                              field: "0"})
    rep = check_implicative(moved)
    assert rep.record(check).counterexample == (constant, "0", "outside the filter")
    assert [r.check for r in rep.failures] == [check]


def old_per_subset_table(kit):
    """The infima keyed by every subset of the carrier, as the kit once kept them."""
    els = kit.host.elements
    return {s: kit.inf[kit.host.lower(s)]
            for s in (frozenset(e for i, e in enumerate(els) if mask >> i & 1)
                      for mask in range(1 << len(els)))}


@pytest.mark.parametrize("inf, message", [
    (lambda kit: {frozenset({"0"}): "0"}, "no infimum for the closed downset ['0', 'm']"),
    (old_per_subset_table, "not a closed downset: []"),
    (lambda kit: {**kit.inf, "0": "0"}, "not a closed downset: '0'"),
    (lambda kit: {**kit.inf, frozenset({"0", "m"}): "x"},
     "infimum 'x' outside the carrier at ['0', 'm']"),
], ids=["missing", "per-subset", "not-a-set", "outside"])
def test_a_kit_refuses_an_inf_table_not_keyed_by_the_closed_downsets(inf, message):
    kit = heyting_kit(L3)
    rest = {f: getattr(kit, f) for f in ImplicativeKit._fields if f not in ("host", "inf")}
    with pytest.raises(StructureError) as exc:
        ImplicativeKit(L3, inf(kit), **rest)
    assert str(exc.value) == f"heyting: field 'inf': {message}"


@pytest.mark.parametrize("imp, message", [
    (lambda kit: {}, "no implication for the pair of carrier elements ('0', '0')"),
    (lambda kit: {**kit.imp, ("0", "x"): "0"},
     "not a pair of carrier elements: ('0', 'x')"),
    (lambda kit: {**kit.imp, ("m", "0"): "x"}, "implication 'x' outside the carrier at ('m', '0')"),
], ids=["empty", "stray", "outside"])
def test_a_kit_refuses_an_imp_table_not_keyed_by_the_pairs(imp, message):
    # unchecked, the empty table would end check_implicative in a bare KeyError
    kit = heyting_kit(L3)
    rest = {f: getattr(kit, f) for f in ImplicativeKit._fields if f not in ("host", "imp")}
    with pytest.raises(StructureError) as exc:
        ImplicativeKit(L3, imp=imp(kit), **rest)
    assert str(exc.value) == f"heyting: field 'imp': {message}"


def test_kit_without_a_filter_is_refused():
    kit = heyting_kit(L3)
    bare = ImplicativeKit(L3.replace(filter=None), kit.inf, kit.imp, kit.i, kit.i_prime,
                          kit.e, kit.e_prime)
    with pytest.raises(StructureError, match="kit host needs a filter"):
        check_implicative(bare)


def test_ioca_mode_passes_on_heyting_lattice():
    assert check_implicative(heyting_kit(DIAMOND), mode="ioca").passed


INF_FAILURE = """
from realcheck.bco import check_implicative
from realcheck.lattices import DIAMOND
from test_bco import heyting_kit
kit = heyting_kit(DIAMOND)
kit.inf[DIAMOND.lower({"a", "b"})] = "1"
print(check_implicative(kit).record("implicative.inf_witnessed").counterexample)
"""


@pytest.mark.parametrize("seed", ["1", "2"])
def test_inf_counterexample_does_not_follow_the_hash_seed(seed):
    # {a, b} has the lower bounds {0}, whose infimum is set to 1; i·1 = 1 is
    # not below 0, the first of upper({0}) in carrier order
    path = os.pathsep.join([str(Path(__file__).parent), CHILD_ENV["PYTHONPATH"]])
    env = {**CHILD_ENV, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", INF_FAILURE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "(('0', '1', 'a', 'b'), '0')\n"), proc.stderr


# -- the two constructions --------------------------------------------------------------------

def test_sup_from_implication_matches_lattice_join():
    for opca in (L3, DIAMOND):
        derived = sup_from_implication(heyting_kit(opca))
        assert derived.algebra.sup == join_sup(opca)
        assert all(el in opca.filter for el in derived.combinators.values())


def test_implication_from_sup_recovers_heyting_arrow():
    for opca in (L3, DIAMOND):
        alg = PseudoDAlgebra(opca, join_sup(opca))
        kit = implication_of(alg)
        assert check_implicative(kit, mode="pre-implicative").passed
        assert kit.imp == heyting_kit(opca).imp


def test_lower_bound_feeds_the_infimum_witness():
    alg = PseudoDAlgebra(DIAMOND, join_sup(DIAMOND))
    kit = implication_of(alg)
    for mask in range(1 << len(DIAMOND.elements)):
        sub = frozenset(e for i, e in enumerate(DIAMOND.elements) if mask >> i & 1)
        for b in DIAMOND.elements:
            if all(DIAMOND.leq(b, a) for a in sub):
                got = DIAMOND.app(kit.i_prime, b)
                assert got is not None and DIAMOND.leq(got, kit.inf_of(sub))


def test_e_constant_tracks_application_exhaustively():
    alg = PseudoDAlgebra(L3, join_sup(L3))
    kit = implication_of(alg)
    for a in L3.elements:
        for b in L3.elements:
            ab = L3.app(a, b)
            for c in L3.elements:
                if ab is not None and L3.leq(ab, c):
                    got = L3.app(kit.e, a)
                    assert got is not None and L3.leq(got, kit.imp_of(b, c))


def test_implication_from_sup_refuses_a_bound_witness_outside_the_filter():
    alg = PseudoDAlgebra(L3, join_sup(L3))
    assert check_star(alg, v="0") is None
    with pytest.raises(ConstructionError,
                       match="uniform bound witness v = '0' lies outside the filter"):
        implication_from_sup(alg, check_pseudo_d_algebra(alg), "0")


def test_derived_sup_names_the_infima_that_break_fact_a():
    # inf[{0}] = 1 is not below inf[{0, m}] = m, and eta acts as the identity
    kit = heyting_kit(L3)
    kit.inf[frozenset({"0"})] = "1"
    with pytest.raises(ConstructionError) as exc:
        sup_from_implication(kit)
    assert str(exc.value) == "derivation fact (a) fails at (('0', '1', 'm'), ('1', 'm'))"


def test_derived_sup_fails_loudly_on_broken_kit():
    kit = heyting_kit(L3)
    broken = ImplicativeKit(L3, kit.inf, {bc: "0" for bc in kit.imp},
                            i=kit.i, i_prime=kit.i_prime, e=kit.e,
                            e_prime=kit.e_prime, name="broken")
    with pytest.raises(ConstructionError):
        sup_from_implication(broken)


def without(opca, key):
    """``opca`` with the table entry at ``key`` deleted."""
    table = dict(opca.table)
    del table[key]
    return opca.replace(table=table)


L2_ALL = L2.replace(filter=frozenset({"0", "1"}))

# Heyting kits on L2 and L3 with one change each, and the refusal of
# sup_from_implication each reaches (found by changing the constants, one
# table entry, or one imp or inf entry of the Heyting kits on lattices of
# up to four elements)
BROKEN_KITS = [
    (L2_ALL, {("0", "0"): None}, {}, "0", "eta undefined in L2"),
    (L2, {}, {}, "0", "derived combinator eta lands outside the filter"),
    (L2, {}, {("0", "1"): "0"}, "1", "derivation fact (b) fails at ('0', '1', '0', 'monotone')"),
    # xi·(m => 1) = 1 is not below 0 => 1 = 0, although 0 <= m
    (L3, {}, {("0", "1"): "0"}, "1", "derivation fact (b) fails at ('0', 'm', '1', 'antitone')"),
    (L2, {("0", "0"): None}, {}, "1", "derivation fact (d) fails at ('0', [], '0')"),
    # 0·1 is undefined, so fact (d) skips f = 0 on the downsets holding 1
    (L2, {("0", "1"): None}, {}, "1", "derived sup breaks the uniform bound condition"),
]


@pytest.mark.parametrize("host, table, imp, constant, message", BROKEN_KITS,
                         ids=["undefined", "outside", "fact b", "fact b antitone", "fact d",
                              "bound"])
def test_derived_sup_names_each_refusal(host, table, imp, constant, message):
    kit = heyting_kit(host)  # of the host before its table changes
    for key in table:
        host = without(host, key)
    broken = ImplicativeKit(host, kit.inf, {**kit.imp, **imp}, i=constant, i_prime=constant,
                            e=constant, e_prime=constant, name="broken")
    with pytest.raises(ConstructionError) as exc:
        sup_from_implication(broken)
    assert str(exc.value) == message


def test_implication_from_sup_strengthens_an_i_that_misses_an_infimum():
    # sup {0} = a: the clause-2 witness for s·k·k does not map inf[{0}] into
    # {0}.  {1, a, b} is not closed under application (a·b = 0), and the
    # strengthened i, the value of <x> g4 (u (g2 x)), is 0, outside it.
    host = DIAMOND.replace(filter=frozenset({"1", "a", "b"}))
    alg = PseudoDAlgebra(host, {**join_sup(host), frozenset({"0"}): "a"})
    report = check_pseudo_d_algebra(alg)
    kit = implication_from_sup(alg, report, check_star(alg))
    g2_skk = report.record("sup.image_g2").witnesses["g2"][skk_element(host)]
    low = frozenset({"0"})
    assert host.app(g2_skk, kit.inf[low]) not in low
    assert kit.i == "0" and all(host.app(kit.i, kit.inf[low]) in low for low in kit.inf)
    assert check_implicative(kit).record("implicative.inf_witnessed").counterexample == \
        ("i", "0", "outside the filter")


def test_a_meet_map_with_witnesses_must_also_be_a_morphism():
    # on 0 < 1, 0 < 2 the poset meet has unit and counit witnesses, but f1
    # does not track (f0, f1), and no other candidate has the witnesses
    bco = FiniteBco((0, 1, 2), frozenset({(0, 1), (0, 2)}),
                    {"f0": {0: 0, 1: 1, 2: 1}, "f1": {0: 0, 1: 1, 2: 2}})
    meets = {(a, b): bco.meet(a, b) for a in bco.elements for b in bco.elements}
    els = bco.elements
    assert bco.track([(a, meets[(a, a)]) for a in els]) == "f1"
    assert bco.track([(meets[(a, b)], a) for a in els for b in els]) == "f1"
    assert bco.track([(meets[(a, b)], b) for a in els for b in els]) == "f1"
    rep = check_bco_morphism(BcoMorphism(product_bco(bco, bco), bco, meets))
    assert rep.record("morphism.function_tracking").counterexample == ("(f0,f1)",)
    assert internal_meets(bco) is None


def test_scans_that_find_nothing():
    assert find_right_adjoint({"0": "1", "1": "1"}, L2, L2) is None
    dens = check_density({"0": "1", "a": "0", "b": "0"}, VEE, L2)
    assert dens.cd is None and dens.simple == ("1", {"1": "a"}) and not dens.agree


# -- enumeration caps ------------------------------------------------------------------

def test_every_downset_enumeration_reads_the_one_cap(monkeypatch):
    # L3 has 4 downsets, and the families of clause 3 (downsets of those) are 5.
    # A structure lists its downsets once, so each run gets a copy of L3 that
    # has not listed them yet.
    sup = join_sup(L3)
    alg = PseudoDAlgebra(L3.replace(), sup)
    monkeypatch.setattr("realcheck.poset.DOWNSET_CAP", 3)
    for run in (lambda: downset_opca(L3.replace()),
                lambda: check_star(PseudoDAlgebra(L3.replace(), sup)),
                lambda: check_pseudo_d_algebra(PseudoDAlgebra(L3.replace(), sup))):
        with pytest.raises(CapExceeded) as exc:
            run()
        assert str(exc.value) == "downsets of L3: 4 items exceeds cap 3"
    monkeypatch.setattr("realcheck.poset.DOWNSET_CAP", 4)
    assert check_star(alg) is not None and downset_opca(L3).elements
    with pytest.raises(CapExceeded) as exc:
        check_pseudo_d_algebra(alg)
    assert str(exc.value) == "double downsets of L3: 5 items exceeds cap 4"


def test_adjoint_enumeration_is_capped(monkeypatch):
    monkeypatch.setattr("realcheck.bco._ENUM_CAP", 26)
    ident = {a: a for a in L3.elements}
    with pytest.raises(CapExceeded) as exc:
        find_right_adjoint(ident, L3, L3)
    assert exc.value.count == 27
    monkeypatch.setattr("realcheck.bco._ENUM_CAP", 27)
    assert find_right_adjoint(ident, L3, L3) == ident
