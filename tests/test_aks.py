from itertools import combinations

import pytest

from realcheck import aks as aksmod
from realcheck.aks import (Aks, aks_apply, aks_imp, biorthogonal_closure,
                           build_aks, cc_element, check_aks, check_kr,
                           check_order_ca, closed_stack_sets, order_ca,
                           orthogonal_stacks, orthogonal_terms,
                           tv_least_of_aks)
from realcheck.errors import CapExceeded, StructureError
from realcheck.formats import load_aks, load_opca
from realcheck.lattices import DIAMOND, L2, L3, chain

from conftest import FIXTURES
from test_lattices import admissible_cases


def l2_aks():
    return build_aks(L2, U={"0"}).aks


def all_stack_subsets(aks):
    out = []
    for r in range(len(aks.stacks) + 1):
        out.extend(frozenset(c) for c in combinations(aks.stacks, r))
    return out


# -- orthogonality ----------------------------------------------------------------

def test_empty_term_set_faces_every_stack():
    aks = l2_aks()
    assert orthogonal_stacks(aks, frozenset()) == frozenset(aks.stacks)


def test_closure_operator_laws():
    aks = l2_aks()
    for x in all_stack_subsets(aks):
        cx = biorthogonal_closure(aks, x)
        assert x <= cx
        assert biorthogonal_closure(aks, cx) == cx


def test_elements_outside_the_carrier_are_structure_errors():
    aks = l2_aks()
    with pytest.raises(StructureError, match="stack 'nope' outside the carrier"):
        orthogonal_terms(aks, frozenset({"nope"}))
    with pytest.raises(StructureError, match="term 'nope' outside the carrier"):
        orthogonal_stacks(aks, frozenset({"nope"}))
    with pytest.raises(StructureError, match="stack 'nope' outside the carrier"):
        aks_apply(aks, frozenset(aks.stacks), frozenset({"nope"}))


def test_orthogonality_antitone():
    aks = l2_aks()
    subsets = all_stack_subsets(aks)
    for x in subsets:
        for y in subsets:
            if x <= y:
                assert orthogonal_terms(aks, y) <= orthogonal_terms(aks, x)


# -- the construction ----------------------------------------------------------------

def test_l2_construction_shape():
    aks = l2_aks()
    assert set(aks.stacks) == {"0", "1"}  # sequence codes collapse to meets
    assert aks.qp == frozenset({"1"})
    assert aks.pole == frozenset({("0", "0"), ("0", "1"), ("1", "0")})


def test_built_fixtures_pass_the_pole_rules():
    for base, U in ((L2, {"0"}), (L3, {"0"}), (L3, {"0", "m"}),
                    (DIAMOND, {"0"}), (DIAMOND, {"0", "a"})):
        built = build_aks(base, U=U)
        rep = check_aks(built.aks)
        assert rep.passed, (base.name, sorted(U), rep.render_text())


def test_preconditions_reported_before_construction():
    with pytest.raises(StructureError):
        build_aks(L3, U={"m"})  # not downward closed
    with pytest.raises(StructureError):
        build_aks(L3, U={"0", "m", "1"})  # meets the filter
    with pytest.raises(StructureError):
        build_aks(L3.replace(filter=None), U={"0"})


def test_empty_pole_passes_vacuously():
    aks = load_aks(FIXTURES / "aks_point_empty.json")
    assert check_aks(aks).passed


def test_hand_built_fixture_files_are_valid():
    for name in ("aks_point_empty", "aks_point_full", "aks_mid0", "aks_mid1"):
        assert check_aks(load_aks(FIXTURES / f"{name}.json")).passed, name


def test_broken_pole_reports_the_tuple():
    rep = check_aks(load_aks(FIXTURES / "aks_broken.json"))
    rec = rep.record("aks.s2_K")
    assert rec.verdict == "fail" and rec.counterexample is not None


# -- stack-set application and implication --------------------------------------------

def test_application_with_empty_orthogonal_is_vacuous():
    # empty pole: the full stack set has no terms facing it, so the inner
    # set of the application is all of the stacks
    aks = load_aks(FIXTURES / "aks_point_empty.json")
    bottom = next(alpha for alpha in closed_stack_sets(aks)
                  if not orthogonal_terms(aks, alpha))
    got = aks_apply(aks, bottom, bottom)
    assert got == biorthogonal_closure(aks, frozenset(aks.stacks))


def test_application_table_is_closed_and_total():
    aks = l2_aks()
    sets = closed_stack_sets(aks)
    for alpha in sets:
        for beta in sets:
            out = aks_apply(aks, alpha, beta)
            assert out in sets


def test_pierce_law_realized_by_the_continuation_constant():
    for base, U in ((L2, {"0"}), (L3, {"0"}), (L3, {"0", "m"})):
        aks = build_aks(base, U=U).aks
        ccset = cc_element(aks)
        sets = closed_stack_sets(aks)
        for alpha in sets:
            for beta in sets:
                pierce = aks_imp(aks, aks_imp(aks, aks_imp(aks, alpha, beta), alpha),
                                 alpha)
                assert pierce <= ccset  # reverse inclusion: cc's element is below


# -- the induced order-ca ----------------------------------------------------------------

def test_order_ca_of_l2_passes_axioms_and_filter():
    _, rep = check_order_ca(l2_aks())
    assert rep.passed, rep.render_text()


def test_one_stack_aks_passes_trivially():
    for name in ("aks_point_empty", "aks_point_full"):
        _, rep = check_order_ca(load_aks(FIXTURES / f"{name}.json"))
        assert rep.passed, name


def test_filter_upward_closed_in_reverse_inclusion():
    oca, rep = check_order_ca(l2_aks())
    assert rep.record("orderca.filter_upward_closed").passed
    for alpha in oca.opca.filter:
        for beta in oca.opca.elements:
            if oca.opca.leq(alpha, beta):
                assert beta in oca.opca.filter


def test_seventeen_stacks_get_an_answer():
    # the cap counts closed sets, not the 2^17 stack subsets
    aks = build_aks(chain(17).replace(U=frozenset({"c0"})), max_len=1).aks
    assert len(aks.stacks) == 17
    assert closed_stack_sets(aks) == [frozenset({"c0"}), frozenset(aks.stacks)]
    _, rep = check_order_ca(aks)
    assert rep.passed, rep.render_text()


def test_small_cap_refuses_and_names_the_count(monkeypatch):
    opca, _ = load_opca(FIXTURES / "m3.json")
    aks = build_aks(opca).aks
    monkeypatch.setattr("realcheck.aks.CLOSED_SET_CAP", 7)
    for run in (closed_stack_sets, check_order_ca, tv_least_of_aks):
        with pytest.raises(CapExceeded) as exc:  # the enumeration stops at the 8th set
            run(aks)
        assert str(exc.value) == f"closed stack sets of {aks.name}: 8 items exceeds cap 7"
    monkeypatch.setattr("realcheck.aks.CLOSED_SET_CAP", 8)
    assert len(closed_stack_sets(aks)) == 8


def test_closed_sets_are_enumerated_once_per_structure(monkeypatch):
    aks = build_aks(DIAMOND, U={"0"}).aks
    first = closed_stack_sets(aks)
    monkeypatch.setattr(Aks, "close", None)  # a second enumeration would fail
    assert closed_stack_sets(aks) == first and len(first) == 4


def test_the_pole_rules_pull_each_pre_image_once(monkeypatch):
    # every six-element case has 6 terms and 6 stacks; this is the one with
    # the most pole pairs.  Pulling at every use, (S3) for each (t, s, u),
    # takes 348 to 383 raw runs per case; the kernel one per (term, mask).
    aks = max((build_aks(opca, max_len=3, U=opca.U).aks for opca in admissible_cases(6, 6)),
              key=lambda aks: len(aks.pole))
    assert (len(aks.terms), len(aks.stacks), len(aks.pole)) == (6, 6, 35)
    runs = []
    raw = aksmod._pull
    monkeypatch.setattr(aksmod, "_pull", lambda *args: runs.append(args) or raw(*args))
    assert check_aks(aks).passed
    assert 0 < len(runs) <= len(aks.terms) * len(aks.stacks)
    runs.clear()
    assert check_aks(aks).passed and runs == []


def most_closed_sets_case():
    """A fresh structure of the sweep case with the most closed stack sets."""
    opca = max(admissible_cases(5),
               key=lambda o: len(closed_stack_sets(build_aks(o, max_len=3, U=o.U).aks)))
    return build_aks(opca, max_len=3, U=opca.U).aks


def counting(monkeypatch, name, seen):
    """Record the last argument of each call of ``aksmod.<name>``."""
    raw = getattr(aksmod, name)
    monkeypatch.setattr(aksmod, name, lambda *args: seen.append(args[-1]) or raw(*args))


def test_the_order_ca_reads_each_closed_set_once(monkeypatch):
    # Closing each alpha again, or scanning beta's facing terms per pair,
    # would run the raw loops for each of the 64 pairs here.
    aks = most_closed_sets_case()
    listed, scans, closures, listing_closures = [], [], [], []
    enumerate_closed = aksmod.closed_masks

    def listing(*args):
        listed.extend(enumerate_closed(*args))
        listing_closures.extend(closures)
        closures.clear()
        return list(listed)

    monkeypatch.setattr(aksmod, "closed_masks", listing)
    counting(monkeypatch, "_facing", scans)
    counting(monkeypatch, "_close", closures)
    assert len(order_ca(aks).opca.elements) == len(listed) == 8
    assert len(scans) == len(set(scans)) <= len(listed)
    assert listing_closures and not set(closures) & set(listed)


def test_implication_on_closed_sets_converts_nothing(monkeypatch):
    aks, cold = most_closed_sets_case(), most_closed_sets_case()
    sets = closed_stack_sets(aks)
    conversions = []
    counting(monkeypatch, "_mask", conversions)
    counting(monkeypatch, "_items", conversions)
    for _ in range(2):
        pierce = [aks_imp(aks, aks_imp(aks, aks_imp(aks, a, b), a), a) for a in sets for b in sets]
        assert conversions == [] and len(pierce) == 64
    # with no table listed, both arguments and the result are converted
    assert aks_imp(cold, sets[1], sets[-1]) == aks_imp(aks, sets[1], sets[-1])
    assert len(conversions) == 3


# -- the forcing condition -----------------------------------------------------------------

def test_empty_everywhere_orthogonal_makes_kr_vacuous():
    aks = load_aks(FIXTURES / "aks_point_empty.json")
    assert orthogonal_terms(aks, frozenset(aks.stacks)) == frozenset()
    assert check_kr(aks) == "w"


def test_pruned_quasi_proofs_lose_the_witness():
    # not a lawful aks; exercises the search: the only everywhere-orthogonal
    # term is outside QP, so no quasi-proof can face the required stacks
    aks = Aks(terms=("w", "z"), stacks=("p0", "p1"),
              dot={(a, b): a for a in ("w", "z") for b in ("w", "z")},
              push={(a, p): "p1" for a in ("w", "z") for p in ("p0", "p1")},
              kof={"p0": "w", "p1": "w"}, K="z", S="z", cc="z",
              qp=frozenset({"z"}),
              pole=frozenset({("w", "p0"), ("w", "p1")}), name="pruned")
    assert orthogonal_terms(aks, frozenset(aks.stacks)) == frozenset({"w"})
    assert check_kr(aks) is None


def test_kr_agrees_with_least_truth_value_on_fixtures():
    subjects = [build_aks(L2, U={"0"}).aks,
                build_aks(L3, U={"0"}).aks,
                build_aks(L3, U={"0", "m"}).aks]
    subjects += [load_aks(FIXTURES / f"{n}.json")
                 for n in ("aks_point_empty", "aks_point_full",
                           "aks_mid0", "aks_mid1")]
    for aks in subjects:
        kr = check_kr(aks)
        least = tv_least_of_aks(aks)
        assert (kr is None) == (least is None), aks.name


def test_double_constant_discards_the_top_of_the_stack():
    for base, U in ((L2, {"0"}), (L3, {"0"})):
        aks = build_aks(base, U=U).aks
        kprime = aks.dot[(aks.K, aks.dot[(aks.dot[(aks.S, aks.K)], aks.K)])]
        for (t, pi) in aks.pole:
            for s in aks.terms:
                assert (kprime, aks.push[(s, aks.push[(t, pi)])]) in aks.pole
