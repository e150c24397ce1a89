import gc
import random
from itertools import combinations

import pytest

from realcheck import aks as aksmod
from realcheck.aks import (Aks, aks_apply, aks_imp, biorthogonal_closure,
                           build_aks, cc_element, check_aks, check_kr,
                           check_order_ca, closed_stack_sets, order_ca,
                           orthogonal_stacks, orthogonal_terms,
                           tv_least_of_aks)
from realcheck.errors import CapExceeded, StructureError
from realcheck.formats import aks_to_dict, load_aks, load_opca, save_aks
from realcheck.lattices import DIAMOND, L2, L3, chain, semilattice_opca
from realcheck.opca import SequenceKit, derive_sequence_kit, k_law, s_law

from conftest import FIXTURES
from test_golden import perfbench_modules
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


def test_build_aks_returns_the_opca_with_the_given_u():
    built = build_aks(L3, U={"0"})
    assert L3.U is None and built.opca.U == frozenset({"0"})
    assert built.opca.table == L3.table and built.opca.name == L3.name
    assert built.aks.name == "K(L3,U=['0'])"
    with_u = L3.replace(U=frozenset({"0", "m"}))
    assert build_aks(with_u).opca is with_u
    # the kit, and with it the frame, is the one of every U of the base
    assert build_aks(with_u).kit is built.kit is derive_sequence_kit(L3)


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


def sweep_and_fixture_order_cas():
    """(aks, its order-ca) for the 48 krivine_sweep structures and the aks fixtures."""
    workloads, _ = perfbench_modules()
    structures = [build_aks(case, max_len=3, U=case.U).aks for case in workloads.krivine_cases()]
    structures += [load_aks(path) for path in sorted(FIXTURES.glob("aks_*.json"))]
    assert len(structures) == 48 + 5
    return [(aks, order_ca(aks).opca) for aks in structures]


def test_order_ca_filters_are_upward_closed():
    # check_order_ca reports orderca.filter_upward_closed without a scan
    for aks, opca in sweep_and_fixture_order_cas():
        assert not [(a, b) for a in opca.filter for b in opca.elements
                    if opca.leq(a, b) and b not in opca.filter], aks.name


def test_the_full_stack_set_obeys_both_order_ca_laws():
    # it is the least closed set, and alpha·beta is full whenever alpha is,
    # so order_ca always finds a k/s pair
    for aks, opca in sweep_and_fixture_order_cas():
        full = frozenset(aks.stacks)
        assert k_law(opca, full) is None and s_law(opca, full) is None, aks.name


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
    # The memos are the frame's, shared by every U of the base; the cases are
    # built here, so they start from none.
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


# -- the frame every U of a base shares ------------------------------------------------

def answers(aks):
    """Every answer the structure gives: its fields, repr, saved form, pole
    records, closed sets, order-ca, (Kr), cc and the Pierce sets."""
    sets = closed_stack_sets(aks)
    oca = order_ca(aks).opca
    return {"fields": aks._values(), "repr": repr(aks), "saved": aks_to_dict(aks),
            "records": check_aks(aks).records, "sets": sets,
            "order_ca": (list(oca.elements), oca.table, oca.filter, oca.leq_pairs,
                         oca.k, oca.s, oca.name),
            "kr": check_kr(aks), "cc": cc_element(aks),
            "pierce": [aks_imp(aks, aks_imp(aks, aks_imp(aks, a, b), a), a)
                       for a in sets for b in sets]}


def fresh(aks):
    """The same structure through the public constructor, with a frame of its own."""
    return Aks(**{name: getattr(aks, name) for name in Aks._fields})


def assert_memos_are_raw(frame):
    for t, memo in enumerate(frame._pulls):
        for mask, out in memo.items():
            assert out == aksmod._pull(frame.push_index[t], mask)
    for (term_mask, stack_mask), out in frame._images.items():
        assert out == aksmod._image(frame.push_index, term_mask, stack_mask)


def test_no_answer_leaks_from_one_u_to_another():
    # every U of a base shares its frame's push memos; in any order of
    # building, a structure answers as one with a frame of its own does
    for seed in (1, 2, 3):
        cases = admissible_cases(5)  # new opcas, so new kits and frames
        order = random.Random(seed).sample(cases, len(cases))
        frames = {}
        for opca in order:
            for _ in range(2):
                built = build_aks(opca, max_len=3, U=opca.U)
                assert answers(built.aks) == answers(fresh(built.aks)), (seed, opca.name)
                frames[id(built.kit._frame)] = built.kit._frame
        assert len(frames) == 10  # one per base
        for frame in frames.values():
            assert_memos_are_raw(frame)


def kit_frame_memos():
    """The ids of the push memos of every kit frame alive."""
    return {id(memo) for kit in gc.get_objects()
            if isinstance(kit, SequenceKit) and kit._frame is not None
            for memo in (kit._frame._images, *kit._frame._pulls)}


def test_loaded_and_constructed_structures_keep_their_own_memos(tmp_path):
    built = build_aks(DIAMOND, U={"0"})
    save_aks(tmp_path / "k.json", built.aks)
    frame, want = built.kit._frame, answers(built.aks)
    for aks in (load_aks(tmp_path / "k.json"), fresh(built.aks)):
        assert not {id(aks._images), *map(id, aks._pulls)} & kit_frame_memos()
        before = (len(frame._images), [len(memo) for memo in frame._pulls])
        got = answers(aks)
        for key in ("saved", "sets", "kr", "cc", "pierce"):  # the others name the structure
            assert got[key] == want[key]
        assert [r._values()[1:] for r in got["records"]] == \
            [r._values()[1:] for r in want["records"]]
        assert (len(frame._images), [len(memo) for memo in frame._pulls]) == before


@pytest.mark.parametrize("first, second", [((0, 1), (False, True)), ((False, True), (0, 1))],
                         ids=["ints first", "bools first"])
def test_equal_carriers_of_other_types_keep_their_own_kits(tmp_path, first, second):
    # 0 == False and 1 == True, so the two chains have equal fields; in either
    # order, each structure holds its own chain's items and saves them as such
    for items in (first, second):
        built = build_aks(semilattice_opca(items, {items}), U={items[0]})
        aks = built.aks
        assert {type(x) for x in (*aks.terms, *aks.stacks, aks.K, aks.S, aks.cc)} == \
            {type(items[0])}
        save_aks(tmp_path / "k.json", aks)
        saved = (tmp_path / "k.json").read_text(encoding="utf-8")
        assert ("true" in saved and "false" in saved) == (type(items[0]) is bool)
