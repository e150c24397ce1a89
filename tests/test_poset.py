import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realcheck.bco import FiniteBco, opca_to_bco
from realcheck.errors import CapExceeded, StructureError
from realcheck.formats import load_opca
from realcheck.lattices import L3, VEE, chain, enumerate_lattices, semilattice_opca
from realcheck.opca import FiniteOpca
from realcheck.poset import Poset, downsets_of_poset, reflexive_transitive_closure

from conftest import FIXTURES, STANDARD_OPCAS

OPCA_FILES = ("diamond", "l2", "l3", "m3", "vee")

# a ~ b form an order cycle, c sits below both, d is incomparable to all
PREORDER = Poset(("a", "b", "c", "d"),
                 frozenset({("a", "b"), ("b", "a"), ("c", "a")}))


def brute_downsets(poset):
    """Reference: every subset of the carrier by bitmask, kept when closed."""
    els = poset.elements
    out = []
    for mask in range(1 << len(els)):
        sub = frozenset(e for i, e in enumerate(els) if mask >> i & 1)
        if all(b in sub for a in sub for b in els if (b, a) in poset.leq_pairs):
            out.append(sub)
    return sorted(out, key=lambda d: (len(d), sorted(els.index(e) for e in d)))


def reference_downsets(elements, leq, cap=1 << 16, what="downsets"):
    """Reference: the recursive class walk that listed downsets before
    NextClosure.  Elements below each other form one class, taken or left
    whole; classes are visited by increasing down-set size."""
    elements = list(elements)
    below = {e: [x for x in elements if leq(x, e)] for e in elements}
    classes, seen = [], set()
    for e in sorted(elements, key=lambda e: len(below[e])):
        if e not in seen:
            members = [x for x in below[e] if leq(e, x)]
            seen.update(members)
            classes.append((members, [x for x in below[e] if x not in members]))
    out = []

    def extend(i, current):
        if i == len(classes):
            out.append(frozenset(current))
            if len(out) > cap:
                raise CapExceeded(what, len(out), cap)
            return
        members, strictly_below = classes[i]
        extend(i + 1, current)
        if all(x in current for x in strictly_below):
            current.update(members)
            extend(i + 1, current)
            current.difference_update(members)

    extend(0, set())
    index = {e: i for i, e in enumerate(elements)}
    return sorted(out, key=lambda d: (len(d), tuple(sorted(index[e] for e in d))))


@st.composite
def preorders(draw):
    """A random relation on up to 8 elements, closed reflexively and
    transitively, so order cycles occur."""
    n = draw(st.integers(0, 8))
    els = tuple(f"x{i}" for i in range(n))
    pairs = draw(st.sets(st.tuples(st.sampled_from(els), st.sampled_from(els)),
                         max_size=2 * n) if n else st.just(set()))
    return Poset(els, frozenset(pairs))


def capped_downsets(elements, leq, cap, what):
    """``downsets_of_poset`` with its cap, ``poset.DOWNSET_CAP``, set to ``cap``."""
    with mock.patch("realcheck.poset.DOWNSET_CAP", cap):
        return downsets_of_poset(elements, leq, what=what)


def cap_message(enumerate_, *args, cap):
    with pytest.raises(CapExceeded) as info:
        enumerate_(*args, cap=cap, what="sets of P")
    return str(info.value)


@given(preorders(), st.data())
@settings(max_examples=200, deadline=None)
def test_downsets_match_the_recursive_walk(poset, data):
    leq = poset.leq
    want = reference_downsets(poset.elements, leq)
    assert downsets_of_poset(poset.elements, leq) == want
    cap = data.draw(st.integers(0, len(want) - 1))
    assert (cap_message(capped_downsets, poset.elements, leq, cap=cap)
            == cap_message(reference_downsets, poset.elements, leq, cap=cap)
            == f"sets of P: {cap + 1} items exceeds cap {cap}")
    if len(want) > 16:  # more downsets have too many families to list here
        return
    # the families case of check_pseudo_d_algebra: downsets of the downsets
    families = reference_downsets(want, frozenset.__le__)
    assert downsets_of_poset(want, frozenset.__le__) == families
    cap = data.draw(st.integers(0, len(families) - 1))
    assert (cap_message(capped_downsets, want, frozenset.__le__, cap=cap)
            == cap_message(reference_downsets, want, frozenset.__le__, cap=cap))


def posets_under_test():
    yield PREORDER
    yield Poset(("x", "y", "z"), frozenset({("x", "y"), ("y", "z"), ("z", "x")}))
    yield from STANDARD_OPCAS
    for name in OPCA_FILES:
        yield load_opca(FIXTURES / f"{name}.json")[0]
    yield from enumerate_lattices(4)


@pytest.mark.parametrize("poset", list(posets_under_test()),
                         ids=lambda p: p.name if p.name != "poset" else str(p.elements))
def test_downsets_match_brute_force(poset):
    downs = poset.downsets()
    assert downs == brute_downsets(poset)
    assert downs == reference_downsets(poset.elements, poset.leq)
    assert (downsets_of_poset(downs, frozenset.__le__)
            == reference_downsets(downs, frozenset.__le__))


@pytest.mark.parametrize("poset", list(posets_under_test()),
                         ids=lambda p: p.name if p.name != "poset" else str(p.elements))
def test_closed_downsets_are_the_lower_bounds_of_the_subsets(poset):
    els, leq = poset.elements, poset.leq_pairs
    subsets = [frozenset(e for i, e in enumerate(els) if mask >> i & 1)
               for mask in range(1 << len(els))]
    for sub in subsets:
        assert poset.lower(sub) == {x for x in els if all((x, a) in leq for a in sub)}
        assert poset.upper(sub) == {x for x in els if all((a, x) in leq for a in sub)}
    lowers = {poset.lower(sub) for sub in subsets}
    assert poset.closed_downsets() == [d for d in poset.downsets() if d in lowers]


def test_preorder_downsets_keep_order_cycles():
    got = PREORDER.downsets()
    assert frozenset({"a", "b"}) not in got  # c is below a
    assert frozenset({"a", "b", "c"}) in got
    assert [set(d) for d in got[:3]] == [set(), {"c"}, {"d"}]
    opca = FiniteOpca(elements=("a", "b", "c"),
                      leq_pairs=frozenset({("a", "b"), ("b", "a")}),
                      table={}, k="a", s="a")
    assert opca.downsets() == [frozenset(), frozenset({"c"}), frozenset({"a", "b"}),
                               frozenset({"a", "b", "c"})]


def test_bco_and_opca_downsets_agree():
    for opca in STANDARD_OPCAS:
        assert opca_to_bco(opca).downsets() == opca.downsets()


def test_opca_downsets_refuse_above_the_cap():
    els = tuple(f"e{i}" for i in range(17))
    antichain = FiniteOpca(elements=els, leq_pairs=frozenset(), table={}, k="e0", s="e0")
    with pytest.raises(CapExceeded):
        antichain.downsets()


@pytest.mark.parametrize("poset", list(posets_under_test()),
                         ids=lambda p: p.name if p.name != "poset" else str(p.elements))
def test_an_undefined_application_is_below_and_above_nothing(poset):
    # the checks read leq(app(a, b), c) with no None guard of their own
    for x in poset.elements:
        assert not poset.leq(None, x) and not poset.leq(x, None)
    assert not poset.leq(None, None)


def test_closure_is_reflexive_and_transitive():
    closed = reflexive_transitive_closure(("a", "b", "c", "d"),
                                          {("a", "b"), ("b", "c"), ("c", "a")})
    assert {(x, y) for x in "abc" for y in "abc"} <= closed
    assert ("d", "d") in closed and not any(("d", x) in closed for x in "abc")
    assert chain(5).leq("c0", "c4")


@given(preorders())
@settings(max_examples=200, deadline=None)
def test_every_poset_order_is_reflexive_and_transitive(poset):
    # check_opca_axioms reports order.reflexive and order.transitive unscanned
    leq, els = poset.leq_pairs, poset.elements
    assert all((a, a) in leq for a in els)
    assert all((a, c) in leq for a, b in leq for b2, c in leq if b == b2)


def test_least_and_greatest_follow_carrier_order():
    l3 = STANDARD_OPCAS[1]
    assert l3.least(l3.element_set) == "0" and l3.greatest(l3.element_set) == "1"
    assert PREORDER.greatest({"a", "b", "c"}) == "a"  # a and b tie; a comes first
    assert PREORDER.least({"c", "d"}) is None
    assert l3.meet("0", "1") == "0" and l3.meet("m", "1") == "m"
    assert PREORDER.meet("a", "b") == "a" and PREORDER.meet("a", "d") is None
    assert PREORDER.lower({"a"}) == {"a", "b", "c"} and PREORDER.upper({"c"}) == {"a", "b", "c"}
    assert PREORDER.lower(()) == PREORDER.element_set and PREORDER.upper({"c", "d"}) == set()


def test_bco_gets_the_carrier_checks():
    with pytest.raises(StructureError, match="duplicate"):
        FiniteBco(elements=("x", "x"), leq_pairs=frozenset(), functions={})
    with pytest.raises(StructureError, match="leq entry"):
        FiniteBco(elements=("x",), leq_pairs=frozenset({("x", "y")}), functions={})


def test_null_is_no_element():
    # None is what app/apply return for an undefined application
    with pytest.raises(StructureError, match="null"):
        FiniteBco(elements=(None, "x"), leq_pairs=frozenset(),
                  functions={"i": {None: None, "x": "x"}})
    with pytest.raises(StructureError, match="null"):
        FiniteOpca(elements=(None,), leq_pairs=frozenset(), table={}, k=None, s=None)


def test_one_check_tripos_lists_the_carrier_downsets_once(monkeypatch, capsys):
    from realcheck import cli, poset
    listed = []

    def counting(elements, leq, what="downsets"):
        listed.append(what)
        return downsets_of_poset(elements, leq, what)

    monkeypatch.setattr(poset, "downsets_of_poset", counting)
    path = str(FIXTURES / "l3.json")
    assert cli.main(["--format", "machine", "check-tripos", path]) == 0
    assert listed == [f"downsets of {path}"]
    assert '"predicates": 4' in capsys.readouterr().out


def test_a_caller_cannot_change_the_kept_downsets():
    opca = chain(3)
    downs = opca.downsets()
    downs.clear()
    assert len(opca.downsets()) == 4


# -- tracking: the realizer masks against the scan they replaced ----------

def reference_tracker(poset, candidates, apply, pairs):
    """Reference for ``Poset.tracker``: the scan it replaced.  First g in
    ``candidates`` with apply(g, x) defined (not None) and <= y for every
    (x, y) in ``pairs``, else None.  ``pairs`` is iterated once per candidate."""
    leq = poset.leq_pairs
    for g in candidates:
        if all((gx := apply(g, x)) is not None and (gx, y) in leq for x, y in pairs):
            return g
    return None


def reference_track(structure, pairs, pin=None, twice=False):
    """What ``track`` searched before the masks: a BCO's functions in insertion
    order; an opca's filter (only ``pin``, if given) in carrier order, by g·x,
    or by (g·x1)·x2 for x = (x1, x2) when ``twice``."""
    if isinstance(structure, FiniteBco):
        return reference_tracker(structure, structure.functions, structure.apply, pairs)
    pool = structure.ordered(structure.filter if pin is None else structure.filter & {pin})
    apply = structure.app_app if twice else structure.app
    return reference_tracker(structure, pool, apply, pairs)


@st.composite
def tracking_structures(draw):
    """A relation on 1-4 elements closed to a preorder (so ties occur), with a
    BCO of at most three partial functions and an opca with a partial table and
    a filter that may be empty, both on that preorder."""
    els = tuple(f"x{i}" for i in range(draw(st.integers(1, 4))))
    el = st.sampled_from(els)
    leq = frozenset(draw(st.sets(st.tuples(el, el), max_size=2 * len(els))))
    functions = draw(st.lists(st.dictionaries(el, el), max_size=3))
    bco = FiniteBco(els, leq, {f"f{i}": f for i, f in enumerate(functions)})
    opca = FiniteOpca(els, leq, draw(st.dictionaries(st.tuples(el, el), el)),
                      k=els[0], s=els[0], filter=draw(st.frozensets(el)))
    return bco, opca


@given(tracking_structures(), st.data())
@settings(max_examples=300, deadline=None)
def test_track_finds_the_first_witness_of_the_reference_scan(structures, data):
    bco, opca = structures
    el = st.sampled_from(bco.elements)
    for _ in range(data.draw(st.integers(1, 8))):  # later calls read earlier masks
        kind = data.draw(st.sampled_from(["bco", "opca", "twice"]))
        x = st.tuples(el, el) if kind == "twice" else el
        pairs = data.draw(st.lists(st.tuples(x, el), max_size=5))
        if kind == "bco":
            assert bco.track(pairs) == reference_track(bco, pairs)
        else:
            pin, twice = data.draw(st.none() | el), kind == "twice"
            assert opca.track(pairs, pin, twice) == reference_track(opca, pairs, pin, twice)


def test_structures_with_equal_fields_keep_their_own_masks():
    # the chains on 0 < 1 and on False < True compare equal field by field
    ints = semilattice_opca((0, 1), {(0, 1)}, name="chain")
    bools = semilattice_opca((False, True), {(False, True)}, name="chain")
    assert ints.elements == bools.elements and ints.table == bools.table
    assert ints.track([(1, 1)]) == 1 and opca_to_bco(ints).track([(1, 1)]) == "ap[1]"
    assert ints._masks and bools._masks == {} and opca_to_bco(bools)._masks == {}
    assert bools.track([(True, True)]) is True
    assert opca_to_bco(bools).track([(True, True)]) == "ap[True]"


@pytest.mark.parametrize("l3_first", [True, False], ids=["L3 first", "L3mf first"])
def test_a_filter_replace_starts_with_empty_masks(l3_first):
    l3 = semilattice_opca(("0", "m", "1"), {("0", "m"), ("m", "1")}, name="L3")
    if l3_first:
        assert l3.track([("1", "m")]) is None  # the filter is {1}, and 1·1 = 1
    l3mf = l3.replace(filter=frozenset({"m", "1"}), name="L3mf")
    assert l3mf._masks == {}
    assert l3mf.track([("1", "m")]) == "m"  # m·1 = m
    assert l3.track([("1", "m")]) is None


def test_u_and_name_variants_track_as_their_base():
    base = semilattice_opca(("0", "m", "1"), {("0", "m"), ("m", "1")},
                            filter={"m", "1"}, name="L3mf")
    pair_lists = [[(x, y)] for x in base.elements for y in base.elements]
    want = [reference_track(base, p) for p in pair_lists]
    assert set(want) == {None, "m"}  # m·x <= x, so "1" is never first
    variants = [base.replace(U=frozenset({"0"})), base.replace(name="other"),
                base.replace(U=frozenset({"0", "m"}), name="other")]
    assert [variants[0].track(p) for p in pair_lists] == want  # before the base tracks
    assert [base.track(p) for p in pair_lists] == want
    for variant in variants:
        assert [variant.track(p) for p in pair_lists] == want


@pytest.mark.parametrize("twice_first", [False, True], ids=["g·x first", "(g·x1)·x2 first"])
def test_the_two_applications_of_an_opca_keep_their_own_masks(twice_first):
    # the pair ("a", "b") is an element too, so both applications see one key
    ab = ("a", "b")
    opca = FiniteOpca(elements=("g", "h", "a", "b", ab, "lo", "hi"),
                      leq_pairs=frozenset({("lo", "hi")}),
                      table={("g", ab): "lo", ("g", "a"): "h", ("h", "b"): "hi"},
                      k="g", s="g", filter=frozenset({"g"}))
    calls = [(False, "g"), (True, None)]  # g·(a, b) = lo, (g·a)·b = hi, not below lo
    for twice, want in reversed(calls) if twice_first else calls:
        assert opca.track([(ab, "lo")], twice=twice) == want


def tracking_views():
    """New opcas (the morphism fixtures of the benchmark) and their BCO views."""
    opcas = [*enumerate_lattices(3), VEE.replace(name="vee"),
             L3.replace(filter=frozenset({"m", "1"}), name="L3mf")]
    return [view for opca in opcas for view in (opca, opca_to_bco(opca))]


def tracking_calls(views):
    """(view index, pairs, pin, twice) for single pairs, the unit and top pair
    lists of the meet search, and for opcas pinned and two-argument tracking."""
    out = []
    for i, view in enumerate(views):
        els = view.elements
        lists = [[(x, y)] for x in els for y in els] + [[(a, a) for a in els]]
        lists += [[(a, top) for a in els] for top in els]
        out += [(i, pairs, None, False) for pairs in lists]
        if isinstance(view, FiniteOpca):
            out += [(i, pairs, pin, False) for pairs in lists for pin in view.elements]
            out += [(i, [((a, b), c)], None, True) for a in els for b in els for c in els]
            out += [(i, [((a, b), a) for a in els for b in els], pin, True) for pin in els]
    return out


def run_calls(views, calls):
    return [views[i].track(pairs) if isinstance(views[i], FiniteBco)
            else views[i].track(pairs, pin, twice) for i, pairs, pin, twice in calls]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_order_of_tracking_calls_changes_no_answer(seed):
    views = tracking_views()
    calls = tracking_calls(views)
    want = [reference_track(views[i], pairs, pin, twice) for i, pairs, pin, twice in calls]
    assert run_calls(views, calls) == want
    order = list(range(len(calls)))
    random.Random(seed).shuffle(order)
    shuffled = dict(zip(order, run_calls(tracking_views(), [calls[j] for j in order])))
    assert [shuffled[j] for j in range(len(calls))] == want
