from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realcheck.bco import FiniteBco, opca_to_bco
from realcheck.errors import CapExceeded, StructureError
from realcheck.formats import load_opca
from realcheck.lattices import chain, enumerate_lattices
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
