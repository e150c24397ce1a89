"""Dialogues that hand query tuples to the k/s basis, checked against a
code-folding reference.

The reference folds every round's whole prefix into its Cantor code, and
its basis reads the code back through a lazy decoder.  Opaque elements
must see the same numbers, in the same order, either way.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realcheck import k2
from realcheck.k2 import (FuelExhausted, K2Element, apply_many, from_expr,
                          k2_basis, pair, unpair)

FUEL = 10 ** 5


# -- the code-folding reference ------------------------------------------------------

def ref_fold(items):
    if len(items) == 1:
        return items[0]
    mid = (len(items) + 1) // 2
    return pair(ref_fold(items[:mid]), ref_fold(items[mid:]))


class RefElement:
    """An element with an unbounded memo, fed codes only."""

    def __init__(self, fn, name):
        self.fn, self.name, self.memo = fn, name, {}

    def __call__(self, n):
        if n not in self.memo:
            self.memo[n] = self.fn(n)
        return self.memo[n]


class RefLazyView:
    def __init__(self, z):
        if z == 0:
            self.length, self.nodes = 0, {}
        else:
            rest, fold = unpair(z - 1)
            self.length = rest + 1
            self.nodes = {(0, self.length): fold}

    def item(self, i):
        lo, hi = 0, self.length
        code = self.nodes[(lo, hi)]
        while hi - lo > 1:
            mid = lo + (hi - lo + 1) // 2
            if (lo, mid) not in self.nodes:
                self.nodes[(lo, mid)], self.nodes[(mid, hi)] = unpair(code)
            lcode, rcode = self.nodes[(lo, mid)], self.nodes[(mid, hi)]
            if i < mid:
                hi, code = mid, lcode
            else:
                lo, code = mid, rcode
        return code


class RefNeedMore(Exception):
    def __init__(self, token):
        self.token = token


def ref_assoc_value(h, x):
    view = RefLazyView(x)
    if view.length == 0:
        return 0
    bound = view.length - 1
    token = object()

    def oracle(i):
        if i < bound:
            return view.item(i + 1)
        raise RefNeedMore(token)

    try:
        return h(oracle, view.item(0)) + 1
    except RefNeedMore as e:
        if e.token is token:
            return 0
        raise


def ref_dialogue(alpha, beta, n, fuel=None):
    query = [n]
    length = 0
    while fuel is None or length <= fuel:
        v = alpha(pair(length, ref_fold(query)) + 1)
        if v > 0:
            return v - 1
        if length != fuel:
            query.append(beta(length))
        length += 1
    return None


def ref_apply(alpha, beta, fuel):
    label = f"({alpha.name}·{beta.name})"

    def fn(n):
        v = ref_dialogue(alpha, beta, n, fuel)
        if v is None:
            raise FuelExhausted(f"{label} at {n} (fuel {fuel})")
        return v

    return RefElement(fn, label)


def ref_basis():
    def k_outer(a_or, n1):
        return ref_assoc_value(lambda b_or, n: a_or(n), n1)

    def s_level1(a_or, n1):
        def s_level2(b_or, n2):
            def s_level3(c_or, n):
                return ref_dialogue(lambda j: ref_dialogue(a_or, c_or, j),
                                    lambda j: ref_dialogue(b_or, c_or, j), n)

            return ref_assoc_value(s_level3, n2)

        return ref_assoc_value(s_level2, n1)

    return (RefElement(lambda x: ref_assoc_value(k_outer, x), "k"),
            RefElement(lambda x: ref_assoc_value(s_level1, x), "s"))


# -- random application trees ----------------------------------------------------------

EXPRESSIONS = ("0", "1", "n + 1", "2 + eq(n, 8)", "1 + eq(n, 4)", "lt(n, 3)", "n * 2")

leaves = st.one_of(
    st.just(("k",)), st.just(("s",)),
    st.tuples(st.just("table"), st.lists(st.integers(0, 3), min_size=1, max_size=6).map(tuple)),
    st.tuples(st.just("expr"), st.sampled_from(EXPRESSIONS)))
trees = st.recursive(leaves, lambda sub: st.tuples(st.just("app"), sub, sub), max_leaves=5)


def recorded(fn, seen):
    """``fn`` noting each distinct argument, in the order first asked."""
    def wrapped(x):
        assert isinstance(x, int), f"opaque function asked {x!r}"
        if x not in seen:
            seen[x] = None
        return fn(x)

    return wrapped


def table_fn(values):
    return lambda x: values[x % len(values)]


def build(tree, basis, leaf_fn, apply, fuel, seen):
    """The element a tree denotes; ``seen`` gets one dict per opaque leaf."""
    kind = tree[0]
    if kind == "app":
        return apply(build(tree[1], basis, leaf_fn, apply, fuel, seen),
                     build(tree[2], basis, leaf_fn, apply, fuel, seen), fuel)
    if kind in ("k", "s"):
        return basis[kind == "s"]
    fn = table_fn(tree[1]) if kind == "table" else from_expr(tree[1])
    seen.append({})
    return leaf_fn(recorded(fn, seen[-1]), f"{kind}{len(seen)}")


def outcomes(root, ns):
    out = []
    for n in ns:
        try:
            out.append(("value", root(n)))
        except FuelExhausted as e:
            out.append(("fuel", str(e)))
    return out


def both_sides(tree, fuel, ns):
    ref_seen, new_seen = [], []
    ref_root = build(tree, ref_basis(), RefElement, ref_apply, fuel, ref_seen)
    new_root = build(tree, k2_basis(), lambda fn, name: K2Element(fn, name=name),
                     k2.apply_elem, fuel, new_seen)
    ref_out, new_out = outcomes(ref_root, ns), outcomes(new_root, ns)
    return (ref_out, [list(s) for s in ref_seen]), (new_out, [list(s) for s in new_seen])


@given(trees, st.integers(0, 4), st.lists(st.integers(0, 3), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_item_dialogues_match_the_code_folding_reference(tree, fuel, ns):
    reference, change = both_sides(tree, fuel, ns)
    assert change == reference


@pytest.mark.parametrize("tree", [
    ("app", ("app", ("app", ("s",), ("k",)), ("k",)), ("table", (1, 0))),
    ("app", ("app", ("k",), ("expr", "n + 1")), ("table", (0, 2, 1))),
    ("app", ("app", ("app", ("s",), ("expr", "2 + eq(n, 8)")), ("expr", "1 + eq(n, 4)")),
     ("expr", "n + 1")),
], ids=["skka", "kab", "s-law"])
def test_named_trees_match_the_reference_at_larger_fuel(tree):
    reference, change = both_sides(tree, 40, range(3))
    assert change == reference


# -- rounds of s's own computation ----------------------------------------------------

def counting_s():
    """s from the basis, and a list noting each run of its level-1 computation."""
    _, s = k2_basis()
    runs, level1 = [], s.h

    def counted(a_or, n1):
        runs.append(n1)
        return level1(a_or, n1)

    s.h = counted
    return s, runs


# s·a·b·c at n; a dialogue asking s at every prefix length runs it 1,598 and 437 times
S_PROBES = {
    "s-law": ((("expr", "2 + eq(n, 8)"), ("expr", "1 + eq(n, 4)"), ("expr", "n + 1")), 9),
    "table": ((("table", (2, 3, 4, 5)), ("table", (1, 2, 3)), ("table", (0, 2))), 6),
}


@pytest.mark.parametrize("name", S_PROBES)
def test_a_dialogue_asks_s_once_per_position_it_reads(name):
    (a, b, c), n = S_PROBES[name]
    s, runs = counting_s()
    tree = ("app", ("app", ("app", ("s",), a), b), c)
    value = build(tree, (None, s), lambda fn, name: K2Element(fn, name=name),
                  k2.apply_elem, FUEL, [])(n)
    assert len(runs) <= 4
    # a answers at once, so the s law holds: the reference's (a·c)·(b·c)
    rhs = ("app", ("app", a, c), ("app", b, c))
    assert value == build(rhs, ref_basis(), RefElement, ref_apply, FUEL, [])(n)


# -- what gets encoded -------------------------------------------------------------------

@pytest.fixture
def encoded_lengths(monkeypatch):
    lengths = []
    encode = k2.encode_seq

    def noted(seq):
        seq = list(seq)
        lengths.append(len(seq))
        return encode(seq)

    monkeypatch.setattr(k2, "encode_seq", noted)
    return lengths


def test_s_law_probe_encodes_only_short_sequences(encoded_lengths):
    _, s = k2_basis()
    alpha = from_expr("2 + eq(n, 8)")
    beta = from_expr("1 + eq(n, 4)")
    gamma = from_expr("n + 1")
    lhs = apply_many(FUEL, s, alpha, beta, gamma)
    rhs = apply_many(FUEL, apply_many(FUEL, alpha, gamma), apply_many(FUEL, beta, gamma))
    for n in range(10):
        assert lhs(n) == rhs(n)
    assert encoded_lengths and max(encoded_lengths) <= 3


def test_skka_at_one_encodes_only_short_sequences(encoded_lengths):
    k, s = k2_basis()
    alpha = K2Element(lambda n: (n * 7 + 1) % 2, name="alpha01")
    assert apply_many(FUEL, s, k, k, alpha)(1) == alpha(1)
    assert encoded_lengths and max(encoded_lengths) <= 3


def test_opaque_elements_get_the_code_of_a_nested_query():
    asked = []
    alpha = K2Element(lambda x: asked.append(x) or 1, name="alpha")
    assert alpha(((5, 2), 7)) == 1
    assert asked == [k2.encode_seq([k2.encode_seq([5, 2]), 7])]


# -- the memo bound ----------------------------------------------------------------------

def test_memo_stops_growing_at_its_cap():
    calls = []

    def fn(n):
        calls.append(n)
        return math.isqrt(n) % 5

    elem = K2Element(fn, name="root")
    queries = range(2000)
    assert [elem(n) for n in queries] == [fn(n) for n in queries]
    assert sorted(elem._memo) == list(range(k2._MEMO_CAP))
    calls.clear()
    assert [elem(n) for n in queries] == [math.isqrt(n) % 5 for n in queries]
    assert calls == list(range(k2._MEMO_CAP, 2000))  # only the unstored ones rerun
