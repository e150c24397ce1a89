from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import realcheck
from realcheck.errors import CapExceeded, ConstructionError, StructureError
from realcheck.lattices import DIAMOND, L2, L3, VEE, chain, enumerate_lattices
from realcheck import aks as aksmod
from realcheck import bco as bcomod
from realcheck import opca as opcamod
from realcheck import terms
from realcheck.formats import load_opca
from realcheck.aks import build_aks
from realcheck.opca import (KIT_LEN_CAP, FiniteOpca, SequenceKit,
                            check_filter, check_opca_axioms, derive_sequence_kit,
                            seq_term, skk_element, turing_leq)
from realcheck.terms import PAIR, Const, _kit_program, _kit_terms, app, numeral, reduce_term

from conftest import FIXTURES, FUEL, STANDARD_OPCAS, read_numeral


# -- axiom checks ------------------------------------------------------------

def test_meet_semilattices_pass():
    for opca in STANDARD_OPCAS:
        rep = check_opca_axioms(opca)
        assert rep.passed, rep.render_text()


def test_one_element_opca_passes():
    one = FiniteOpca(elements=("e",), leq_pairs=frozenset(),
                     table={("e", "e"): "e"}, k="e", s="e", name="one")
    assert check_opca_axioms(one).passed


def test_missing_smaller_entry_fails_downward_compatibility():
    # L2 with app(0,1) deleted but app(1,1) defined
    table = dict(L2.table)
    del table[("0", "1")]
    broken = FiniteOpca(elements=L2.elements, leq_pairs=L2.leq_pairs,
                        table=table, k="1", s="1", name="broken")
    rep = check_opca_axioms(broken)
    rec = rep.record("app.downward_compatible")
    assert rec.verdict == "fail" and rec.counterexample is not None


def test_antisymmetry_failure_reported():
    cyclic = FiniteOpca(elements=("a", "b"),
                        leq_pairs=frozenset({("a", "b"), ("b", "a")}),
                        table={(x, y): "a" for x in ("a", "b") for y in ("a", "b")},
                        k="a", s="a", name="cyclic")
    assert cyclic.leq("a", "b") and cyclic.leq("b", "a")
    assert check_opca_axioms(cyclic).record("order.antisymmetric").verdict == "fail"


def test_table_entry_outside_carrier_is_input_error():
    with pytest.raises(StructureError):
        FiniteOpca(elements=("a",), leq_pairs=frozenset(),
                   table={("a", "a"): "zz"}, k="a", s="a")


def test_ks_search_flag():
    rep = check_opca_axioms(L3.replace(k="0", s="0"), search_ks=True)
    assert rep.record("k.law").verdict == "pass"  # any element works on a chain
    assert rep.record("ks.search").verdict == "pass"


# -- filters ------------------------------------------------------------------

def test_whole_carrier_is_a_filter():
    for opca in STANDARD_OPCAS:
        whole = frozenset(opca.elements)
        assert check_filter(opca.replace(filter=whole), whole).passed


def test_top_singleton_is_a_filter():
    assert check_filter(L3, frozenset({"1"})).passed


def test_subset_missing_s_fails():
    rep = check_filter(L3.replace(k="1", s="m"), frozenset({"1"}))
    assert rep.record("filter.has_s").verdict == "fail"


def test_non_closed_subset_fails():
    rep = check_filter(VEE, frozenset({"a", "b"}))  # a·b = bottom, outside
    assert rep.record("filter.app_closed").verdict == "fail"


# -- sequence kit -------------------------------------------------------------

def test_kit_derivation_verifies_all_clauses():
    for opca in (L2, L3, VEE, DIAMOND):
        derive_sequence_kit(opca, max_len=3)  # raises on any clause failure


def test_kit_requires_filter():
    bare = L2.replace(filter=None)
    with pytest.raises(StructureError):
        derive_sequence_kit(bare)


def test_kit_terms_land_in_filter():
    kit = derive_sequence_kit(L3, max_len=3)
    for term in (kit.b, kit.c, kit.d, kit.t):
        assert kit.element(term) in L3.filter


def test_sequence_value_is_the_meet_on_semilattices():
    # every combinator evaluates to the filter top, so a coded sequence
    # collapses to the meet of its entries
    kit = derive_sequence_kit(L3, max_len=3)
    meet = lambda xs: min(xs, key=("0", "m", "1").index, default="1")
    for seq in [(), ("m",), ("0", "1"), ("1", "m", "1")]:
        assert kit.seq_value(seq) == meet(list(seq))


def test_index_combinator_returns_meet_of_sequence():
    kit = derive_sequence_kit(L3, max_len=3)
    b = kit.element(kit.b)
    code = kit.seq_value(("1", "m", "1"))
    got = L3.app(L3.app(b, kit.numeral_value(1)), code)
    assert got == "m"  # the meet, and in particular <= the indexed entry


def test_singleton_clause_holds_for_every_element():
    kit = derive_sequence_kit(L3, max_len=3)
    t = kit.element(kit.t)
    for a in L3.elements:
        got = L3.app(t, a)
        assert got is not None and L3.leq(got, kit.seq_value((a,)))


def test_prepend_clause_on_empty_sequence():
    kit = derive_sequence_kit(L3, max_len=3)
    d = kit.element(kit.d)
    empty = kit.seq_value(())
    for a in L3.elements:
        da = L3.app(d, a)
        got = L3.app(da, empty)
        assert got is not None and L3.leq(got, kit.seq_value((a,)))


# -- folded codes against the term route ----------------------------------------

OUTSIDE = "zz"


@st.composite
def partial_opcas(draw):
    """Any application table on 2-4 elements, total or partial; no axioms."""
    els = tuple("abcd"[:draw(st.integers(min_value=2, max_value=4))])
    values = els if draw(st.booleans()) else els + (None,)
    table = {}
    for a in els:
        for b in els:
            c = draw(st.sampled_from(values))
            if c is not None:
                table[(a, b)] = c
    return FiniteOpca(elements=els, leq_pairs=frozenset(), table=table,
                      k=draw(st.sampled_from(els)), s=draw(st.sampled_from(els)),
                      name="random")


@given(partial_opcas(), st.data())
@settings(max_examples=100, deadline=None)
def test_arrow_reads_undefined_as_outside(opca, data):
    subsets = st.frozensets(st.sampled_from(opca.elements))
    alpha, beta = data.draw(subsets), data.draw(subsets)
    assert opca.arrow(alpha, beta) == frozenset(
        a for a in opca.elements
        if all(opca.app(a, b) is not None and opca.app(a, b) in beta for b in alpha))


def term_route(opca, term):
    try:
        value = opca.eval(term)
    except ValueError as e:
        return ("outside", str(e))
    return ("undefined",) if value is None else ("value", value)


def const_seq(elements):
    """The sequence term of the elements as ``Const`` leaves."""
    return seq_term([Const(e) for e in elements])


def kit_route(call, *args):
    try:
        return ("value", call(*args))
    except ConstructionError:
        return ("undefined",)
    except ValueError as e:
        return ("outside", str(e))


@given(partial_opcas(), st.data())
@settings(max_examples=300, deadline=None)
def test_folded_codes_match_term_evaluation_on_any_table(opca, data):
    # a kit built directly, so nothing is evaluated before the first call
    kit = SequenceKit(opca, 3)
    items = st.sampled_from(opca.elements + (OUTSIDE,))
    calls = data.draw(st.lists(
        st.one_of(st.lists(items, max_size=4).map(tuple),
                  st.integers(min_value=0, max_value=5)),
        min_size=1, max_size=8))
    for call in calls:
        if isinstance(call, int):
            assert kit_route(kit.numeral_value, call) == term_route(opca, numeral(call))
        else:
            assert kit_route(kit.seq_value, call) == term_route(opca, const_seq(call))


def test_an_item_outside_the_carrier_is_refused_before_the_fold():
    # p = a and numeral 1 = a, but a·a is undefined, so every one-item code is undefined
    pinned = FiniteOpca(elements=("a", "b", "c"), leq_pairs=frozenset(),
                        table={("a", "b"): "a", ("b", "a"): "c", ("b", "b"): "a",
                               ("b", "c"): "c", ("c", "a"): "a", ("c", "c"): "a"},
                        k="b", s="b", name="pinned")
    kit = SequenceKit(pinned, 1)
    assert (kit.element(PAIR), kit.numeral_value(1), pinned.app("a", "a")) == ("a", "a", None)
    with pytest.raises(ConstructionError, match="sequence code for \\['a'\\] undefined"):
        kit.seq_value(("a",))
    for seq in ((OUTSIDE,), ("a", OUTSIDE)):
        with pytest.raises(ValueError, match=f"constant '{OUTSIDE}' outside the carrier"):
            kit.seq_value(seq)
        assert term_route(pinned, const_seq(seq)) == \
            ("outside", f"constant '{OUTSIDE}' outside the carrier")


def test_a_long_sequence_gets_a_value_or_a_refusal():
    # numeral 1,200 is built from numeral 1,199 in a loop, not 1,200 calls deep
    kit = SequenceKit(L2, 3)
    try:
        value = kit.seq_value(["1"] * 1200)
    except (ConstructionError, CapExceeded):
        return
    assert value == "1"  # the meet of the items


def test_seq_value_builds_and_evaluates_no_terms(monkeypatch):
    # closed terms are built and compiled once per process, a kit once per opca
    build_aks(load_opca(str(FIXTURES / "l3.json"))[0], max_len=3)
    opca, _ = load_opca(str(FIXTURES / "l3.json"))
    calls = []

    def counting(fn):
        def wrapper(*args, **kw):
            calls.append((fn.__name__, args[0]))
            return fn(*args, **kw)
        return wrapper

    for fn in (terms.lam, terms.eval_in_opca):
        for module in (realcheck, terms, opcamod, aksmod, bcomod):
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting(fn))
    built = build_aks(opca, max_len=3)
    # the kit and the five distinguished terms run as compiled programs
    assert calls == []
    for length in range(4):
        for seq in product(opca.elements, repeat=length):
            built.kit.seq_value(seq)
    assert calls == []


# -- the shared program and the kit check against the term route ------------------

def test_kit_program_shares_every_subterm():
    program = _kit_program(3)
    roots, steps, outputs = program.roots, program.steps, program.outputs
    assert roots == (PAIR, *_kit_terms(3), *(numeral(n) for n in range(5)))
    # steps 0 and 1 are K and S, there are no slots, and every other step
    # applies two earlier ones
    assert program.slots == ()
    assert len(set(steps)) == len(steps) == 242
    assert all(fn < step and arg < step for step, (fn, arg) in enumerate(steps, 2))
    assert len(set(outputs)) == len(roots)


def outcome(call, *args):
    try:
        call(*args)
    except ConstructionError as e:
        return ("error", str(e))
    return ("pass",)


@given(partial_opcas(), st.integers(min_value=0, max_value=3))
@settings(max_examples=200, deadline=None)
def test_kit_program_matches_term_evaluation(opca, max_len):
    program = _kit_program(max_len)
    values = program.values(opca)
    for term, step in zip(program.roots, program.outputs):
        value = values[step]
        assert term_route(opca, term) == (("undefined",) if value is None else ("value", value))
    # and the kit hands out those values
    kit = SequenceKit(opca, max_len)
    for term in (PAIR, kit.b, kit.c, kit.d, kit.t):
        assert kit_route(kit.element, term) == term_route(opca, term)
    for n in range(max_len + 3):
        assert kit_route(kit.numeral_value, n) == term_route(opca, numeral(n))


def reference_verify_kit(kit):
    """The kit check as it was before the shared program and the code table,
    with every value taken by evaluating its term: the oracle for the order
    and the messages of ``derive_sequence_kit``'s errors."""
    opca = kit.opca

    def evaluated(term, message):
        value = opca.eval(term)
        if value is None:
            raise ConstructionError(message())
        return value

    b_el, c_el, d_el, t_el = (evaluated(t, lambda t=t: f"kit term undefined: {t!r}")
                              for t in (kit.b, kit.c, kit.d, kit.t))
    for label, el in (("b", b_el), ("c", c_el), ("d", d_el), ("t", t_el)):
        if el not in opca.filter:
            raise ConstructionError(f"kit term {label} evaluates outside the filter")
    nums = [evaluated(numeral(n), lambda n=n: f"numeral {n} undefined")
            for n in range(kit.max_len + 1)]

    code_cache = {}

    def code_of(seq):
        if seq not in code_cache:
            code_cache[seq] = evaluated(
                const_seq(seq), lambda: f"sequence code for {list(seq)!r} undefined")
        return code_cache[seq]

    def apply2(f, x, y, what):
        fxy = opca.app_app(f, (x, y))
        if fxy is None:
            raise ConstructionError(f"{what} undefined")
        return fxy

    for length in range(kit.max_len + 1):
        for seq in product(opca.elements, repeat=length):
            code = code_of(seq)
            for a in opca.elements:
                lhs = apply2(d_el, a, code, f"d·{a}·{list(seq)}")
                rhs = code_of((a,) + seq)
                if not opca.leq(lhs, rhs):
                    raise ConstructionError(f"clause (iii) fails at {a!r}, {list(seq)!r}")
            for n in range(length):
                lhs = apply2(b_el, nums[n], code, f"b·{n}·{list(seq)}")
                if not opca.leq(lhs, seq[n]):
                    raise ConstructionError(f"clause (i) fails at n={n}, {list(seq)!r}")
                lhs = apply2(c_el, nums[n], code, f"c·{n}·{list(seq)}")
                rhs = code_of(seq[n:])
                if not opca.leq(lhs, rhs):
                    raise ConstructionError(f"clause (ii) fails at n={n}, {list(seq)!r}")
    for a in opca.elements:
        ta = opca.app(t_el, a)
        if ta is None or not opca.leq(ta, code_of((a,))):
            raise ConstructionError(f"clause (iv) fails at {a!r}")


@st.composite
def kit_opcas(draw, bases=partial_opcas() | st.sampled_from((L2, L3, VEE, DIAMOND))):
    """Filtered opcas on which the kit check stops at every stage: one of
    ``bases`` (by default any table or a semilattice), with a few table
    entries deleted or redirected."""
    opca = draw(bases)
    table = dict(opca.table)
    for key in draw(st.lists(st.sampled_from(sorted(table)), max_size=3)) if table else ():
        value = draw(st.sampled_from(opca.elements + (None,)))
        if value is None:
            table.pop(key, None)
        else:
            table[key] = value
    whole = st.just(frozenset(opca.elements))
    subsets = st.frozensets(st.sampled_from(opca.elements), min_size=1)
    return opca.replace(table=table, filter=draw(whole | subsets))


def nearly_total(rows, k, s, leq=""):
    """A filtered opca on a, b, c whose table is ``rows``, "xyz" for x·y = z,
    and whose order is generated by ``leq``, "xy" for x <= y."""
    return FiniteOpca(elements=("a", "b", "c"), leq_pairs=frozenset(map(tuple, leq.split())),
                      table={(x, y): z for x, y, z in rows.split()}, k=k, s=s,
                      filter=frozenset("abc"), name="nearly total")


def assert_kit_check_matches_the_reference(opca, max_len):
    """Same error message as ``reference_verify_kit``, or both pass and the
    kit's stack codes are the folded codes of every carrier sequence of
    length <= max_len, each once, in order of first appearance."""
    reference = SequenceKit(opca, max_len)
    expected = outcome(reference_verify_kit, reference)
    assert outcome(derive_sequence_kit, opca, max_len) == expected
    if expected == ("pass",):
        codes = dict.fromkeys(reference.seq_value(seq) for length in range(max_len + 1)
                              for seq in product(opca.elements, repeat=length))
        assert derive_sequence_kit(opca, max_len).stack_codes == tuple(codes)


@given(kit_opcas(), st.integers(min_value=0, max_value=3))
# stages the generated tables seldom reach, found by a random search
@example(nearly_total("abb acb bab bbb bca cac cba ccc", "c", "b"), 2)  # numeral 1
@example(nearly_total("aab abc acc bac bba bcb cab ccc", "a", "a"), 2)  # sequence code for ['a']
@example(nearly_total("abb bac bbb bca cac cbc ccb", "b", "c", "ac bc ca cb"), 2)  # b·1, c·1
@example(nearly_total("aaa abb acb bbb bcb cac cbc cca", "c", "c", "ab ba bc ca cb"), 2)  # c·1
# the first failing sequence fails a clause whose states are checked after
# a failing state of another kind, or at a later n, whose first sequence is
# larger (found by a random search)
@example(nearly_total("aac abc aca bac bbc bcb cab cbb ccc", "b", "a", "cb"), 2)  # (i), not (iii)
@example(nearly_total("aaa aba acc bab bcc cac cbb", "a", "a", "ac bc"), 1)  # (i), not d·c
@example(nearly_total("aab abb aca bac bbc bca cab cbc ccb", "c", "a", "ab ba bc"), 3)  # (ii), not (iii)
@example(nearly_total("aac abc aca bab bbc bcc cac cba cca", "c", "a", "ba"), 1)  # (ii), not (i)
@example(nearly_total("aaa aba aca baa bbb bca cba cca", "b", "b", "ac"), 2)  # (i) at n=1, not n=0
@example(nearly_total("aaa aba aca bac bbc bcc caa cbc ccc", "c", "b", "ab ca"), 2)  # (ii) n=1, (i) n=0
@settings(max_examples=200, deadline=None)
def test_kit_check_matches_the_reference(opca, max_len):
    assert_kit_check_matches_the_reference(opca, max_len)


LATTICES = enumerate_lattices(5)  # the lattices of the krivine_sweep benchmark


@given(kit_opcas(st.sampled_from(LATTICES)), st.integers(min_value=0, max_value=4))
@settings(max_examples=100, deadline=None)
def test_kit_check_matches_the_reference_on_sweep_lattices(opca, max_len):
    assert_kit_check_matches_the_reference(opca, max_len)


class CountingTable(dict):
    """An application table that counts its reads."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_kit_check_reads_polynomially_many_entries():
    # a walk over every sequence makes 517,972 reads here, one over the
    # sequences' states 1,597
    opca = chain(5)
    table = CountingTable(opca.table)
    object.__setattr__(opca, "table", table)
    fresh_kit(opca, max_len=6)
    assert 0 < table.reads < 10_000


def test_build_aks_folds_no_sequence(monkeypatch):
    opca, _ = load_opca(str(FIXTURES / "l3.json"))

    def refuse(kit, elements):
        raise AssertionError(f"seq_value({elements!r}) during build_aks")

    monkeypatch.setattr(SequenceKit, "seq_value", refuse)
    built = build_aks(opca, max_len=3)
    assert set(built.kit.stack_codes) <= set(built.aks.stacks)



# -- the kits kept on the opca ----------------------------------------------------

def kit_outcome(kit_of, opca, max_len):
    """The error message of the kit that ``kit_of(opca, max_len)`` builds and
    checks, or its stack codes and the values of b, c, d and t."""
    try:
        kit = kit_of(opca, max_len)
    except ConstructionError as e:
        return ("error", str(e))
    return ("pass", kit.stack_codes, tuple(kit.element(t) for t in (kit.b, kit.c, kit.d, kit.t)))


def fresh_kit(opca, max_len):
    """A kit checked by ``_verify_kit`` on a new ``SequenceKit``, past the
    kits kept on the opca."""
    kit = SequenceKit(opca, max_len)
    object.__setattr__(kit, "stack_codes", opcamod._verify_kit(kit))
    return kit


def without_kits(opca):
    """An equal opca with no kit kept: a ``replace`` that sets a field the
    kit reads starts empty."""
    return opca.replace(filter=opca.filter)


# a total preorder: every element is below every other (found by a random search)
KEYED = nearly_total("aaa abb aca bab bbc bcb cac cbc cca", "b", "b", "ac ba cb")


@pytest.mark.parametrize("other, other_len", [
    (KEYED.replace(k="a"), 1),
    (KEYED.replace(s="a"), 1),
    (KEYED.replace(leq_pairs=frozenset()), 1),           # clause (iii) fails
    (KEYED.replace(filter=frozenset("ab")), 1),          # c evaluates outside
    (KEYED.replace(elements=("b", "a", "c")), 1),        # the codes come in another order
    (KEYED, 2),
], ids=["k", "s", "order", "filter", "carrier order", "max_len"])
def test_kit_memo_keys_on_everything_the_kit_reads(other, other_len):
    # the two share carrier, table and filter up to the one difference,
    # which changes the kit; in either call order each gets its own
    calls = [(KEYED, 1), (other, other_len)]
    assert kit_outcome(fresh_kit, *calls[0]) != kit_outcome(fresh_kit, *calls[1])
    for ordered in (calls, calls[::-1]):
        new = {}  # each opca without kits, once per order
        for opca, max_len in ordered:
            opca = new.setdefault(id(opca), without_kits(opca))
            assert kit_outcome(derive_sequence_kit, opca, max_len) == \
                kit_outcome(fresh_kit, opca, max_len)


def test_kit_is_shared_by_the_u_and_name_variants_of_an_opca():
    base = without_kits(L3)
    first = base.replace(U=frozenset({"0"}), name="first")
    kit = derive_sequence_kit(first, max_len=2)
    assert derive_sequence_kit(base.replace(name="second"), max_len=2) is kit
    assert derive_sequence_kit(base, max_len=2) is kit and kit.opca is first
    assert derive_sequence_kit(base, max_len=1) is not kit
    assert derive_sequence_kit(without_kits(base), max_len=2) is not kit


def test_failing_kit_check_is_made_again_with_the_same_error():
    opca = nearly_total("abb acb bab bbb bca cac cba ccc", "c", "b")  # numeral 1 undefined
    messages = []
    for _ in range(2):
        with pytest.raises(ConstructionError) as err:
            derive_sequence_kit(opca, max_len=2)
        messages.append(str(err.value))
    assert messages == [kit_outcome(fresh_kit, opca, 2)[1]] * 2
    assert opca._kits == {}


@pytest.mark.parametrize("max_len", [-1, 1.5, "2", None, True])
def test_kit_refuses_a_max_len_that_is_not_a_non_negative_int(max_len):
    opca = without_kits(L2)
    with pytest.raises(StructureError, match=f"got {max_len!r}$"):
        derive_sequence_kit(opca, max_len)
    with pytest.raises(StructureError, match=f"got {max_len!r}$"):
        build_aks(opca.replace(U=frozenset({"0"})), max_len=max_len)
    assert opca._kits == {}


def test_kit_refusals_come_before_the_memo():
    unfiltered, opca = L2.replace(filter=None), without_kits(L2)
    with pytest.raises(StructureError):
        derive_sequence_kit(unfiltered)
    with pytest.raises(CapExceeded):
        derive_sequence_kit(opca, KIT_LEN_CAP + 1)
    assert unfiltered._kits == opca._kits == {}

# -- term-model spot checks ----------------------------------------------------

@given(st.integers(min_value=0, max_value=2), st.data())
@settings(max_examples=25, deadline=None)
def test_kit_clauses_observationally_in_the_term_model(k_extra, data):
    kit = derive_sequence_kit(L3, max_len=3)
    length = k_extra + 1
    consts = [Const(f"c{i}") for i in range(length)]
    lterm = seq_term(consts)
    n = data.draw(st.integers(min_value=0, max_value=length - 1))
    # (i) indexing reaches the right constant
    assert reduce_term(app(kit.b, numeral(n), lterm), FUEL) == consts[n]
    # (ii) dropping: observe every entry and the length of the suffix
    suffix = app(kit.c, numeral(n), lterm)
    for j in range(length - n):
        assert reduce_term(app(kit.b, numeral(j), suffix), FUEL) == consts[n + j]
    assert read_numeral(app(kit.p0, suffix)) == length - n
    # (iii) prepending
    extended = app(kit.d, Const("z"), lterm)
    assert reduce_term(app(kit.b, numeral(0), extended), FUEL) == Const("z")
    assert read_numeral(app(kit.p0, extended)) == length + 1
    # (iv) singleton
    single = app(kit.t, Const("z"))
    assert reduce_term(app(kit.b, numeral(0), single), FUEL) == Const("z")
    assert read_numeral(app(kit.p0, single)) == 1


# -- Turing-style reducibility --------------------------------------------------

def test_every_element_reduces_to_itself_via_skk():
    for opca in (L2, L3, VEE):
        skk = skk_element(opca)
        for a in opca.elements:
            w = turing_leq(opca, a, a)
            assert w is not None
            assert opca.leq(opca.app(skk, a), a)


def test_order_reverses_into_reducibility():
    # a1 <= a2 makes a2 computable from a1 (the identity realizer shrinks)
    for opca in (L2, L3, DIAMOND):
        for (a1, a2) in opca.leq_pairs:
            assert turing_leq(opca, a2, a1) is not None


def test_reducibility_counterexample_on_l3():
    assert turing_leq(L3, "0", "m") is None


def test_turing_upward_closed_sets_are_downsets():
    for opca in (L2, L3, VEE):
        for mask in range(1 << len(opca.elements)):
            U = frozenset(e for i, e in enumerate(opca.elements) if mask >> i & 1)
            upward_closed = all(
                v in U
                for u in U for v in opca.elements
                if turing_leq(opca, u, v) is not None)
            if upward_closed:
                assert opca.is_downward_closed(U), sorted(U)
