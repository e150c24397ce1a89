"""The Booleanization searches against the routines they replaced.

``reference_d_predicate_leq`` is the filter loop that ``tripos._d_predicate_leq``
was before it read the realizers off ``FiniteOpca.arrow``, and
``reference_first_unstable`` the scan over every predicate of one index
size that ``check-tripos`` ran before ``tripos.first_unstable`` decided
every index size at once at the generic predicate.  ``first_unstable`` is
the reference at size 1 followed by the generic predicate, and when it
finds nothing, the reference finds nothing at any size.  Both are compared
on the opca fixtures that have a U, on the lattices up to 5 elements with
every admissible U, and on random partial tables with a downset U, where
``alpha -> U`` need not be downward closed.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realcheck import tripos
from realcheck.errors import InvariantViolation
from realcheck.formats import load_opca
from realcheck.lattices import enumerate_lattices
from realcheck.opca import FiniteOpca
from realcheck.tripos import Predicate, first_unstable

from conftest import FIXTURES

U_FIXTURES = ("diamond.json", "l2.json", "l3.json", "m3.json")


def reference_d_predicate_leq(phi, psi, opca):
    for r in opca.ordered(opca.filter):
        if all(opca.app(r, u) in psi(i) for i in phi.index for u in phi(i)):
            return r
    return None


def reference_first_unstable(opca, size):
    """The scan as ``check-tripos`` wrote it out, run with the reference
    realizer search; the first unstable predicate, or None."""
    downs = opca.downsets()
    index = tuple(f"i{n}" for n in range(size))
    preds = [Predicate(index, dict(zip(index, vals)))
             for vals in product(downs, repeat=size)]

    def unstable(phi):
        notnot = phi.map_values(lambda a: tripos.arrow_U(tripos.arrow_U(a, opca), opca))
        fwd = tripos.boolean_leq(phi, notnot, opca)
        back = tripos.boolean_leq(notnot, phi, opca)
        return not (fwd.holds and back.holds)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tripos, "_d_predicate_leq", reference_d_predicate_leq)
        return next((phi for phi in preds if unstable(phi)), None)


def outcome(search, *args):
    """The predicate found, as (index, assignment), or the InvariantViolation message."""
    try:
        phi = search(*args)
    except InvariantViolation as e:
        return ("refused", str(e))
    return None if phi is None else (phi.index, phi.assign)


def fixed(phi, opca):
    """Whether the Booleanization fixes ``phi``: both comparisons run, and
    either may raise."""
    notnot = phi.map_values(lambda a: tripos.arrow_U(tripos.arrow_U(a, opca), opca))
    fwd = tripos.boolean_leq(phi, notnot, opca)
    back = tripos.boolean_leq(notnot, phi, opca)
    return fwd.holds and back.holds


def generic_predicate(opca):
    downs = opca.downsets()
    index = tuple(f"i{n}" for n in range(len(downs)))
    return Predicate(index, dict(zip(index, downs)))


def agrees_with_the_reference(opca, size):
    """The new scan against the reference at ``size``: at size 1 it is the
    reference, then the generic predicate; at every size, a scan that finds
    nothing leaves the reference nothing to find."""
    found = outcome(first_unstable, opca)
    reference = outcome(reference_first_unstable, opca, size)
    if size == 1:
        generic = generic_predicate(opca)
        after = outcome(lambda: None if fixed(generic, opca) else generic)
        return found == (after if reference is None else reference)
    return found is not None or reference is None


@st.composite
def tables_with_U(draw):
    """A partial table on 2-4 elements under a random preorder, with a random
    filter and a U drawn from the downsets; no axioms hold in general."""
    els = tuple("abcd"[:draw(st.integers(min_value=2, max_value=4))])
    pairs = draw(st.frozensets(st.tuples(st.sampled_from(els), st.sampled_from(els))))
    table = {}
    for a in els:
        for b in els:
            c = draw(st.sampled_from(els + (None,)))
            if c is not None:
                table[(a, b)] = c
    opca = FiniteOpca(elements=els, leq_pairs=pairs, table=table,
                      k=draw(st.sampled_from(els)), s=draw(st.sampled_from(els)),
                      filter=draw(st.frozensets(st.sampled_from(els))), name="random")
    return opca.replace(U=draw(st.sampled_from(opca.downsets())))


def predicates(opca, size, values=None):
    """Predicates on i0..i(size-1) with values drawn from ``values`` (default:
    any subset of the carrier)."""
    values = st.sampled_from(values) if values else st.frozensets(st.sampled_from(opca.elements))
    index = tuple(f"i{n}" for n in range(size))
    return st.lists(values, min_size=size, max_size=size).map(
        lambda vals: Predicate(index, dict(zip(index, vals))))


LATTICE_CASES = [base.replace(U=U) for base in enumerate_lattices(5)
                 for U in base.downsets() if not U & base.filter]


@pytest.mark.parametrize("name", U_FIXTURES)
@pytest.mark.parametrize("size", [0, 1, 2])
def test_first_unstable_matches_the_cli_scan_on_the_fixtures(name, size):
    opca, _ = load_opca(FIXTURES / name)
    assert agrees_with_the_reference(opca, size)


@pytest.mark.parametrize("name", U_FIXTURES)
def test_realizers_match_the_filter_loop_on_the_fixtures(name):
    opca, _ = load_opca(FIXTURES / name)
    preds = [Predicate(("i0", "i1"), {"i0": a, "i1": b})
             for a, b in product(opca.downsets(), repeat=2)]
    for phi in preds:
        for psi in preds:
            assert tripos._d_predicate_leq(phi, psi, opca) \
                == reference_d_predicate_leq(phi, psi, opca)


def test_a_table_without_application_is_refused_alike():
    opca, _ = load_opca(FIXTURES / "l2.json")
    broken = opca.replace(table={})
    found = outcome(first_unstable, broken)
    assert found == outcome(reference_first_unstable, broken, 1)
    assert found[0] == "refused" and "contravariant=None double-negation='1'" in found[1]


def test_the_backward_comparison_runs_after_the_forward_one_fails():
    # phi = {"a"} is not fixed in the forward direction, and the backward
    # comparison then finds the two forms disagreeing: the scan refuses
    els = tuple("abcd")
    rows = ("a a d", "a b d", "a d c", "b a a", "b c d", "b d c", "c a b", "c b c",
            "c c c", "c d c", "d a a", "d b a", "d c a", "d d d")
    table = {(a, b): c for a, b, c in map(str.split, rows)}
    opca = FiniteOpca(elements=els, leq_pairs=frozenset(), table=table, k="a", s="a",
                      filter=frozenset("ad"), U=frozenset("ac"), name="random")
    found = outcome(first_unstable, opca)
    assert found == outcome(reference_first_unstable, opca, 1)
    assert found == ("refused", "Booleanization forms disagree on random: "
                                "contravariant='a' double-negation=None")


def test_a_predicate_fixed_only_forward_is_unstable():
    # phi = {} lies below its double negation but not above it
    table = {("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "b"}
    opca = FiniteOpca(elements=("a", "b"), leq_pairs=frozenset(), table=table, k="a", s="a",
                      filter=frozenset("b"), U=frozenset("a"), name="forward")
    phi = Predicate(("i0",), {"i0": frozenset()})
    notnot = phi.map_values(lambda a: tripos.arrow_U(tripos.arrow_U(a, opca), opca))
    assert tripos.boolean_leq(phi, notnot, opca).holds
    assert not tripos.boolean_leq(notnot, phi, opca).holds
    found = outcome(first_unstable, opca)
    assert found == outcome(reference_first_unstable, opca, 1) == (phi.index, phi.assign)


@given(tables_with_U(), st.integers(min_value=0, max_value=2), st.data())
@settings(max_examples=150, deadline=None)
def test_realizers_match_the_filter_loop_on_random_tables(opca, size, data):
    phi, psi = data.draw(predicates(opca, size)), data.draw(predicates(opca, size))
    assert tripos._d_predicate_leq(phi, psi, opca) == reference_d_predicate_leq(phi, psi, opca)


@given(tables_with_U(), st.integers(min_value=0, max_value=2))
@settings(max_examples=150, deadline=None)
def test_first_unstable_matches_the_cli_scan_on_random_tables(opca, size):
    assert agrees_with_the_reference(opca, size)


@given(tables_with_U(), st.integers(min_value=0, max_value=3), st.data())
@settings(max_examples=300, deadline=None)
def test_a_scan_that_finds_nothing_fixes_every_predicate(opca, size, data):
    # a table that is no opca can fail the scan in either way; only a scan
    # that finds nothing promises anything about the drawn predicate
    phi = data.draw(predicates(opca, size, opca.downsets()))
    if outcome(first_unstable, opca) is None:
        assert fixed(phi, opca)  # and neither comparison raised


def test_the_generic_predicate_finds_a_failure_no_single_downset_shows():
    # every single downset is fixed, but no one filter element realizes the
    # generic predicate uniformly.  The table is no opca (c·b is undefined),
    # so at size 2 the reference already meets predicates on which the two
    # Boolean forms disagree, and refuses
    rows = ("a a b", "a b a", "a c b", "b a a", "b b b", "b c b", "c a b", "c c c")
    opca = FiniteOpca(elements=tuple("abc"), leq_pairs=frozenset(),
                      table={(a, b): c for a, b, c in map(str.split, rows)}, k="a", s="a",
                      filter=frozenset("bc"), U=frozenset("c"), name="uniform")
    generic = generic_predicate(opca)
    assert outcome(reference_first_unstable, opca, 1) is None
    assert outcome(first_unstable, opca) == (generic.index, generic.assign)
    assert outcome(reference_first_unstable, opca, 2)[0] == "refused"


@pytest.mark.parametrize("opca", LATTICE_CASES + [load_opca(FIXTURES / name)[0]
                                                  for name in U_FIXTURES],
                         ids=lambda opca: f"{opca.name}/U={''.join(sorted(opca.U))}")
def test_every_index_size_is_fixed_on_the_lattices_and_the_fixtures(opca):
    assert first_unstable(opca) is None
    for size in (1, 2):
        assert reference_first_unstable(opca, size) is None
