"""The bit-row orthogonality layer against the frozenset definitions.

The reference routines below scan (term, stack) pairs through ``in_pole``,
as the definitions read: orthogonals, closure, every closed set by closing
every subset, application, implication, (Kr), the Streicher preorder and the
five pole rules with their first counterexamples.  They are compared with
the library on random structures (random tables and poles, so the rules
mostly fail), on every fixture and on every benchmark Krivine structure.
"""

from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from realcheck.aks import (Aks, aks_apply, aks_imp, biorthogonal_closure,
                           build_aks, cc_element, check_aks, check_kr,
                           closed_stack_sets, order_ca, orthogonal_stacks,
                           orthogonal_terms)
from realcheck.errors import ConstructionError
from realcheck.formats import aks_to_dict, load_aks, load_opca
from realcheck.tripos import Predicate, streicher_leq

from conftest import FIXTURES
from test_golden import perfbench_modules

# -- the reference: frozensets of pairs ---------------------------------------------


def ref_orthogonal_stacks(aks, term_subset):
    return frozenset(pi for pi in aks.stacks
                     if all(aks.in_pole(t, pi) for t in term_subset))


def ref_orthogonal_terms(aks, stack_subset):
    return frozenset(t for t in aks.terms
                     if all(aks.in_pole(t, pi) for pi in stack_subset))


def ref_closure(aks, subset):
    return ref_orthogonal_stacks(aks, ref_orthogonal_terms(aks, subset))


def ref_closed_stack_sets(aks):
    index = {pi: i for i, pi in enumerate(aks.stacks)}
    out = {ref_closure(aks, frozenset(sub))
           for size in range(len(aks.stacks) + 1)
           for sub in combinations(aks.stacks, size)}
    return sorted(out, key=lambda s: (len(s), tuple(sorted(index[pi] for pi in s))))


def ref_apply(aks, alpha, beta):
    ta = ref_orthogonal_terms(aks, alpha)
    tb = ref_orthogonal_terms(aks, beta)
    base = frozenset(pi for pi in aks.stacks
                     if all(aks.in_pole(t, aks.app_push(s, pi)) for t in ta for s in tb))
    return ref_closure(aks, base)


def ref_imp(aks, alpha, beta):
    ta = ref_orthogonal_terms(aks, alpha)
    return ref_closure(aks, frozenset(aks.app_push(t, pi) for t in ta for pi in beta))


def ref_kr(aks):
    everywhere = ref_orthogonal_terms(aks, frozenset(aks.stacks))
    return next((a for a in aks.terms if a in aks.qp
                 and all(aks.in_pole(a, aks.app_push(t, aks.app_push(s, pi)))
                         and aks.in_pole(a, aks.app_push(s, aks.app_push(t, pi)))
                         for s in everywhere for t in aks.terms for pi in aks.stacks)), None)


def ref_streicher_leq(phi, psi, aks):
    return next((t for t in aks.terms if t in aks.qp
                 and all(aks.in_pole(t, aks.app_push(u, pi))
                         for i in phi.index
                         for u in ref_orthogonal_terms(aks, phi(i))
                         for pi in psi(i))), None)


def ref_pole_rules(aks):
    """Check name -> first counterexample (None when the rule holds)."""
    T, P, pole, push, dot = aks.terms, aks.stacks, aks.in_pole, aks.app_push, aks.app_dot
    return {
        "aks.s1_dot": next(((t, s, pi) for t in T for s in T for pi in P
                            if pole(t, push(s, pi)) and not pole(dot(t, s), pi)), None),
        "aks.s2_K": next(((t, s, pi) for t in T for pi in P for s in T
                          if pole(t, pi) and not pole(aks.K, push(t, push(s, pi)))), None),
        "aks.s3_S": next(((t, s, u, pi) for t in T for s in T for u in T for pi in P
                          if pole(dot(dot(t, u), dot(s, u)), pi)
                          and not pole(aks.S, push(t, push(s, push(u, pi))))), None),
        "aks.s4_cc": next(((t, pi) for t in T for pi in P
                           if pole(t, push(aks.kof[pi], pi))
                           and not pole(aks.cc, push(t, pi))), None),
        "aks.s5_kof": next(((t, pi, pi2) for t in T for pi in P for pi2 in P
                            if pole(t, pi) and not pole(aks.kof[pi], push(t, pi2))), None),
    }


# -- the comparison ------------------------------------------------------------------


def cold_copy(aks):
    """The same structure, built again: its memos are empty."""
    return Aks(aks.terms, aks.stacks, aks.dot, aks.push, aks.kof, aks.K, aks.S, aks.cc,
               aks.qp, aks.pole, aks.name)


def pole_rule_verdicts(aks):
    return {r.check: (r.verdict, r.counterexample) for r in check_aks(aks).records
            if r.check.startswith("aks.s")}


def order_ca_view(aks):
    """The order-ca's carrier, table, filter and order; None without a k/s pair."""
    try:
        oca = order_ca(aks).opca
    except ConstructionError:
        return None
    return list(oca.elements), oca.table, oca.filter, oca.leq_pairs


def ref_order_ca_view(aks, carrier):
    return (carrier, {(a, b): ref_apply(aks, a, b) for a in carrier for b in carrier},
            frozenset(a for a in carrier if ref_orthogonal_terms(aks, a) & aks.qp),
            frozenset((a, b) for a in carrier for b in carrier if b <= a))


def kernel_readers(aks, subsets):
    """(routine, its reference value) for each routine that reads the push
    kernel (``Aks.pull``, ``Aks.push_image``); apply, imp and the Streicher
    preorder over ``subsets``, the order-ca when it has at most 16 elements."""
    pairs = list(product(subsets, repeat=2))
    predicates = [(Predicate(("i",), {"i": alpha}), Predicate(("i",), {"i": beta}))
                  for alpha, beta in pairs]
    if subsets:
        predicates.append((Predicate(("i", "j"), {"i": subsets[0], "j": subsets[-1]}),
                           Predicate(("i", "j"), {"i": subsets[-1], "j": subsets[0]})))
    readers = [
        (pole_rule_verdicts,
         {check: ("pass" if ce is None else "fail", ce)
          for check, ce in ref_pole_rules(aks).items()}),
        (check_kr, ref_kr(aks)),
        (lambda a: [aks_apply(a, alpha, beta) for alpha, beta in pairs],
         [ref_apply(aks, alpha, beta) for alpha, beta in pairs]),
        (lambda a: [aks_imp(a, alpha, beta) for alpha, beta in pairs],
         [ref_imp(aks, alpha, beta) for alpha, beta in pairs]),
        (lambda a: [streicher_leq(phi, psi, a) for phi, psi in predicates],
         [ref_streicher_leq(phi, psi, aks) for phi, psi in predicates]),
    ]
    carrier = ref_closed_stack_sets(aks)
    if len(carrier) <= 16:  # the opca laws read carrier^3 triples
        readers.append((order_ca_view, ref_order_ca_view(aks, carrier)))
    return readers


def shown(aks, twin):
    """What a memo must not change: equality, repr and the saved form."""
    return aks == aks, aks == twin, repr(aks), aks_to_dict(aks)


def assert_matches_reference(aks, subsets):
    """Every routine on ``aks``.  Each kernel reader runs on a cold copy, then
    again once every other reader has filled the copy's memos."""
    for x in subsets:
        assert orthogonal_terms(aks, x) == ref_orthogonal_terms(aks, x)
        assert biorthogonal_closure(aks, x) == ref_closure(aks, x)
    for n in range(len(aks.terms) + 1):
        for ts in (frozenset(aks.terms[:n]), frozenset(aks.terms[n:])):
            assert orthogonal_stacks(aks, ts) == ref_orthogonal_stacks(aks, ts)
    assert cc_element(aks) == ref_orthogonal_stacks(aks, {aks.cc})
    assert closed_stack_sets(aks) == ref_closed_stack_sets(aks)
    readers = kernel_readers(aks, subsets)
    for k, (routine, expected) in enumerate(readers):
        copy = cold_copy(aks)
        before = shown(copy, aks)
        got = routine(copy)
        assert got == expected or routine is order_ca_view and got is None, routine
        for other, _ in readers[k + 1:] + readers[:k]:
            other(copy)
        assert routine(copy) == got, routine
        assert shown(copy, aks) == before


@st.composite
def random_aks(draw):
    """Up to 8 terms x 8 stacks with random dot, push, kOf, K/S/cc, QP and pole."""
    terms = tuple(f"t{i}" for i in range(draw(st.integers(min_value=1, max_value=8))))
    stacks = tuple(f"p{j}" for j in range(draw(st.integers(min_value=1, max_value=8))))

    def table(keys, values):
        picks = draw(st.lists(st.sampled_from(values),
                              min_size=len(keys), max_size=len(keys)))
        return dict(zip(keys, picks))

    pairs = list(product(terms, stacks))
    # a row per term as a mask: integers reach empty, full and near-full rows
    rows = draw(st.lists(st.integers(min_value=0, max_value=(1 << len(stacks)) - 1),
                         min_size=len(terms), max_size=len(terms)))
    K, S, cc = draw(st.lists(st.sampled_from(terms), min_size=3, max_size=3))
    return Aks(terms=terms, stacks=stacks,
               dot=table(list(product(terms, terms)), terms),
               push=table(pairs, stacks), kof=table(stacks, terms), K=K, S=S, cc=cc,
               qp=frozenset(draw(st.sets(st.sampled_from(terms)))),
               pole=frozenset((t, pi) for row, t in zip(rows, terms)
                              for j, pi in enumerate(stacks) if row >> j & 1),
               name="random")


@given(random_aks(), st.data())
@settings(max_examples=120, deadline=None)
def test_bit_layer_matches_the_frozenset_reference(aks, data):
    stack_sets = st.frozensets(st.sampled_from(aks.stacks))
    subsets = data.draw(st.lists(stack_sets, min_size=1, max_size=4))
    assert_matches_reference(aks, subsets + [frozenset(), frozenset(aks.stacks)])


def fixture_structures():
    out = [load_aks(FIXTURES / f"{n}.json")
           for n in ("aks_broken", "aks_mid0", "aks_mid1", "aks_point_empty",
                     "aks_point_full")]
    for n in ("l2", "l3", "m3", "diamond"):  # the opca fixtures with a filter and U
        opca, _ = load_opca(FIXTURES / f"{n}.json")
        out.append(build_aks(opca).aks)
    return out


def test_bit_layer_matches_the_reference_on_fixtures_and_benchmark_cases():
    workloads, _ = perfbench_modules()
    subjects = fixture_structures()
    subjects += [build_aks(opca, max_len=3, U=opca.U).aks for opca in workloads.krivine_cases()]
    assert len(subjects) == 9 + 48
    for aks in subjects:
        assert_matches_reference(aks, ref_closed_stack_sets(aks))


def test_kr_reads_both_push_orders():
    # e faces every stack, and a faces every t.e.pi but not e.a.p1 = p2:
    # only the s.t.pi half of the condition (with s = e) rules a out
    f = {"p0": "p0", "p1": "p2", "p2": "p0"}  # push by e
    g = {"p0": "p0", "p1": "p1", "p2": "p0"}  # push by a
    stacks = ("p0", "p1", "p2")
    aks = Aks(terms=("a", "e"), stacks=stacks,
              dot={(x, y): "a" for x in "ae" for y in "ae"},
              push={**{("e", p): f[p] for p in stacks}, **{("a", p): g[p] for p in stacks}},
              kof={p: "a" for p in stacks}, K="a", S="a", cc="a", qp=frozenset({"a"}),
              pole=frozenset({("e", p) for p in stacks} | {("a", "p0"), ("a", "p1")}),
              name="kr-halves")
    assert ref_kr(aks) is None and check_kr(aks) is None
