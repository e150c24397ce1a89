"""The bit-row orthogonality layer against the frozenset definitions.

The reference routines below scan (term, stack) pairs of the pole, as the
definitions read: orthogonals, closure, every closed set by closing
every subset, application, implication, (Kr), the Streicher preorder, the
order-ca with its k and s, and the five pole rules with their first
counterexamples.  They are compared with the library on random structures
(random tables and poles, so the rules mostly fail), on every fixture and on
every benchmark Krivine structure.

The mask routes that the closed-set table replaced are kept below as well,
reading the rows and the push table directly: application closing alpha and
scanning beta's facing terms per call, implication converting between
frozensets and masks per call, and the order-ca built as a draft and again
with its k and s.  The library must match them with and without the table.
"""

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realcheck.aks import (Aks, aks_apply, aks_imp, biorthogonal_closure,
                           build_aks, cc_element, check_aks, check_kr,
                           closed_stack_sets, order_ca, orthogonal_stacks,
                           orthogonal_terms)
from realcheck.errors import ConstructionError, StructureError
from realcheck.formats import aks_to_dict, load_aks, load_opca
from realcheck.opca import FiniteOpca, first_ks, k_law, s_law
from realcheck.poset import bits, closed_masks
from realcheck.tripos import Predicate, streicher_leq

from conftest import FIXTURES
from test_golden import perfbench_modules

# -- the reference: frozensets of pairs ---------------------------------------------


def ref_orthogonal_stacks(aks, term_subset):
    return frozenset(pi for pi in aks.stacks
                     if all((t, pi) in aks.pole for t in term_subset))


def ref_orthogonal_terms(aks, stack_subset):
    return frozenset(t for t in aks.terms
                     if all((t, pi) in aks.pole for pi in stack_subset))


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
                     if all((t, aks.push[(s, pi)]) in aks.pole for t in ta for s in tb))
    return ref_closure(aks, base)


def ref_imp(aks, alpha, beta):
    ta = ref_orthogonal_terms(aks, alpha)
    return ref_closure(aks, frozenset(aks.push[(t, pi)] for t in ta for pi in beta))


def ref_kr(aks):
    everywhere = ref_orthogonal_terms(aks, frozenset(aks.stacks))
    return next((a for a in aks.terms if a in aks.qp
                 and all((a, aks.push[(t, aks.push[(s, pi)])]) in aks.pole
                         and (a, aks.push[(s, aks.push[(t, pi)])]) in aks.pole
                         for s in everywhere for t in aks.terms for pi in aks.stacks)), None)


def ref_streicher_leq(phi, psi, aks):
    return next((t for t in aks.terms if t in aks.qp
                 and all((t, aks.push[(u, pi)]) in aks.pole
                         for i in phi.index
                         for u in ref_orthogonal_terms(aks, phi(i))
                         for pi in psi(i))), None)


def ref_pole_rules(aks):
    """Check name -> first counterexample (None when the rule holds)."""
    T, P = aks.terms, aks.stacks

    def pole(t, pi):
        return (t, pi) in aks.pole

    def push(t, pi):
        return aks.push[(t, pi)]

    def dot(t, s):
        return aks.dot[(t, s)]

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
    """The order-ca's carrier, table, filter, order, k and s; None without a
    k/s pair."""
    try:
        oca = order_ca(aks).opca
    except ConstructionError:
        return None
    return list(oca.elements), oca.table, oca.filter, oca.leq_pairs, oca.k, oca.s


def ref_order_ca_view(aks, carrier):
    """k and s are the first candidates obeying their laws: the orthogonals
    of single quasi-proofs in the filter, then the filter, then the carrier."""
    table = {(a, b): ref_apply(aks, a, b) for a in carrier for b in carrier}
    filt = frozenset(a for a in carrier if ref_orthogonal_terms(aks, a) & aks.qp)
    leq = frozenset((a, b) for a in carrier for b in carrier if b <= a)
    singles = [ref_orthogonal_stacks(aks, {q}) for q in aks.terms if q in aks.qp]
    candidates = []
    for alpha in [a for a in singles + carrier if a in filt] + carrier:
        if alpha not in candidates:
            candidates.append(alpha)
    laws = FiniteOpca(tuple(carrier), leq, table, carrier[0], carrier[0])
    k = next((c for c in candidates if k_law(laws, c) is None), None)
    s = next((c for c in candidates if s_law(laws, c) is None), None)
    return None if k is None or s is None else (carrier, table, filt, leq, k, s)


def kernel_readers(aks, subsets):
    """(routine, its reference value) for each routine that reads the push
    kernel (``Aks.pull``, ``Aks.push_image``) or the closed-set table; apply,
    imp and the Streicher preorder over ``subsets``, the order-ca when it has
    at most 16 elements."""
    pairs = list(product(subsets, repeat=2))
    predicates = [(Predicate(("i",), {"i": alpha}), Predicate(("i",), {"i": beta}))
                  for alpha, beta in pairs]
    if subsets:
        predicates.append((Predicate(("i", "j"), {"i": subsets[0], "j": subsets[-1]}),
                           Predicate(("i", "j"), {"i": subsets[-1], "j": subsets[0]})))
    readers = [
        (closed_stack_sets, ref_closed_stack_sets(aks)),
        (cc_element, ref_orthogonal_stacks(aks, {aks.cc})),
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
    readers = kernel_readers(aks, subsets)
    for k, (routine, expected) in enumerate(readers):
        copy = cold_copy(aks)
        before = shown(copy, aks)
        got = routine(copy)
        assert got == expected, routine
        for other, _ in readers[k + 1:] + readers[:k]:
            other(copy)
        assert routine(copy) == got, routine
        assert shown(copy, aks) == before


# -- the mask routes before the closed-set table ---------------------------------------


def scan_mask(aks, stacks):
    return sum(1 << aks.stack_index[pi] for pi in stacks)


def scan_stacks(aks, mask):
    return frozenset(pi for j, pi in enumerate(aks.stacks) if mask >> j & 1)


def scan_facing_terms(aks, mask):
    return sum(1 << i for i, row in enumerate(aks.rows) if row & mask == mask)


def scan_close(aks, mask):
    out = aks.full
    for row in aks.rows:
        if row & mask == mask:
            out &= row
    return out


def scan_pull(aks, t, mask):
    return sum(1 << j for j, k in enumerate(aks.push_index[t]) if mask >> k & 1)


def scan_image(aks, term_mask, stack_mask):
    return scan_mask(aks, {aks.push[(aks.terms[i], aks.stacks[j])]
                           for i in bits(term_mask) for j in bits(stack_mask)})


def old_apply_mask(aks, alpha, beta):
    closed, base = scan_close(aks, alpha), aks.full
    for s in bits(scan_facing_terms(aks, beta)):
        base &= scan_pull(aks, s, closed)
    return scan_close(aks, base)


def old_aks_apply(aks, alpha, beta):
    return scan_stacks(aks, old_apply_mask(aks, scan_mask(aks, alpha), scan_mask(aks, beta)))


def old_aks_imp(aks, alpha, beta):
    return scan_stacks(aks, scan_close(aks, scan_image(
        aks, scan_facing_terms(aks, scan_mask(aks, alpha)), scan_mask(aks, beta))))


def old_order_ca(aks):
    """The order-ca as it was built: a draft, then again with k and s."""
    masks = closed_masks(len(aks.stacks), lambda m: scan_close(aks, m), 1 << 12, "closed sets")
    carrier = [scan_stacks(aks, m) for m in masks]
    named = dict(zip(masks, carrier))
    leq = frozenset((named[a], named[b]) for a in masks for b in masks if not b & ~a)
    table = {(named[a], named[b]): named[old_apply_mask(aks, a, b)]
             for a in masks for b in masks}
    qp = aks.term_mask(aks.qp)
    filt = frozenset(named[a] for a in masks if scan_facing_terms(aks, a) & qp)
    candidates = []
    for q, row in zip(aks.terms, aks.rows):
        if q in aks.qp and named[row] in filt and named[row] not in candidates:
            candidates.append(named[row])
    for alpha in carrier:
        if alpha in filt and alpha not in candidates:
            candidates.append(alpha)
    candidates.extend(alpha for alpha in carrier if alpha not in candidates)
    draft = FiniteOpca(elements=tuple(carrier), leq_pairs=leq, table=table,
                       k=carrier[0], s=carrier[0], filter=filt, name=f"P({aks.name})")
    ks = first_ks(draft, candidates)
    return None if ks is None else draft.replace(**ks)


def opca_view(opca):
    return None if opca is None else (opca.elements, opca.leq_pairs, opca.table, opca.k,
                                      opca.s, opca.filter, opca.U, opca.name)


def order_ca_or_none(aks):
    try:
        return order_ca(aks).opca
    except ConstructionError:
        return None


def table_routes(aks, subsets):
    """Each routine that reads the closed-set table, over ``subsets``, in
    this order: on a cold structure all but the last two run without it."""
    pairs = list(product(subsets, repeat=2))
    out = {"apply": [aks_apply(aks, a, b) for a, b in pairs],
           "imp": [aks_imp(aks, a, b) for a, b in pairs],
           "cc": cc_element(aks),
           "streicher": [streicher_leq(Predicate(("i",), {"i": a}),
                                       Predicate(("i",), {"i": b}), aks) for a, b in pairs]}
    out["closed"] = closed_stack_sets(aks)
    out["order_ca"] = opca_view(order_ca_or_none(aks))
    return out


def old_table_routes(aks, subsets):
    pairs = list(product(subsets, repeat=2))
    return {"apply": [old_aks_apply(aks, a, b) for a, b in pairs],
            "imp": [old_aks_imp(aks, a, b) for a, b in pairs],
            "cc": scan_stacks(aks, aks.rows[aks.term_index[aks.cc]]),
            "streicher": [ref_streicher_leq(Predicate(("i",), {"i": a}),
                                            Predicate(("i",), {"i": b}), aks)
                          for a, b in pairs],
            "closed": [scan_stacks(aks, m) for m in closed_masks(
                len(aks.stacks), lambda m: scan_close(aks, m), 1 << 12, "closed sets")],
            "order_ca": opca_view(old_order_ca(aks))}


def test_the_closed_set_table_matches_the_mask_routes_it_replaced():
    # on the 48 sweep cases, the five raw aks fixtures and the five built
    # ones; over every closed set and, per closed set, the set without its
    # lowest stack (not closed unless empty or still closed), on a structure
    # with no table, then again once the table is listed
    workloads, _ = perfbench_modules()
    subjects = fixture_structures()
    subjects += [build_aks(opca, max_len=3, U=opca.U).aks for opca in workloads.krivine_cases()]
    unclosed = 0
    for aks in subjects:
        closed = ref_closed_stack_sets(aks)
        trimmed = [frozenset(sorted(c, key=aks.stacks.index)[1:]) for c in closed if c]
        subsets = closed + [t for t in trimmed if t not in closed]
        unclosed += len(subsets) - len(closed)
        want = old_table_routes(aks, subsets)
        copy = cold_copy(aks)
        for _ in range(2):  # the second time, the table is listed
            assert table_routes(copy, subsets) == want, aks.name
    assert unclosed > 0


def test_imp_and_the_streicher_preorder_refuse_a_stray_stack_and_answer_any_set():
    # every stack set, closed or not, frozen or not, with the closed-set
    # table listed and without it
    for aks in fixture_structures():
        subsets = [frozenset(c) for r in range(len(aks.stacks) + 1)
                   for c in combinations(aks.stacks, r)]
        top, stray = frozenset(aks.stacks), frozenset({"nope"})
        for listed in (False, True):
            copy = cold_copy(aks)
            if listed:
                closed_stack_sets(copy)
            for alpha, beta in product(subsets, repeat=2):
                want = ref_imp(aks, alpha, beta)
                assert aks_imp(copy, alpha, beta) == want
                assert aks_imp(copy, set(alpha), sorted(beta)) == want
                phi, psi = Predicate(("i",), {"i": alpha}), Predicate(("i",), {"i": beta})
                assert streicher_leq(phi, psi, copy) == ref_streicher_leq(phi, psi, aks)
            for alpha, beta in ((stray, top), (top, stray), (top | stray, top)):
                with pytest.raises(StructureError, match="stack 'nope' outside the carrier"):
                    aks_imp(copy, alpha, beta)
                with pytest.raises(StructureError, match="stack 'nope' outside the carrier"):
                    streicher_leq(Predicate(("i",), {"i": alpha}),
                                  Predicate(("i",), {"i": beta}), copy)


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
    vee, _ = load_opca(FIXTURES / "vee.json")  # no U: its largest one avoiding the filter
    out.append(build_aks(vee, U={"0", "b"}).aks)
    return out


def test_bit_layer_matches_the_reference_on_fixtures_and_benchmark_cases():
    workloads, _ = perfbench_modules()
    subjects = fixture_structures()
    subjects += [build_aks(opca, max_len=3, U=opca.U).aks for opca in workloads.krivine_cases()]
    assert len(subjects) == 10 + 48
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
