"""The implicative kit's infimum scans against the subset scans they replaced.

Before the kit was keyed by closed downsets, ``implication_from_sup`` built
an infimum per subset of the carrier (``reference_inf_table``),
``check_implicative`` scanned every subset for ``ioca.poset_has_infima``
and ``implicative.inf_witnessed`` (``reference_has_infima``,
``reference_inf_witnessed``), and fact (a) of ``sup_from_implication`` ran
over every family on every downset and every part of it
(``reference_fact_a``).  A subset S's infimum is the kit's entry at
lower(S), so each reference reads the table ``subset_table`` spreads over
the subsets.  The new checks must pass and fail with the references on
every poset of at most four elements, lattices or not, under random
application tables and mutated infima and constants.
"""

from itertools import combinations, permutations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from realcheck.bco import (ImplicativeKit, PseudoDAlgebra, _verify_derivation_facts,
                           check_implicative, check_pseudo_d_algebra, check_star,
                           implication_from_sup, join_sup)
from realcheck.errors import ConstructionError
from realcheck.lattices import enumerate_lattices
from realcheck.opca import FiniteOpca


def subsets(elements):
    return [frozenset(e for i, e in enumerate(elements) if mask >> i & 1)
            for mask in range(1 << len(elements))]


def lower_bounds(host, subset):
    return frozenset(x for x in host.elements if all(host.leq(x, a) for a in subset))


def reference_inf_table(alg):
    """The sup of each subset's lower bounds, per subset."""
    return {s: alg.value(lower_bounds(alg.host, s)) for s in subsets(alg.host.elements)}


def subset_table(kit):
    """The kit's infimum of every subset, read at its lower bounds."""
    return {s: kit.inf[lower_bounds(kit.host, s)] for s in subsets(kit.host.elements)}


def reference_has_infima(host):
    for subset in subsets(host.elements):
        if host.greatest(lower_bounds(host, subset)) is None:
            return (tuple(sorted(map(str, subset))),)
    return None


def reference_inf_witnessed(kit, inf):
    host = kit.host
    for subset in subsets(host.elements):
        inf_v = inf[subset]
        got = host.app(kit.i, inf_v)
        bad = next(((a,) for a in host.ordered(subset)
                    if got is None or not host.leq(got, a)), None) \
            or next((("i'", b) for b in host.elements
                     if all(host.leq(b, a) for a in subset)
                     and ((ib := host.app(kit.i_prime, b)) is None or not host.leq(ib, inf_v))),
                    None)
        if bad is not None:
            return (tuple(sorted(map(str, subset))),) + bad
    return None


def reference_fact_a(host, inf, eta):
    for alpha in host.downsets():
        alpha_l = host.ordered(alpha)
        for fam in product(host.elements, repeat=len(alpha_l)):
            phi = dict(zip(alpha_l, fam))
            got = host.app(eta, inf[frozenset(phi.values())])
            if got is None:
                return (alpha_l, fam)
            for mask in range(1 << len(alpha_l)):
                part = frozenset(phi[a] for i, a in enumerate(alpha_l) if mask >> i & 1)
                if not host.leq(got, inf[part]):
                    return (alpha_l, fam, sorted(map(str, part)))
    return None


def fact_a_failure(kit, eta):
    """The ConstructionError message of fact (a), or None when it holds."""
    other = kit.host.elements[0]  # facts (b) and (d) run after (a), on no downsets
    try:
        _verify_derivation_facts(kit, {}, {"eta": eta, "xi": other, "P": other}, [])
    except ConstructionError as e:
        if str(e).startswith("derivation fact (a)"):
            return str(e)
    return None


def posets(max_n):
    """(elements, order pairs) of one poset per isomorphism type on 1..max_n
    elements; each order extends the order of the names."""
    out = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        seen = set()
        for mask in range(1 << len(pairs)):
            rel = {p for b, p in enumerate(pairs) if mask >> b & 1}
            if any((i, k) not in rel for i, j in rel for j2, k in rel if j == j2):
                continue
            key = min(tuple(sorted((perm[i], perm[j]) for i, j in rel))
                      for perm in permutations(range(n)))
            if key not in seen:
                seen.add(key)
                els = tuple("abcd"[:n])
                out.append((els, frozenset((els[i], els[j]) for i, j in rel)))
    return out


POSETS = posets(4)


def host_of(elements, order, table):
    return FiniteOpca(elements, order, table, k=elements[0], s=elements[0],
                      filter=frozenset(elements), name="host")


def kit_on(host, inf, i, i_prime):
    return ImplicativeKit(host, inf, {(b, c): host.elements[0] for b in host.elements
                                      for c in host.elements}, i, i_prime, i, i)


def agrees(kit, eta):
    """Whether each new check fails exactly when its reference does."""
    host, inf = kit.host, subset_table(kit)
    rep = check_implicative(kit, mode="ioca")
    return ((rep.record("ioca.poset_has_infima").passed, reference_has_infima(host) is None),
            (rep.record("implicative.inf_witnessed").passed,
             reference_inf_witnessed(kit, inf) is None),
            (fact_a_failure(kit, eta) is None, reference_fact_a(host, inf, eta) is None))


def test_the_posets_are_every_type_up_to_four_elements():
    assert [len(els) for els, _ in POSETS].count(4) == 16 and len(POSETS) == 24


def test_the_kit_reads_the_infima_of_the_subset_table():
    built = 0
    for opca in enumerate_lattices(5):  # the 8 distributive ones have a bound witness
        alg = PseudoDAlgebra(opca, join_sup(opca))
        if (star := check_star(alg)) is None:
            continue
        kit = implication_from_sup(alg, check_pseudo_d_algebra(alg), star)
        assert {s: kit.inf_of(s) for s in subsets(opca.elements)} == reference_inf_table(alg)
        built += 1
    assert built == 8


def test_every_single_infimum_mutation_agrees():
    # each element acts as the identity, so the infima decide every clause:
    # the greatest lower bounds pass where they exist, and a mutation fails
    seen = set()
    for elements, order in POSETS:
        host = host_of(elements, order, {(a, b): b for a in elements for b in elements})
        closed = host.closed_downsets()
        base = {low: host.greatest(low) or elements[-1] for low in closed}
        for low, value in [(None, None)] + [(low, v) for low in closed for v in elements]:
            kit = kit_on(host, {**base, **({} if low is None else {low: value})},
                         elements[0], elements[-1])
            outcomes = agrees(kit, elements[0])
            assert all(new == old for new, old in outcomes), (elements, order, low, value)
            seen |= {(check, new) for check, (new, _) in enumerate(outcomes)}
    assert seen == {(check, passed) for check in range(3) for passed in (True, False)}


@st.composite
def kits(draw):
    """A kit on a poset of at most four elements: application starts as the
    identity and the infima as the greatest lower bounds where they exist,
    then a few table entries, infima and constants are redrawn."""
    elements, order = draw(st.sampled_from(POSETS))
    pick = st.sampled_from(elements)
    table = {(a, b): b for a in elements for b in elements}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        table[(draw(pick), draw(pick))] = draw(st.one_of(st.none(), pick))
    host = host_of(elements, order, {ab: c for ab, c in table.items() if c is not None})
    closed = host.closed_downsets()
    inf = {low: host.greatest(low) or draw(pick) for low in closed}
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        inf[draw(st.sampled_from(closed))] = draw(pick)
    return kit_on(host, inf, draw(pick), draw(pick)), draw(pick)


@settings(max_examples=300, deadline=None)
@given(kits())
def test_random_kits_agree_with_the_subset_scans(kit_and_eta):
    kit, eta = kit_and_eta
    assert all(new == old for new, old in agrees(kit, eta))
