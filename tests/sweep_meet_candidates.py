"""Which candidates of ``bco._meet_candidates`` find the internal meets.

``internal_meets`` tries the opca pairing map and the poset meet map first,
then every map A x A -> A (the product part: 3^9 = 19,683 tables on three
elements).  This script counts, per group of small BCOs, those with an
internal top, those with internal meets, and those whose meet only the
product part finds, because the pairing and poset-meet candidates both
fail.  A product-only count of 0 says the product part finds nothing that
the first two candidates miss on these inputs.

The groups:

- every poset on 1-3 labelled elements, with F a total monotone
  sub-identity plus at most one more partial monotone map on a
  downward-closed domain, kept when ``check_bco`` passes;
- the BCO views (``opca_to_bco``) of ``enumerate_lattices(3)``, ``VEE`` and
  L3 with the filter {m, 1} (``L3mf`` of the ``morphism_scan`` benchmark).

It is not collected by pytest (the name does not start with ``test_``); CI
runs it as its own job, and it exits 1 when any group's product-only count
is above 0:

    PYTHONPATH=src python tests/sweep_meet_candidates.py
"""

import sys
from itertools import combinations, product
from time import perf_counter

from realcheck import bco as bcomod
from realcheck.bco import FiniteBco, check_bco, find_top, internal_meets, opca_to_bco
from realcheck.lattices import L3, VEE, enumerate_lattices
from realcheck.poset import Poset, reflexive_transitive_closure


def labelled_posets(n):
    """Every partial order on the elements 0..n-1, as a ``Poset``."""
    els = tuple(range(n))
    pairs = [(a, b) for a in els for b in els if a != b]
    seen = set()
    for size in range(len(pairs) + 1):
        for rel in combinations(pairs, size):
            closed = reflexive_transitive_closure(els, rel)
            if closed in seen or any((b, a) in closed for a, b in rel):
                continue  # already listed, or not antisymmetric
            seen.add(closed)
            yield Poset(els, closed)


def monotone_maps(poset):
    """Every partial monotone map whose domain is a downset, as a sorted
    tuple of (argument, value) pairs."""
    els = poset.elements
    for domain in poset.downsets():
        dom = poset.ordered(domain)
        for values in product(els, repeat=len(dom)):
            f = dict(zip(dom, values))
            if all(poset.leq(f[a], f[b]) for a in dom for b in dom if poset.leq(a, b)):
                yield tuple(sorted(f.items()))


def poset_bcos(n):
    """The BCOs on the labelled posets of n elements with F as in the
    module docstring, each function set once."""
    for poset in labelled_posets(n):
        maps = list(monotone_maps(poset))
        subs = [f for f in maps if len(f) == n and all(poset.leq(v, a) for a, v in f)]
        families = {frozenset({i, f}) for i in subs for f in [i, *maps]}
        for family in sorted(families, key=sorted):
            functions = {f"f{k}": dict(f) for k, f in enumerate(sorted(family))}
            bco = FiniteBco(poset.elements, poset.leq_pairs, functions, name="sweep")
            if check_bco(bco).passed:
                yield bco


def named_meets_found(bco):
    """Whether the pairing or the poset-meet candidate is a meet map: the
    internal-meet search over the candidates before the product part."""
    n = len(bco.elements)
    search = bcomod._meet_candidates
    candidates = search(bco)
    if n ** (n * n) <= bcomod.MEET_CANDIDATE_CAP:
        candidates = candidates[:len(candidates) - n ** (n * n)]
    bcomod._meet_candidates = lambda _: candidates
    try:
        return internal_meets(bco) is not None
    finally:
        bcomod._meet_candidates = search


def counts(bcos):
    """[BCOs, with a top, with internal meets, meets found by the product part only]."""
    out = [0, 0, 0, 0]
    for bco in bcos:
        out[0] += 1
        if find_top(bco) is None:
            continue
        out[1] += 1
        if internal_meets(bco) is None:
            continue
        out[2] += 1
        out[3] += not named_meets_found(bco)
    return out


def main():
    views = [*enumerate_lattices(3), VEE, L3.replace(filter=frozenset({"m", "1"}), name="L3mf")]
    groups = [(f"posets on {n} labelled elements", lambda n=n: poset_bcos(n))
              for n in (1, 2, 3)]
    groups.append(("opca views: enumerate_lattices(3), VEE, L3mf",
                   lambda: map(opca_to_bco, views)))
    print(f"{'group':48} {'bcos':>6} {'top':>6} {'meets':>6} {'product-only':>12} {'s':>7}")
    product_only = 0
    for name, bcos in groups:
        start = perf_counter()
        row = counts(bcos())
        product_only += row[3]
        print(f"{name:48} {row[0]:6} {row[1]:6} {row[2]:6} {row[3]:12} "
              f"{perf_counter() - start:7.1f}")
    return 1 if product_only else 0


if __name__ == "__main__":
    sys.exit(main())
