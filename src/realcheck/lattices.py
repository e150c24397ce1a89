"""Meet-semilattice opcas and small-lattice enumeration.

A finite meet-semilattice with top is an opca: application is the meet,
any element of the filter can serve as k and s.  These are the workhorse
fixtures, so this module also enumerates all isomorphism types of lattices
with up to a handful of elements (a finite meet-semilattice with top is
automatically a lattice).  Meets and tops come from the poset core in
``poset.py``.
"""

from __future__ import annotations

from itertools import permutations

from .errors import StructureError
from .opca import FiniteOpca
from .poset import Poset

__all__ = [
    "semilattice_opca", "enumerate_lattices",
    "chain", "L2", "L3", "VEE", "DIAMOND", "M3", "N5",
]


def semilattice_opca(elements, cover_pairs, *, filter=None, U=None, name="semilattice"):
    """Meet-semilattice as an opca: app = binary meet (total), k = s = max(filter).

    ``cover_pairs`` may be any generating relation; its reflexive-transitive
    closure must give every pair a meet.
    """
    poset = Poset(tuple(elements), frozenset(cover_pairs))
    table = {}
    for a in poset.elements:
        for b in poset.elements:
            table[(a, b)] = poset.meet(a, b)
            if table[(a, b)] is None:
                raise StructureError(f"no meet for ({a!r},{b!r})", source=name)
    if filter is None:
        top = poset.greatest(poset.elements)
        if top is None:
            raise StructureError("no top element; pass an explicit filter", source=name)
        filter = frozenset((top,))
    else:
        filter = frozenset(filter)
    ks = max(filter, key=lambda e: len(poset.down(e)))
    return FiniteOpca(
        elements=poset.elements, leq_pairs=poset.leq_pairs, table=table,
        k=ks, s=ks, filter=filter,
        U=None if U is None else frozenset(U), name=name,
    )


def chain(n):
    """Chain 0 < 1 < ... < n-1 as element names c0..c(n-1), named chain<n>."""
    els = tuple(f"c{i}" for i in range(n))
    covers = {(els[i], els[i + 1]) for i in range(n - 1)}
    return semilattice_opca(els, covers, name=f"chain{n}")


# Standard fixtures.  L2/L3 use the 0 < m < 1 style names from the docs.
L2 = semilattice_opca(("0", "1"), {("0", "1")}, name="L2")
L3 = semilattice_opca(("0", "m", "1"), {("0", "m"), ("m", "1")}, name="L3")
VEE = semilattice_opca(("0", "a", "b"), {("0", "a"), ("0", "b")},
                       filter={"a"}, name="vee")
DIAMOND = semilattice_opca(
    ("0", "a", "b", "1"),
    {("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")}, name="diamond")
M3 = semilattice_opca(
    ("0", "x", "y", "z", "1"),
    {("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")}, name="M3")
N5 = semilattice_opca(
    ("0", "a", "b", "c", "1"),
    {("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")}, name="N5")


def _is_transitive(n, strict):
    for a in range(n):
        for b in range(n):
            if strict[a][b]:
                for c in range(n):
                    if strict[b][c] and not strict[a][c]:
                        return False
    return True


def _canonical(n, leq):
    best = None
    for perm in permutations(range(n)):
        key = tuple(leq[perm[i]][perm[j]] for i in range(n) for j in range(n))
        if best is None or key < best:
            best = key
    return best


def enumerate_lattices(max_n=5):
    """All isomorphism types of lattices with 1..max_n elements, as opcas.

    Every partial order is enumerated with a linear extension fixed (i <= j
    as integers whenever i <= j in the order), then filtered to those with
    all binary meets and a top, and deduplicated up to isomorphism.
    """
    out = []
    for n in range(1, max_n + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        seen = set()
        for mask in range(1 << len(pairs)):
            strict = [[False] * n for _ in range(n)]
            for bit, (i, j) in enumerate(pairs):
                if mask >> bit & 1:
                    strict[i][j] = True
            if not _is_transitive(n, strict):
                continue
            leq = [[i == j or strict[i][j] for j in range(n)] for i in range(n)]
            poset = Poset(tuple(range(n)),
                          frozenset((i, j) for i in range(n) for j in range(n) if leq[i][j]))
            if poset.greatest(poset.elements) is None:
                continue
            if any(poset.meet(a, b) is None for a in range(n) for b in range(a + 1, n)):
                continue
            key = _canonical(n, leq)
            if key in seen:
                continue
            seen.add(key)
            names = tuple(f"e{i}" for i in range(n))
            covers = {(names[i], names[j]) for i in range(n) for j in range(n)
                      if i != j and leq[i][j]}
            out.append(semilattice_opca(names, covers,
                                        name=f"lattice{n}_{len(seen) - 1}"))
    return out
