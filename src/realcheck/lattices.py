"""Meet-semilattice opcas and small-lattice enumeration.

A finite meet-semilattice with top is an opca: application is the meet,
any element of the filter can serve as k and s.  These are the workhorse
fixtures, so this module also enumerates all isomorphism types of lattices
with up to seven elements (a finite meet-semilattice with top is
automatically a lattice).  Meets and tops come from the poset core in
``poset.py``.
"""

from __future__ import annotations

from itertools import permutations

from .errors import CapExceeded, StructureError
from .opca import FiniteOpca
from .poset import Poset

__all__ = [
    "semilattice_opca", "enumerate_lattices", "LATTICE_SIZE_CAP",
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


LATTICE_SIZE_CAP = 7  # largest size enumerate_lattices lists; 8 is CapExceeded


def _lattice_orders(n):
    """Up-rows (bit j of row i: i <= j) of every lattice order on 0..n-1 that
    the integer order extends, in the order of their masks of pairs i < j.
    Such a lattice has bottom 0 and top n-1, so only the pairs inside 1..n-2
    are free.  A pair has a meet when its common down-row is the down-row of
    its highest member; for a comparable pair a < b that asks down[a] to lie
    in down[b], so relations that are not transitive fail it too."""
    top, full, inner = 1 << n - 1, (1 << n) - 1, range(1, n - 1)
    pairs = [(i, j) for i in inner for j in range(i + 1, n - 1)]  # the free ones, in mask order
    for free in range(1 << len(pairs)):
        up = [full, *(1 << i | top for i in inner), top] if n > 1 else [full]
        for bit, (i, j) in enumerate(pairs):
            up[i] |= (free >> bit & 1) << j
        down = [sum(1 << i for i in range(n) if up[i] >> a & 1) for a in range(n)]
        if all(down[(down[a] & down[b]).bit_length() - 1] == down[a] & down[b]
               for a in inner for b in range(a + 1, n - 1)):
            yield up


def _canonical(up):
    """The least up-rows of the inner elements over their relabellings; an
    isomorphism of these lattices fixes the bottom and the top."""
    return min(tuple(sum(1 << k for k, q in enumerate(perm) if up[p] >> q & 1) for p in perm)
               for perm in permutations(range(1, len(up) - 1)))


def enumerate_lattices(max_n=5):
    """All isomorphism types of lattices with 1..max_n elements, as opcas.

    The orders on 0..n-1 are enumerated with the integer order a linear
    extension, and the first of each isomorphism type is kept as
    lattice<n>_<k> on elements e0..e(n-1).  ``max_n`` above
    ``LATTICE_SIZE_CAP`` is refused before any order is built.
    """
    if max_n > LATTICE_SIZE_CAP:
        raise CapExceeded("enumerate_lattices max_n", max_n, LATTICE_SIZE_CAP)
    out = []
    for n in range(1, max_n + 1):
        names = tuple(f"e{i}" for i in range(n))
        seen = set()
        for up in _lattice_orders(n):
            key = _canonical(up)
            if key not in seen:
                seen.add(key)
                covers = {(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
                          if up[i] >> j & 1}
                out.append(semilattice_opca(names, covers, name=f"lattice{n}_{len(seen) - 1}"))
    return out
