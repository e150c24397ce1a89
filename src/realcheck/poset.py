"""The poset core shared by every structure: carrier, order, downsets.

``Poset`` owns the carrier checks, the reflexive-transitive closure of the
order, the order queries, the downsets, the bounds of a subset, least and
greatest elements, meets and the tracker search ("first candidate g with
g(x) defined and <= y for every pair (x, y)"); ``witness_per_key`` runs a
search per key.  ``FiniteOpca`` and ``FiniteBco`` extend it.  The order
may be a preorder: nothing here assumes antisymmetry.  The downsets and
the closed stack sets of ``aks.py`` both come from ``closed_masks``.  The
tracker ANDs realizer masks: bit i of ``_masks[apply.__name__][(x, y)]``
is set when the i-th g of the pool that ``track`` fixes has apply(g, x)
defined and <= y.  Each is filled on first read and kept with the structure.
"""

from __future__ import annotations

from .errors import CapExceeded, StructureError
from .record import Frozen, set_field

__all__ = ["Poset", "reflexive_transitive_closure", "closed_masks", "downsets_of_poset",
           "witness_per_key"]

DOWNSET_CAP = 1 << 16  # most downsets listed; one more is refused with CapExceeded


def reflexive_transitive_closure(elements, pairs):
    """Warshall's algorithm on per-element up-sets."""
    up = {a: {a} for a in elements}
    for a, b in pairs:
        up[a].add(b)
    for k in elements:
        for a in elements:
            if k in up[a]:
                up[a] |= up[k]
    return frozenset((a, b) for a in elements for b in up[a])


def bits(mask):
    """The indices of the set bits, ascending."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def closed_masks(n, close, cap, what):
    """Every closed set of a closure operator on n items as an int mask, by
    size, then by item indices; CapExceeded(what, cap + 1, cap) past the cap.

    Ganter's NextClosure: the successor of a closed set is the closure of
    its part below i plus i, for the largest i that adds nothing below i.
    Each closed set costs at most n closures.
    """
    full = (1 << n) - 1
    current = close(0)
    found = [current]
    while current != full and len(found) <= cap:
        for i in reversed(range(n)):
            if current >> i & 1:
                continue
            below = (1 << i) - 1
            nxt = close(current & below | 1 << i)
            if nxt & below == current & below:
                break
        current = nxt
        found.append(current)
    if len(found) > cap:
        raise CapExceeded(what, cap + 1, cap)
    return sorted(found, key=lambda m: (m.bit_count(), bits(m)))


def downsets_of_poset(elements, leq, what="downsets"):
    """All downward closed subsets of a preordered set, as ``closed_masks``
    lists the downward closure on element positions (``leq`` reflexive and
    transitive).  Refuses with CapExceeded past DOWNSET_CAP downsets."""
    elements = list(elements)
    below = [sum(1 << j for j, x in enumerate(elements) if leq(x, e)) for e in elements]

    def close(mask):
        out = 0
        while mask:
            low = mask & -mask
            out |= below[low.bit_length() - 1]
            mask ^= low
        return out

    return [frozenset(elements[j] for j in bits(m))
            for m in closed_masks(len(elements), close, DOWNSET_CAP, what)]


class Poset(Frozen):
    """Finite carrier with a preorder, closed reflexively/transitively once.

    Subclasses add a ``name`` field, stored before ``Poset.__init__`` runs
    so that its errors name the structure; a bare poset is named "poset".
    """

    _fields = ("elements", "leq_pairs", "element_set", "_index")
    name = "poset"

    def __init__(self, elements, leq_pairs):
        element_set = frozenset(elements)
        if len(elements) != len(element_set):
            raise StructureError("duplicate carrier elements", source=self.name)
        if None in element_set:  # None marks an undefined application
            raise StructureError("null is not an element", source=self.name)
        for (a, b) in leq_pairs:
            if a not in element_set or b not in element_set:
                raise StructureError(f"leq entry ({a!r},{b!r}) outside carrier",
                                     source=self.name, field="leq")
        set_field(self, "elements", elements)
        set_field(self, "leq_pairs", reflexive_transitive_closure(elements, leq_pairs))
        set_field(self, "element_set", element_set)
        set_field(self, "_index", {e: i for i, e in enumerate(elements)})
        set_field(self, "_downsets", None)
        set_field(self, "_masks", {})  # realizer masks, see the module docstring

    def leq(self, a, b):
        return (a, b) in self.leq_pairs

    def ordered(self, subset):
        """Deterministic iteration order for a subset of the carrier."""
        return sorted(subset, key=self._index.__getitem__)

    def down(self, a):
        leq = self.leq_pairs
        return frozenset(b for b in self.elements if (b, a) in leq)

    def downward_closure(self, subset):
        return frozenset(b for b in self.elements
                         if any(self.leq(b, a) for a in subset))

    def is_downward_closed(self, subset):
        return subset == self.downward_closure(subset)

    def downsets(self):
        """All downward closed subsets, smallest first, as a new list; they are
        enumerated once per structure and kept as a tuple.  Past DOWNSET_CAP,
        CapExceeded."""
        if self._downsets is None:
            set_field(self, "_downsets", tuple(downsets_of_poset(
                self.elements, self.leq, what=f"downsets of {self.name}")))
        return list(self._downsets)

    def lower(self, subset):
        """The elements below every element of the collection ``subset``."""
        return frozenset(x for x in self.elements if all((x, a) in self.leq_pairs for a in subset))

    def upper(self, subset):
        """The elements above every element of the collection ``subset``."""
        return frozenset(x for x in self.elements if all((a, x) in self.leq_pairs for a in subset))

    def closed_downsets(self):
        """The sets lower(S) of the subsets S (the Dedekind-MacNeille cuts), as
        the downsets L with lower(upper(L)) == L, in ``downsets`` order."""
        return [low for low in self.downsets() if self.lower(self.upper(low)) == low]

    def least(self, subset):
        """First element of ``subset`` in carrier order below all of it, or None."""
        return next((x for x in self.ordered(subset)
                     if all(self.leq(x, y) for y in subset)), None)

    def greatest(self, subset):
        """First element of ``subset`` in carrier order above all of it, or None."""
        return next((x for x in self.ordered(subset)
                     if all(self.leq(y, x) for y in subset)), None)

    def meet(self, a, b):
        """The greatest element below both, first in carrier order, or None."""
        return self.greatest(self.down(a) & self.down(b))

    def tracker(self, pool, apply, pairs, pin=None):
        """The tracker search over ``pool`` (only ``pin``, if given), or None."""
        masks = self._masks.setdefault(apply.__name__, {})
        found = -1
        for pair in pairs:
            if (mask := masks.get(pair)) is None:
                x, y = pair
                mask = 0
                for i, g in enumerate(pool):
                    if (gx := apply(g, x)) is not None and (gx, y) in self.leq_pairs:
                        mask |= 1 << i
                masks[pair] = mask
            if not (found := found & mask):
                return None
        for i, g in enumerate(pool):
            if found >> i & 1 and pin in (None, g):
                return g
        return None


def witness_per_key(keys, search):
    """{key: search(key)} in key order, up to and including the first key
    whose search finds nothing (None)."""
    found = {}
    for key in keys:
        found[key] = search(key)
        if found[key] is None:
            break
    return found
