"""The poset core shared by every structure: carrier, order, downsets.

``Poset`` owns the carrier checks, the reflexive-transitive closure of the
order, the order queries, the downset enumerator, least/greatest elements
and the tracker search ("first candidate g with g(x) defined and <= y for
every pair (x, y)").  ``FiniteOpca`` and ``FiniteBco`` extend it.  The
order may be a preorder: nothing here assumes antisymmetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CapExceeded, StructureError

__all__ = ["Poset", "reflexive_transitive_closure", "downsets_of_poset"]


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


def downsets_of_poset(elements, leq, cap=1 << 16, what="downsets"):
    """All downward closed subsets of a preordered set.

    ``leq`` must be reflexive and transitive.  Elements below each other
    form one class, taken or left whole, and classes are visited by
    increasing down-set size, which extends the order.  Deterministic
    output order: by (size, element indexes).  Refuses with CapExceeded once
    more than ``cap`` downsets appear.
    """
    elements = list(elements)
    below = {e: [x for x in elements if leq(x, e)] for e in elements}
    classes, seen = [], set()
    for e in sorted(elements, key=lambda e: len(below[e])):
        if e not in seen:
            members = [x for x in below[e] if leq(e, x)]
            seen.update(members)
            classes.append((members, [x for x in below[e] if x not in members]))
    out = []

    def extend(i, current):
        if i == len(classes):
            out.append(frozenset(current))
            if len(out) > cap:
                raise CapExceeded(what, len(out), cap)
            return
        members, strictly_below = classes[i]
        extend(i + 1, current)
        if all(x in current for x in strictly_below):
            current.update(members)
            extend(i + 1, current)
            current.difference_update(members)

    extend(0, set())
    index = {e: i for i, e in enumerate(elements)}
    return sorted(out, key=lambda d: (len(d), tuple(sorted(index[e] for e in d))))


@dataclass(frozen=True, eq=False)
class Poset:
    """Finite carrier with a preorder, closed reflexively/transitively once.

    Subclasses add a ``name`` field; a bare poset is named "poset".
    """

    elements: tuple
    leq_pairs: frozenset
    element_set: frozenset = field(init=False)
    _index: dict = field(init=False)

    name = "poset"

    def __post_init__(self):
        element_set = frozenset(self.elements)
        if len(self.elements) != len(element_set):
            raise StructureError("duplicate carrier elements", source=self.name)
        if None in element_set:  # None marks an undefined application
            raise StructureError("null is not an element", source=self.name)
        for (a, b) in self.leq_pairs:
            if a not in element_set or b not in element_set:
                raise StructureError(f"leq entry ({a!r},{b!r}) outside carrier",
                                     source=self.name, field="leq")
        object.__setattr__(self, "leq_pairs",
                           reflexive_transitive_closure(self.elements, self.leq_pairs))
        object.__setattr__(self, "element_set", element_set)
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(self.elements)})

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

    def downsets(self, cap=1 << 16):
        """All downward closed subsets, smallest first (deterministic)."""
        return downsets_of_poset(self.elements, self.leq, cap=cap,
                                 what=f"downsets of {self.name}")

    def least(self, subset):
        """First element of ``subset`` in carrier order below all of it, or None."""
        return next((x for x in self.ordered(subset)
                     if all(self.leq(x, y) for y in subset)), None)

    def greatest(self, subset):
        """First element of ``subset`` in carrier order above all of it, or None."""
        return next((x for x in self.ordered(subset)
                     if all(self.leq(y, x) for y in subset)), None)

    def tracker(self, candidates, apply, pairs):
        """First g in ``candidates`` with apply(g, x) defined (not None) and
        <= y for every (x, y) in ``pairs``, else None.  ``pairs`` is iterated
        once per candidate."""
        leq = self.leq_pairs
        for g in candidates:
            if all((gx := apply(g, x)) is not None and (gx, y) in leq for x, y in pairs):
                return g
        return None
