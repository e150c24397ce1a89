"""Indexed realizability preorders, Booleanization, and localic criteria.

Predicates over a finite index set are total assignments of carrier
elements (or downsets, or closed stack sets).  The preorder is uniform
realizability: one function from the structure works at every index.
The Booleanization orders downset-valued predicates through double
negation into a fixed downset U, stable on every index set when it is on
the generic predicate, and the Streicher preorder on stack-set
predicates matches it across the Krivine-structure construction.
"""

from __future__ import annotations

from .errors import InvariantViolation, StructureError
from .record import Frozen, Value

__all__ = [
    "Predicate", "predicate_leq", "arrow_U",
    "boolean_leq", "BooleanVerdict", "first_unstable", "streicher_leq", "localic_criterion",
]


class Predicate(Frozen):
    _fields = ("index", "assign")

    def __init__(self, *args, **kwargs):
        """Binds the fields as ``Frozen`` does; ``assign`` must hold every index."""
        super().__init__(*args, **kwargs)
        for i in self.index:
            if i not in self.assign:
                raise StructureError(f"predicate not total at index {i!r}")

    def __call__(self, i):
        return self.assign[i]

    def map_values(self, fn):
        return Predicate(self.index, {i: fn(self.assign[i]) for i in self.index})


def predicate_leq(phi, psi, bco):
    """First function name f with f(phi(i)) defined and <= psi(i) for all i."""
    if phi.index != psi.index:
        raise StructureError("predicates over different index sets")
    return bco.track([(phi(i), psi(i)) for i in phi.index])


def arrow_U(alpha, opca):
    """{a | a·b defined and in opca.U for every b in alpha}; a downset."""
    if opca.U is None:
        raise StructureError("arrow_U needs a downset U", source=opca.name)
    out = opca.arrow(alpha, opca.U)
    if not opca.is_downward_closed(out):
        raise InvariantViolation(f"{opca.ordered(alpha)} -> U not downward closed in {opca.name}")
    return out


class BooleanVerdict(Value):
    _fields = ("holds",
               "realizer",  # a downset witness from the filter of D(A,A'), or None
               "via_double_negation")  # the other formulation, asserted equal


def _d_predicate_leq(phi, psi, opca):
    """Realizer in A' for a pointwise inclusion-tracking between downset
    predicates: the first filter element in every arrow phi(i) -> psi(i).

    Equivalent to the downset-opca formulation: a filter downset gamma works
    iff any of its filter members does, and the principal downset of a
    working r works.
    """
    realizers = opca.element_set.intersection(*(opca.arrow(phi(i), psi(i)) for i in phi.index))
    return next((r for r in opca.ordered(opca.filter) if r in realizers), None)


def boolean_leq(phi, psi, opca):
    """The Boolean order on downset-valued predicates relative to U.

    Computes both equivalent forms — (psi -> U) <= (phi -> U), and
    phi <= ((psi -> U) -> U) — asserts they agree, and returns the
    contravariant form's verdict with its realizer.
    """
    if opca.filter is None or opca.U is None:
        raise StructureError("boolean_leq needs a filter and U on the opca", source=opca.name)
    not_phi = phi.map_values(lambda a: arrow_U(a, opca))
    not_psi = psi.map_values(lambda a: arrow_U(a, opca))
    contravariant = _d_predicate_leq(not_psi, not_phi, opca)
    double_neg = _d_predicate_leq(phi, not_psi.map_values(lambda a: arrow_U(a, opca)), opca)
    if (contravariant is None) != (double_neg is None):
        raise InvariantViolation(
            f"Booleanization forms disagree on {opca.name}: "
            f"contravariant={contravariant!r} double-negation={double_neg!r}")
    return BooleanVerdict(holds=contravariant is not None,
                          realizer=contravariant,
                          via_double_negation=double_neg is not None)


def first_unstable(opca):
    """The first predicate that the Booleanization relative to U does not fix
    (phi and (phi -> U) -> U not equivalent), else None: each single downset
    on the index i0, in ``opca.downsets()`` order, then the generic predicate
    i0, ..., i(n-1) |-> ``opca.downsets()``.  Every downset predicate is a
    reindexing of the generic one, so None holds for every index set."""
    downs = opca.downsets()
    generic = tuple(f"i{n}" for n in range(len(downs)))
    for phi in [*(Predicate(("i0",), {"i0": d}) for d in downs),
                Predicate(generic, dict(zip(generic, downs)))]:
        notnot = phi.map_values(lambda a: arrow_U(arrow_U(a, opca), opca))
        fwd = boolean_leq(phi, notnot, opca)
        back = boolean_leq(notnot, phi, opca)  # both run: either may raise
        if not (fwd.holds and back.holds):
            return phi
    return None


def streicher_leq(phi, psi, aks):
    """First quasi-proof t with (t, u.pi) in the pole for every index i,
    u facing phi(i), and pi in psi(i); None when no uniform witness exists."""
    if phi.index != psi.index:
        raise StructureError("predicates over different index sets")
    needed = 0
    for i in phi.index:
        needed |= aks.push_image(aks.facing_terms(aks.stack_mask(phi(i))),
                                 aks.stack_mask(psi(i)))
    return aks.first_quasi_proof(needed)


def localic_criterion(opca):
    """First filter element e with: b in A', b·a in U implies e·a in U.

    A witness makes the induced Boolean preorder localic; the search is
    exhaustive over the filter in carrier order.
    """
    U = opca.U
    if opca.filter is None or U is None:
        raise StructureError("localic criterion needs a filter and U", source=opca.name)
    triggers = [a for a in opca.elements if any(opca.app(b, a) in U for b in opca.filter)]
    return next((e for e in opca.ordered(opca.filter)
                 if all(opca.app(e, a) in U for a in triggers)), None)
