"""Abstract Krivine structures and the orthogonality apparatus.

An aks packages terms with a total binary operation and distinguished
K/S/cc, stacks with push and a continuation constant per stack, a set of
quasi-proofs closed under the operation, and a pole of term/stack pairs
closed under the five machine-step rules (S1)-(S5).

Provided here: the pole-axiom checker, the construction of an aks from a
filtered opca with a downward closed U disjoint from the filter, the
induced total order-ca on biorthogonally closed stack sets with its
filter, and the forcing-style condition on quasi-proofs.  Closed stack
sets come from ``poset.closed_masks``, which also lists downsets.
"""

from __future__ import annotations

from itertools import product

from . import bco as bcomod, opca as opcamod, terms as termsmod
from .errors import ConstructionError, StructureError
from .poset import bits, closed_masks
from .record import Frozen, set_field
from .report import Report

__all__ = [
    "Aks", "orthogonal_terms", "orthogonal_stacks", "biorthogonal_closure",
    "check_aks", "BuiltAks", "build_aks",
    "closed_stack_sets", "aks_apply", "aks_imp", "cc_element",
    "OrderCa", "order_ca", "check_order_ca", "check_kr", "tv_least_of_aks",
]

CLOSED_SET_CAP = 1 << 12  # most closed stack sets listed; one more is CapExceeded


class Aks(Frozen):
    """Terms, stacks, total dot/push/kOf tables, K/S/cc, quasi-proofs, pole.

    The pole is also kept as a formal context over indices: ``rows[i]`` is
    the int mask of the stacks facing term i; ``push_index[i][j]``,
    ``dot_index[i][k]`` and ``kof_index[j]`` are the tables in indices.  The mask methods below
    work on these; the module functions keep the frozenset interface.
    """

    _fields = ("terms", "stacks", "dot", "push", "kof", "K", "S", "cc", "qp", "pole", "name",
               "term_set", "stack_set")

    def __init__(self, terms, stacks, dot, push, kof, K, S, cc, qp, pole, name="aks"):
        set_field(self, "terms", terms)
        set_field(self, "stacks", stacks)
        set_field(self, "dot", dot)  # (t, s) -> term, total
        set_field(self, "push", push)  # (t, pi) -> stack, total
        set_field(self, "kof", kof)  # pi -> term, total
        set_field(self, "K", K)
        set_field(self, "S", S)
        set_field(self, "cc", cc)
        set_field(self, "qp", qp)
        set_field(self, "pole", pole)  # of (term, stack)
        set_field(self, "name", name)
        term_set, stack_set = frozenset(self.terms), frozenset(self.stacks)
        if not term_set or not stack_set:
            raise StructureError("aks needs nonempty terms and stacks", source=self.name)
        for where, names, unique in (("terms", self.terms, term_set),
                                     ("stacks", self.stacks, stack_set)):
            if len(names) != len(unique):
                raise StructureError(f"duplicate {where}", source=self.name, field=where)
        for where, table, keys, values in (
                ("dot", self.dot, product(self.terms, self.terms), term_set),
                ("push", self.push, product(self.terms, self.stacks), stack_set),
                ("kOf", self.kof, self.stacks, term_set)):
            keys = list(keys)
            allowed = frozenset(keys)
            stray = [key for key in table if key not in allowed]
            if stray:
                raise StructureError(f"{where} entry {stray[0]!r} outside carrier",
                                     source=self.name, field=where)
            gaps = [key for key in keys if table.get(key) not in values]
            if gaps:
                raise StructureError(f"{where} not total at {gaps[0]!r}",
                                     source=self.name, field=where)
        for x, where in ((self.K, "K"), (self.S, "S"), (self.cc, "cc")):
            if x not in term_set:
                raise StructureError("distinguished term outside carrier",
                                     source=self.name, field=where)
        if not self.qp <= term_set:
            raise StructureError("QP escapes terms", source=self.name, field="QP")
        for (t, pi) in self.pole:
            if t not in term_set or pi not in stack_set:
                raise StructureError("pole entry outside carrier",
                                     source=self.name, field="pole")
        ti = {t: i for i, t in enumerate(self.terms)}
        si = {pi: j for j, pi in enumerate(self.stacks)}
        rows = [0] * len(self.terms)
        for (t, pi) in self.pole:
            rows[ti[t]] |= 1 << si[pi]
        # full: every stack; _closed: the closed masks, once enumerated
        for attr, value in (
                ("term_set", term_set), ("stack_set", stack_set),
                ("term_index", ti), ("stack_index", si),
                ("rows", tuple(rows)),
                ("push_index", tuple(tuple(si[self.push[(t, pi)]] for pi in self.stacks)
                                     for t in self.terms)),
                ("dot_index", tuple(tuple(ti[self.dot[(t, s)]] for s in self.terms)
                                    for t in self.terms)),
                ("kof_index", tuple(ti[self.kof[pi]] for pi in self.stacks)),
                ("full", (1 << len(self.stacks)) - 1),
                ("_closed", None)):
            set_field(self, attr, value)

    def in_pole(self, t, pi):
        return (t, pi) in self.pole

    def app_dot(self, t, s):
        return self.dot[(t, s)]

    def app_push(self, t, pi):
        return self.push[(t, pi)]

    # -- masks over term and stack indices ------------------------------

    def term_mask(self, terms):
        return _mask(self.term_index, terms, "term", self.name)

    def stack_mask(self, stacks):
        return _mask(self.stack_index, stacks, "stack", self.name)

    def stacks_of(self, mask):
        return frozenset(pi for j, pi in enumerate(self.stacks) if mask >> j & 1)

    def terms_of(self, mask):
        return frozenset(t for i, t in enumerate(self.terms) if mask >> i & 1)

    def facing_stacks(self, term_mask):
        """Stacks facing every term of the mask: an AND of rows."""
        out = self.full
        for i, row in enumerate(self.rows):
            if term_mask >> i & 1:
                out &= row
        return out

    def facing_terms(self, stack_mask):
        """Terms facing every stack of the mask."""
        out = 0
        for i, row in enumerate(self.rows):
            if row & stack_mask == stack_mask:
                out |= 1 << i
        return out

    def close(self, stack_mask):
        """The biorthogonal closure: the AND of the rows that contain the mask."""
        out = self.full
        for row in self.rows:
            if row & stack_mask == stack_mask:
                out &= row
        return out

    def first_quasi_proof(self, stack_mask):
        """The first quasi-proof in term order facing every stack of the mask, or None."""
        return next((t for t, row in zip(self.terms, self.rows)
                     if t in self.qp and row & stack_mask == stack_mask), None)

    def push_image(self, term_mask, stack_mask):
        """{t.pi | t in the term mask, pi in the stack mask}."""
        out = 0
        for i, targets in enumerate(self.push_index):
            if term_mask >> i & 1:
                for j, k in enumerate(targets):
                    if stack_mask >> j & 1:
                        out |= 1 << k
        return out


def _mask(index, items, kind, name):
    """The mask of ``items`` under ``index``; an item outside it is a
    StructureError naming it."""
    mask = 0
    for x in items:
        if x not in index:
            raise StructureError(f"{kind} {x!r} outside the carrier", source=name)
        mask |= 1 << index[x]
    return mask


def orthogonal_stacks(aks, term_subset):
    """All stacks facing every term of the subset inside the pole."""
    return aks.stacks_of(aks.facing_stacks(aks.term_mask(term_subset)))


def orthogonal_terms(aks, stack_subset):
    """All terms facing every stack of the subset inside the pole."""
    return aks.terms_of(aks.facing_terms(aks.stack_mask(stack_subset)))


def biorthogonal_closure(aks, subset):
    """Orthogonal twice; a closure operator on stack sets."""
    return aks.stacks_of(aks.close(aks.stack_mask(subset)))


def _pull(targets, mask):
    """Mask of the positions j whose target ``targets[j]`` lies in ``mask``."""
    out = 0
    for j, k in enumerate(targets):
        if mask >> k & 1:
            out |= 1 << j
    return out


def _low(mask):
    """The index of the lowest set bit."""
    return (mask & -mask).bit_length() - 1


def check_aks(aks):
    """Structure clauses plus the five pole rules, each with a counterexample.

    Each rule says that a pair in the pole forces another pair into it.  Per
    prefix of the quantified terms one pre-image mask holds the stacks where
    the conclusion holds, and the counterexample is the lowest stack of the
    premise outside it: the first one in the order of the quantifiers.
    """
    rep = Report(aks.name)
    rep.verdict("aks.qp_has_basis",
                next(((x,) for x in (aks.K, aks.S, aks.cc) if x not in aks.qp), None))
    ordered_qp = [t for t in aks.terms if t in aks.qp]
    rep.verdict("aks.qp_dot_closed",
                next(((t, s) for t in ordered_qp for s in ordered_qp
                      if aks.app_dot(t, s) not in aks.qp), None))
    T, P, rows = aks.terms, aks.stacks, aks.rows
    push, dot, kof = aks.push_index, aks.dot_index, aks.kof_index
    ix = range(len(T))
    row_k, row_s, row_cc = (rows[aks.term_index[x]] for x in (aks.K, aks.S, aks.cc))
    # (S1) t faces s.pi  =>  ts faces pi
    rep.verdict("aks.s1_dot",
                next(((T[t], T[s], P[_low(bad)]) for t in ix for s in ix
                      if (bad := _pull(push[s], rows[t]) & ~rows[dot[t][s]])), None))
    # (S2) t faces pi  =>  K faces t.s.pi, quantified as t, pi, s
    rep.verdict("aks.s2_K",
                next(((T[t], T[s], P[j]) for t in ix
                      for by_t in [_pull(push[t], row_k)]
                      for needs in [[_pull(push[s], by_t) for s in ix]]
                      for j in bits(rows[t]) for s in ix
                      if not needs[s] >> j & 1), None))
    # (S3) (tu)(su) faces pi  =>  S faces t.s.u.pi
    rep.verdict("aks.s3_S",
                next(((T[t], T[s], T[u], P[_low(bad)]) for t in ix
                      for by_t in [_pull(push[t], row_s)] for s in ix
                      for by_ts in [_pull(push[s], by_t)] for u in ix
                      if (bad := rows[dot[dot[t][u]][dot[s][u]]] & ~_pull(push[u], by_ts))),
                     None))
    # (S4) t faces k_pi.pi  =>  cc faces t.pi
    kof_push = tuple(push[kof[j]][j] for j in range(len(P)))
    rep.verdict("aks.s4_cc",
                next(((T[t], P[_low(bad)]) for t in ix
                      if (bad := _pull(kof_push, rows[t]) & ~_pull(push[t], row_cc))), None))
    # (S5) t faces pi  =>  k_pi faces t.pi' for every pi'
    rep.verdict("aks.s5_kof",
                next(((T[t], P[j], P[_low(bad)]) for t in ix for j in bits(rows[t])
                      if (bad := aks.full & ~_pull(push[t], rows[kof[j]]))), None))
    return rep


# ---------------------------------------------------------------------------
# The construction from a filtered opca and a downset avoiding the filter
# ---------------------------------------------------------------------------

# The distinguished terms of the construction, in the surface syntax.  Each
# identifier is a slot (``terms.compile_closed``): b, c, d and the numerals
# n0..n3 are the kit's values, dot and kOf the values of the first two terms.
# b n rho is rho's n-th item and c n rho its tail from the n-th on.
_DOT = r"\x y p. x (d y p)"  # dot(a, b) = <pi> a (b.pi)
_KOF = r"\q p. b n0 p q"
_K = r"\p. b n0 p (c n2 p)"
_S = r"\p. dot (dot (b n0 p) (b n2 p)) (dot (b n1 p) (b n2 p)) (c n3 p)"
_CC = r"\p. b n0 p (d (kOf (c n1 p)) (c n1 p))"


def _kit_values(opca, slots, *sources):
    """The values of the closed ``sources`` with their slots filled from
    ``slots``; the first undefined one raises, naming its term."""
    program = termsmod.compile_closed(*sources)
    values = program.run(opca, slots)
    for i, value in enumerate(values):
        if value is None:
            raise ConstructionError(f"kit term undefined: {program.filled(i, slots)!r}")
    return values


class BuiltAks(Frozen):
    _fields = ("aks", "opca", "kit")


def build_aks(opca, max_len=3, U=None):
    """The Krivine structure over (A, A') with pole {(t, pi) | t·pi in U}.

    Terms are the carrier, quasi-proofs the filter, stacks the values of
    coded sequences of length <= max_len (closed under push, which applies
    the list-extension combinator d).  The distinguished terms are the
    stack-decomposing combinators built from the sequence kit.
    """
    U = frozenset(U) if U is not None else opca.U
    if opca.filter is None or U is None:
        raise StructureError("build_aks needs a filter and a downset U", source=opca.name)
    if U is not opca.U:  # opca.U was checked when opca was built; replace checks U
        opca.replace(U=U)
    if U & opca.filter:
        raise StructureError("U meets the filter", source=opca.name, field="U")

    # b, c, d and the sequence codes are the kit's: evaluated and verified once
    kit = opcamod.derive_sequence_kit(opca, max_len=max_len)
    slots = {name: kit.element(term) for name, term in (("b", kit.b), ("c", kit.c), ("d", kit.d))}
    d_el = slots["d"]

    def apply_or_die(f, x, what, *args):
        """f·x; ``what`` is formatted with ``args`` only when it is undefined."""
        out = opca.app(f, x)
        if out is None:
            raise ConstructionError(f"{what.format(*args)} undefined during aks construction")
        return out

    # stacks: the codes of the sequences of length <= max_len, which the kit
    # check lists, then closed under push = d-application
    d_row = [(a, apply_or_die(d_el, a, "d·{}", a)) for a in opca.elements]
    frontier = list(kit.stack_codes)
    seen = set(frontier)
    while frontier:
        pi = frontier.pop()
        for a, da in d_row:
            v = apply_or_die(da, pi, "d·{}·{}", a, pi)
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    stacks = tuple(opca.ordered(seen))

    # dot first, then the numerals in the order K and S name them, so that an
    # undefined one is reported in that order; then kOf, K, S and cc
    [dot_el] = _kit_values(opca, slots, _DOT)
    slots["dot"] = dot_el
    for n in (0, 2, 1, 3):
        slots[f"n{n}"] = kit.numeral_value(n)
    [kof_el] = _kit_values(opca, slots, _KOF)
    slots["kOf"] = kof_el
    K_el, S_el, cc_el = _kit_values(opca, slots, _K, _S, _CC)

    dot = {}
    for t in opca.elements:
        dt = apply_or_die(dot_el, t, "dot·{}", t)
        for s in opca.elements:
            dot[(t, s)] = apply_or_die(dt, s, "dot·{}·{}", t, s)
    push = {(t, pi): apply_or_die(dt, pi, "push {}.{}", t, pi)
            for t, dt in d_row for pi in stacks}
    kof = {pi: apply_or_die(kof_el, pi, "kOf({})", pi) for pi in stacks}
    # None is never in U, so an undefined t·pi is outside the pole
    pole = frozenset((t, pi) for t in opca.elements for pi in stacks
                     if opca.app(t, pi) in U)

    aks = Aks(terms=tuple(opca.elements), stacks=stacks, dot=dot, push=push,
              kof=kof, K=K_el, S=S_el, cc=cc_el, qp=opca.filter, pole=pole,
              name=f"K({opca.name},U={sorted(map(str, U))})")
    return BuiltAks(aks=aks, opca=opca, kit=kit)


# ---------------------------------------------------------------------------
# The induced order-ca on biorthogonally closed stack sets
# ---------------------------------------------------------------------------

def _closed_masks(aks):
    """Every closed stack mask (``poset.closed_masks`` of ``Aks.close``), or
    CapExceeded past ``CLOSED_SET_CAP``.  The list is kept on the structure,
    so a later call, direct or through ``order_ca``, does not enumerate again.
    """
    masks = aks._closed
    if masks is None:
        masks = closed_masks(len(aks.stacks), aks.close, CLOSED_SET_CAP,
                             f"closed stack sets of {aks.name}")
        object.__setattr__(aks, "_closed", masks)
    return masks


def closed_stack_sets(aks):
    """All biorthogonally closed stack sets, by size, then by stack indices.

    Refuses with CapExceeded when there are more than ``CLOSED_SET_CAP``.
    """
    return [aks.stacks_of(m) for m in _closed_masks(aks)]


def _apply_mask(aks, alpha, beta):
    """alpha·beta on masks.  Every t in |alpha| faces s.pi exactly when s.pi
    lies in the closure of alpha, so the base is the pre-image of that
    closure under the push of each s in |beta|."""
    closed, base = aks.close(alpha), aks.full
    for s in bits(aks.facing_terms(beta)):
        base &= _pull(aks.push_index[s], closed)
    return aks.close(base)


def aks_apply(aks, alpha, beta):
    """alpha·beta: close the stacks facing every pair from |alpha| x |beta|."""
    return aks.stacks_of(_apply_mask(aks, aks.stack_mask(alpha), aks.stack_mask(beta)))


def aks_imp(aks, alpha, beta):
    """alpha => beta: close {t.pi | t in |alpha|, pi in beta}."""
    return aks.stacks_of(aks.close(aks.push_image(aks.facing_terms(aks.stack_mask(alpha)),
                                                  aks.stack_mask(beta))))


def cc_element(aks):
    """The element realizing the classical-logic law: stacks facing cc."""
    return aks.stacks_of(aks.rows[aks.term_index[aks.cc]])


class OrderCa(Frozen):
    _fields = ("aks",
               "opca")  # carrier = closed stack sets, reverse inclusion, total app


def order_ca(aks):
    """The induced total order-ca on closed stack sets, with its filter.

    Order is reverse inclusion; k and s are searched first among the
    orthogonals of single quasi-proofs, then over the whole filter, then
    the carrier.  Raises ConstructionError when no pair satisfies the laws.
    """
    masks = _closed_masks(aks)
    carrier = [aks.stacks_of(m) for m in masks]
    named = dict(zip(masks, carrier))
    leq = frozenset((named[a], named[b]) for a in masks for b in masks if not b & ~a)
    table = {}
    for alpha in masks:
        for beta in masks:
            table[(named[alpha], named[beta])] = named[_apply_mask(aks, alpha, beta)]
    qp = aks.term_mask(aks.qp)
    filt = frozenset(named[alpha] for alpha in masks if aks.facing_terms(alpha) & qp)

    candidates = []
    for q, row in zip(aks.terms, aks.rows):
        if q in aks.qp and named[row] in filt and named[row] not in candidates:
            candidates.append(named[row])
    for alpha in carrier:
        if alpha in filt and alpha not in candidates:
            candidates.append(alpha)
    candidates.extend(alpha for alpha in carrier if alpha not in candidates)

    # the laws do not read the designated k and s, so a draft carries any
    draft = opcamod.FiniteOpca(elements=tuple(carrier), leq_pairs=leq, table=table,
                               k=carrier[0], s=carrier[0], filter=filt, name=f"P({aks.name})")
    ks = opcamod.first_ks(draft, candidates)
    if ks is None:
        raise ConstructionError(f"no k/s pair for the order-ca of {aks.name}")
    return OrderCa(aks=aks, opca=draft.replace(**ks))


def check_order_ca(aks):
    """Verify the induced structure is a filtered opca (axioms + filter)."""
    oca = order_ca(aks)
    opca = oca.opca
    rep = opcamod.check_opca_axioms(opca)
    rep.extend(opcamod.check_filter(opca, opca.filter))
    rep.verdict("orderca.filter_upward_closed",
                next(((a, b) for a in opca.ordered(opca.filter) for b in opca.elements
                      if opca.leq(a, b) and b not in opca.filter), None))
    return oca, rep


def check_kr(aks):
    """The forcing condition: a quasi-proof facing t.s.pi and s.t.pi for all
    t, pi and every s orthogonal to the whole stack set.  Returns the first
    witness in QP order, else None."""
    push = aks.push_index
    needed = 0
    for s in bits(aks.facing_terms(aks.full)):
        for t in range(len(aks.terms)):
            for j in range(len(aks.stacks)):
                needed |= 1 << push[t][push[s][j]] | 1 << push[s][push[t][j]]
    return aks.first_quasi_proof(needed)


def tv_least_of_aks(aks):
    """Least designated truth value of the induced order-ca, or None."""
    return bcomod.tv_least(order_ca(aks).opca)
