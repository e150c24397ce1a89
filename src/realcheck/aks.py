"""Abstract Krivine structures and the orthogonality apparatus.

An aks packages terms with a total binary operation and distinguished
K/S/cc, stacks with push and a continuation constant per stack, a set of
quasi-proofs closed under the operation, and a pole of term/stack pairs
closed under the five machine-step rules (S1)-(S5).

Provided here: the pole-axiom checker, the construction of an aks from a
filtered opca with a downward closed U disjoint from the filter, the
induced total order-ca on biorthogonally closed stack sets with its
filter, and the forcing-style condition on quasi-proofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .bco import find_top, opca_to_bco, tv_least
from .errors import CapExceeded, ConstructionError, StructureError
from .opca import (FiniteOpca, check_filter, check_opca_axioms, derive_sequence_kit,
                   k_law, s_law)
from .report import Report
from .terms import Const, Var, app, lam

__all__ = [
    "Aks", "orthogonal_terms", "orthogonal_stacks", "biorthogonal_closure",
    "check_aks", "BuiltAks", "build_aks",
    "closed_stack_sets", "aks_apply", "aks_imp", "cc_element",
    "OrderCa", "order_ca", "check_order_ca", "check_kr",
]


@dataclass(frozen=True, eq=False)
class Aks:
    """Terms, stacks, total dot/push/kOf tables, K/S/cc, quasi-proofs, pole."""

    terms: tuple
    stacks: tuple
    dot: dict      # (t, s) -> term, total
    push: dict     # (t, pi) -> stack, total
    kof: dict      # pi -> term, total
    K: object
    S: object
    cc: object
    qp: frozenset
    pole: frozenset  # of (term, stack)
    name: str = "aks"
    term_set: frozenset = field(init=False)
    stack_set: frozenset = field(init=False)

    def __post_init__(self):
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
        object.__setattr__(self, "term_set", term_set)
        object.__setattr__(self, "stack_set", stack_set)

    def in_pole(self, t, pi):
        return (t, pi) in self.pole

    def app_dot(self, t, s):
        return self.dot[(t, s)]

    def app_push(self, t, pi):
        return self.push[(t, pi)]


def orthogonal_stacks(aks, term_subset):
    """All stacks facing every term of the subset inside the pole."""
    return frozenset(pi for pi in aks.stacks
                     if all(aks.in_pole(t, pi) for t in term_subset))


def orthogonal_terms(aks, stack_subset):
    """All terms facing every stack of the subset inside the pole."""
    return frozenset(t for t in aks.terms
                     if all(aks.in_pole(t, pi) for pi in stack_subset))


def biorthogonal_closure(aks, subset):
    """Orthogonal twice; a closure operator on stack sets."""
    return orthogonal_stacks(aks, orthogonal_terms(aks, subset))


def check_aks(aks):
    """Structure clauses plus the five pole rules, each with a counterexample."""
    rep = Report(aks.name)
    rep.verdict("aks.qp_has_basis",
                next(((x,) for x in (aks.K, aks.S, aks.cc) if x not in aks.qp), None))
    ordered_qp = [t for t in aks.terms if t in aks.qp]
    rep.verdict("aks.qp_dot_closed",
                next(((t, s) for t in ordered_qp for s in ordered_qp
                      if aks.app_dot(t, s) not in aks.qp), None))
    rep.verdict("aks.s1_dot",
                next(((t, s, pi) for t in aks.terms for s in aks.terms for pi in aks.stacks
                      if aks.in_pole(t, aks.app_push(s, pi))
                      and not aks.in_pole(aks.app_dot(t, s), pi)), None))
    rep.verdict("aks.s2_K",
                next(((t, s, pi) for t in aks.terms for pi in aks.stacks for s in aks.terms
                      if aks.in_pole(t, pi)
                      and not aks.in_pole(aks.K, aks.app_push(t, aks.app_push(s, pi)))), None))
    rep.verdict("aks.s3_S",
                next(((t, s, u, pi) for t in aks.terms for s in aks.terms for u in aks.terms
                      for combined in [aks.app_dot(aks.app_dot(t, u), aks.app_dot(s, u))]
                      for pi in aks.stacks
                      if aks.in_pole(combined, pi)
                      and not aks.in_pole(
                          aks.S, aks.app_push(t, aks.app_push(s, aks.app_push(u, pi))))), None))
    rep.verdict("aks.s4_cc",
                next(((t, pi) for t in aks.terms for pi in aks.stacks
                      if aks.in_pole(t, aks.app_push(aks.kof[pi], pi))
                      and not aks.in_pole(aks.cc, aks.app_push(t, pi))), None))
    rep.verdict("aks.s5_kof",
                next(((t, pi, pi2) for t in aks.terms for pi in aks.stacks for pi2 in aks.stacks
                      if aks.in_pole(t, pi)
                      and not aks.in_pole(aks.kof[pi], aks.app_push(t, pi2))), None))
    return rep


# ---------------------------------------------------------------------------
# The construction from a filtered opca and a downset avoiding the filter
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BuiltAks:
    aks: Aks
    opca: FiniteOpca
    kit: object
    canonical_seq: dict  # stack value -> the sequence that produced it


def build_aks(opca, max_len=3, U=None, name=None):
    """The Krivine structure over (A, A') with pole {(t, pi) | t·pi in U}.

    Terms are the carrier, quasi-proofs the filter, stacks the values of
    coded sequences of length <= max_len (closed under push, which applies
    the list-extension combinator d).  The distinguished terms are the
    stack-decomposing combinators built from the sequence kit.
    """
    U = frozenset(U) if U is not None else opca.U
    if opca.filter is None or U is None:
        raise StructureError("build_aks needs a filter and a downset U", source=opca.name)
    if not U <= opca.element_set:
        raise StructureError("subset escapes carrier", source=opca.name, field="U")
    if not opca.is_downward_closed(U):
        raise StructureError("U is not downward closed", source=opca.name, field="U")
    if U & opca.filter:
        raise StructureError("U meets the filter", source=opca.name, field="U")

    # b, c, d and the sequence codes are the kit's: evaluated and verified once
    kit = derive_sequence_kit(opca, max_len=max_len)
    b_el = kit.element(kit.b)
    c_el = kit.element(kit.c)
    d_el = kit.element(kit.d)

    def apply_or_die(f, x, what, *args):
        """f·x; ``what`` is formatted with ``args`` only when it is undefined."""
        out = opca.app(f, x)
        if out is None:
            raise ConstructionError(f"{what.format(*args)} undefined during aks construction")
        return out

    # stacks: values of short codes, then closed under push = d-application
    canonical = {}
    for length in range(max_len + 1):
        for seq in product(opca.elements, repeat=length):
            value = kit.seq_value(seq)
            canonical.setdefault(value, seq)
    frontier = list(canonical)
    while frontier:
        pi = frontier.pop()
        for a in opca.elements:
            da = apply_or_die(d_el, a, "d·{}", a)
            v = apply_or_die(da, pi, "d·{}·{}", a, pi)
            if v not in canonical:
                canonical[v] = (a,) + canonical[pi]
                frontier.append(v)
    stacks = tuple(opca.ordered(canonical))

    # dot(a, b) = <pi> a (b.pi), applied through an evaluated closed term
    bC, cC, dC = Const(b_el), Const(c_el), Const(d_el)
    dot_term = lam("x y p", app(Var("x"), app(dC, Var("y"), Var("p"))))
    dot_el = kit.element(dot_term)

    def nth(i, rho):
        return app(bC, Const(kit.numeral_value(i)), rho)

    def tail_from(j, rho):
        return app(cC, Const(kit.numeral_value(j)), rho)

    k_term = lam("p", app(nth(0, Var("p")), tail_from(2, Var("p"))))
    s_term = lam("p", app(
        app(Const(dot_el),
            app(Const(dot_el), nth(0, Var("p")), nth(2, Var("p"))),
            app(Const(dot_el), nth(1, Var("p")), nth(2, Var("p")))),
        tail_from(3, Var("p"))))
    kof_term = lam("q p", app(nth(0, Var("p")), Var("q")))
    kof_el = kit.element(kof_term)
    cc_term = lam("p", app(
        nth(0, Var("p")),
        app(dC, app(Const(kof_el), tail_from(1, Var("p"))), tail_from(1, Var("p")))))

    K_el = kit.element(k_term)
    S_el = kit.element(s_term)
    cc_el = kit.element(cc_term)

    dot = {}
    for t in opca.elements:
        dt = apply_or_die(dot_el, t, "dot·{}", t)
        for s in opca.elements:
            dot[(t, s)] = apply_or_die(dt, s, "dot·{}·{}", t, s)
    push = {}
    for t in opca.elements:
        dt = apply_or_die(d_el, t, "d·{}", t)
        for pi in stacks:
            push[(t, pi)] = apply_or_die(dt, pi, "push {}.{}", t, pi)
    kof = {pi: apply_or_die(kof_el, pi, "kOf({})", pi) for pi in stacks}
    pole = frozenset((t, pi) for t in opca.elements for pi in stacks
                     if opca.app(t, pi) is not None and opca.app(t, pi) in U)

    aks = Aks(terms=tuple(opca.elements), stacks=stacks, dot=dot, push=push,
              kof=kof, K=K_el, S=S_el, cc=cc_el, qp=opca.filter, pole=pole,
              name=name or f"K({opca.name},U={sorted(map(str, U))})")
    return BuiltAks(aks=aks, opca=opca, kit=kit, canonical_seq=canonical)


# ---------------------------------------------------------------------------
# The induced order-ca on biorthogonally closed stack sets
# ---------------------------------------------------------------------------

def closed_stack_sets(aks, cap=1 << 12):
    """All biorthogonally closed stack sets, via closing every subset."""
    if 1 << len(aks.stacks) > cap:
        raise CapExceeded(f"stack subsets of {aks.name}", 1 << len(aks.stacks), cap)
    index = {pi: i for i, pi in enumerate(aks.stacks)}
    out = set()
    for mask in range(1 << len(aks.stacks)):
        seed = frozenset(pi for i, pi in enumerate(aks.stacks) if mask >> i & 1)
        out.add(biorthogonal_closure(aks, seed))
    return sorted(out, key=lambda s: (len(s), tuple(sorted(index[pi] for pi in s))))


def aks_apply(aks, alpha, beta):
    """alpha·beta: close the stacks facing every pair from |alpha| x |beta|."""
    ta = orthogonal_terms(aks, alpha)
    tb = orthogonal_terms(aks, beta)
    base = frozenset(pi for pi in aks.stacks
                     if all(aks.in_pole(t, aks.app_push(s, pi)) for t in ta for s in tb))
    return biorthogonal_closure(aks, base)


def aks_imp(aks, alpha, beta):
    """alpha => beta: close {t.pi | t in |alpha|, pi in beta}."""
    ta = orthogonal_terms(aks, alpha)
    base = frozenset(aks.app_push(t, pi) for t in ta for pi in beta)
    return biorthogonal_closure(aks, base)


def cc_element(aks):
    """The element realizing the classical-logic law: stacks facing cc."""
    return orthogonal_stacks(aks, frozenset((aks.cc,)))


@dataclass(frozen=True, eq=False)
class OrderCa:
    aks: Aks
    opca: FiniteOpca  # carrier = closed stack sets, reverse inclusion, total app


def order_ca(aks, cap=1 << 12):
    """The induced total order-ca on closed stack sets, with its filter.

    Order is reverse inclusion; k and s are searched first among the
    orthogonals of single quasi-proofs, then over the whole filter, then
    the carrier.  Raises ConstructionError when no pair satisfies the laws.
    """
    carrier = closed_stack_sets(aks, cap=cap)
    leq = frozenset((a, b) for a in carrier for b in carrier if b <= a)
    table = {}
    for alpha in carrier:
        for beta in carrier:
            table[(alpha, beta)] = aks_apply(aks, alpha, beta)
    filt = frozenset(alpha for alpha in carrier
                     if orthogonal_terms(aks, alpha) & aks.qp)

    candidates = []
    for q in (t for t in aks.terms if t in aks.qp):
        cand = orthogonal_stacks(aks, frozenset((q,)))
        if cand in filt and cand not in candidates:
            candidates.append(cand)
    for alpha in carrier:
        if alpha in filt and alpha not in candidates:
            candidates.append(alpha)
    candidates.extend(alpha for alpha in carrier if alpha not in candidates)

    # the laws do not read the designated k and s, so a draft carries any
    draft = FiniteOpca(elements=tuple(carrier), leq_pairs=leq, table=table,
                       k=carrier[0], s=carrier[0], filter=filt, name=f"P({aks.name})")
    k = next((cand for cand in candidates if k_law(draft, cand) is None), None)
    s = next((cand for cand in candidates if s_law(draft, cand) is None), None)
    if k is None or s is None:
        raise ConstructionError(f"no k/s pair for the order-ca of {aks.name}")
    return OrderCa(aks=aks, opca=draft.replace(k=k, s=s))


def check_order_ca(aks, cap=1 << 12):
    """Verify the induced structure is a filtered opca (axioms + filter)."""
    oca = order_ca(aks, cap=cap)
    rep = check_opca_axioms(oca.opca)
    rep.extend(check_filter(oca.opca, oca.opca.filter))
    rep.verdict("orderca.filter_upward_closed",
                next(((a, b) for a in oca.opca.filter for b in oca.opca.elements
                      if oca.opca.leq(a, b) and b not in oca.opca.filter), None))
    return oca, rep


def check_kr(aks):
    """The forcing condition: a quasi-proof facing t.s.pi and s.t.pi for all
    t, pi and every s orthogonal to the whole stack set.  Returns the first
    witness in QP order, else None."""
    everywhere = orthogonal_terms(aks, frozenset(aks.stacks))
    ordered_qp = [t for t in aks.terms if t in aks.qp]
    return next((a for a in ordered_qp
                 if all(aks.in_pole(a, aks.app_push(t, aks.app_push(s, pi)))
                        and aks.in_pole(a, aks.app_push(s, aks.app_push(t, pi)))
                        for s in everywhere for t in aks.terms for pi in aks.stacks)), None)


def tv_least_of_aks(aks, cap=1 << 12):
    """Least designated truth value of the induced order-ca, or None.

    Uses the top-only search: the order-ca is a total filtered opca, where
    binary internal meets always exist through pairing, so re-verifying the
    meet adjunction per fixture would only repeat the bco-level tests.
    """
    oca = order_ca(aks, cap=cap)
    view = opca_to_bco(oca.opca)
    top = find_top(view)
    if top is None:
        raise ConstructionError(f"order-ca of {aks.name} has no internal top")
    return tv_least(view, top=top[0])
