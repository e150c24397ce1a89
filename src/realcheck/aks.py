"""Abstract Krivine structures and the orthogonality apparatus.

An aks packages terms with a total binary operation and distinguished
K/S/cc, stacks with push and a continuation constant per stack, a set of
quasi-proofs closed under the operation, and a pole of term/stack pairs
closed under the five machine-step rules (S1)-(S5).

Provided here: the pole-axiom checker, the construction of an aks from a
filtered opca with a downward closed U disjoint from the filter, the
induced total order-ca on biorthogonally closed stack sets with its
filter, and the forcing-style condition on quasi-proofs.  Closed stack
sets come from ``poset.closed_masks``, which also lists downsets; once
listed they stay on the structure as a table of masks, stack sets and
facing terms (the intents and extents of the pole's formal concepts), which
the order-ca, implication, cc and the Streicher preorder read.  Every
question about t.pi in the pole goes through push on masks, one kernel
(``Aks.pull``, ``Aks.push_image``) that keeps each pre-image and image it
computes.  Those memos and the tables' indices read neither U nor the
pole, so they live on the structure's frame (``_Frame``), not per
structure: ``build_aks`` keeps one frame on the kit its opca keeps for
every U of that base, and a structure constructed directly builds its own.
"""

from __future__ import annotations

from itertools import product
from types import SimpleNamespace

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

    Everything but QP, the pole and the name is the structure's frame
    (``_Frame``): the carriers, the tables and their indices, and the memos
    of push on masks (``pull`` per term and mask, ``push_image`` per pair of
    masks).  A structure from ``build_aks`` shares the frame kept on its
    checked kit with every other U of that base; one constructed directly
    builds a frame of its own.  Outside its fields the structure keeps, once
    ``closed_stack_sets`` or ``order_ca`` has listed them, the closed masks
    with their stack sets and facing terms.  The mask methods read that
    table for a closed set and scan the rows for any other.  Each memo is a
    pure function of the fields, so equality, ``repr`` and the saved form are
    the same before and after they fill.
    """

    _fields = ("terms", "stacks", "dot", "push", "kof", "K", "S", "cc", "qp", "pole", "name")

    def __init__(self, terms, stacks, dot, push, kof, K, S, cc, qp, pole, name="aks"):
        frame = _Frame(terms, stacks, dot, push, kof, K, S, cc, name)
        if not qp <= frozenset(terms):
            raise StructureError("QP escapes terms", source=name, field="QP")
        ti, si = frame.term_index, frame.stack_index
        rows = [0] * len(terms)
        for (t, pi) in pole:
            i, j = ti.get(t), si.get(pi)
            if i is None or j is None:
                raise StructureError("pole entry outside carrier", source=name, field="pole")
            rows[i] |= 1 << j
        _bind(self, frame, qp, pole, tuple(rows), name)

    # -- masks over term and stack indices ------------------------------

    def term_mask(self, terms):
        return _mask(self.term_index, terms, "term", self.name)

    def stack_mask(self, stacks):
        if isinstance(stacks, frozenset):
            mask = self._masks.get(stacks)
            if mask is not None:
                return mask
        return _mask(self.stack_index, stacks, "stack", self.name)

    def stacks_of(self, mask):
        out = self._closed.get(mask)
        return _items(self.stacks, mask) if out is None else out[0]

    def facing_stacks(self, term_mask):
        """Stacks facing every term of the mask: an AND of rows."""
        out = self.full
        for i, row in enumerate(self.rows):
            if term_mask >> i & 1:
                out &= row
        return out

    def facing_terms(self, stack_mask):
        """Terms facing every stack of the mask."""
        out = self._closed.get(stack_mask)
        return _facing(self.rows, stack_mask) if out is None else out[1]

    def close(self, stack_mask):
        """The biorthogonal closure: the AND of the rows that contain the mask."""
        if stack_mask in self._closed:
            return stack_mask
        return _close(self.rows, self.full, stack_mask)

    def first_quasi_proof(self, stack_mask):
        """The first quasi-proof in term order facing every stack of the mask, or None."""
        return next((t for t, row in zip(self.terms, self.rows)
                     if t in self.qp and row & stack_mask == stack_mask), None)

    # -- push on masks: the kernel that every pole computation reads ----

    def pull(self, t, mask):
        """The stacks pi with t.pi in the stack mask, for the term index t."""
        memo = self._pulls[t]
        out = memo.get(mask)
        if out is None:
            out = memo[mask] = _pull(self.push_index[t], mask)
        return out

    def push_image(self, term_mask, stack_mask):
        """{t.pi | t in the term mask, pi in the stack mask}."""
        key = (term_mask, stack_mask)
        out = self._images.get(key)
        if out is None:
            out = self._images[key] = _image(self.push_index, term_mask, stack_mask)
        return out


class _Frame:
    """The part of a Krivine structure that QP, the pole and the name do not
    touch: the carriers, dot, push, kOf, K, S and cc, their indices, and
    the memos of the push kernel (``_pulls`` per term, ``_images``), which
    read only ``push_index``.  Building it checks the fields it holds, in
    the order and with the texts that ``Aks`` reports; ``name`` only names
    the structure in those errors.
    """

    __slots__ = ("terms", "stacks", "dot", "push", "kof", "K", "S", "cc",
                 "term_index", "stack_index", "push_index", "dot_index", "kof_index",
                 "full", "_pulls", "_images")

    def __init__(self, terms, stacks, dot, push, kof, K, S, cc, name):
        term_set, stack_set = frozenset(terms), frozenset(stacks)
        if not term_set or not stack_set:
            raise StructureError("aks needs nonempty terms and stacks", source=name)
        for where, names, unique in (("terms", terms, term_set), ("stacks", stacks, stack_set)):
            if len(names) != len(unique):
                raise StructureError(f"duplicate {where}", source=name, field=where)
        ti = {t: i for i, t in enumerate(terms)}
        si = {pi: j for j, pi in enumerate(stacks)}
        dot_flat = _indices(dot, list(product(terms, terms)), ti, "dot", name)
        push_flat = _indices(push, list(product(terms, stacks)), si, "push", name)
        kof_index = tuple(_indices(kof, stacks, ti, "kOf", name))
        for x, where in ((K, "K"), (S, "S"), (cc, "cc")):
            if x not in term_set:
                raise StructureError("distinguished term outside carrier",
                                     source=name, field=where)
        m, n = len(terms), len(stacks)
        self.terms, self.stacks, self.dot, self.push, self.kof = terms, stacks, dot, push, kof
        self.K, self.S, self.cc = K, S, cc
        self.term_index, self.stack_index, self.kof_index = ti, si, kof_index
        self.push_index = tuple(tuple(push_flat[i * n:(i + 1) * n]) for i in range(m))
        self.dot_index = tuple(tuple(dot_flat[i * m:(i + 1) * m]) for i in range(m))
        self.full = (1 << n) - 1  # every stack
        self._pulls, self._images = tuple({} for _ in terms), {}


def _bind(aks, frame, qp, pole, rows, name):
    """Bind ``aks`` over the frame: the frame's fields, indices and push
    memos are shared; QP, the pole, its rows and the name are its own, and
    so is the table of closed masks, empty until listed (``_closed``: mask
    -> (stacks, facing terms), in list order; ``_masks``: stacks -> mask)."""
    for attr in _Frame.__slots__:
        set_field(aks, attr, getattr(frame, attr))
    for attr, value in (("qp", qp), ("pole", pole), ("name", name), ("rows", rows),
                        ("_closed", {}), ("_masks", {})):
        set_field(aks, attr, value)


def _indices(table, keys, index, where, name):
    """The index of each key's value in ``table``, in key order.  A key of the
    table outside ``keys`` is a StructureError naming the first one, and
    then so is the first key whose value is missing or outside ``index``."""
    out = [index.get(table.get(key)) for key in keys]
    if len(table) != len(out) or None in out:
        allowed = frozenset(keys)
        stray = [key for key in table if key not in allowed]
        if stray:
            raise StructureError(f"{where} entry {stray[0]!r} outside carrier",
                                 source=name, field=where)
        raise StructureError(f"{where} not total at {keys[out.index(None)]!r}",
                             source=name, field=where)
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


def _items(names, mask):
    """The frozenset of the names at the set bits of the mask."""
    return frozenset(x for j, x in enumerate(names) if mask >> j & 1)


def _facing(rows, stack_mask):
    """Mask of the rows that contain the stack mask."""
    out = 0
    for i, row in enumerate(rows):
        if row & stack_mask == stack_mask:
            out |= 1 << i
    return out


def _close(rows, full, stack_mask):
    """The AND of the rows that contain the stack mask (``full`` when none)."""
    out = full
    for row in rows:
        if row & stack_mask == stack_mask:
            out &= row
    return out


def orthogonal_stacks(aks, term_subset):
    """All stacks facing every term of the subset inside the pole."""
    return aks.stacks_of(aks.facing_stacks(aks.term_mask(term_subset)))


def orthogonal_terms(aks, stack_subset):
    """All terms facing every stack of the subset inside the pole."""
    return _items(aks.terms, aks.facing_terms(aks.stack_mask(stack_subset)))


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


def _image(push_index, term_mask, stack_mask):
    """Mask of the targets ``push_index[i][j]`` for i in the term mask, j in the stack mask."""
    out = 0
    for i, targets in enumerate(push_index):
        if term_mask >> i & 1:
            for j, k in enumerate(targets):
                if stack_mask >> j & 1:
                    out |= 1 << k
    return out


def _low(mask):
    """The index of the lowest set bit."""
    return (mask & -mask).bit_length() - 1


def check_aks(aks):
    """Structure clauses plus the five pole rules, each with a counterexample.

    Each rule says that a pair in the pole forces another pair into it.  Per
    prefix of the quantified terms one pre-image mask (``Aks.pull``) holds
    the stacks where the conclusion holds, and the counterexample is the
    lowest stack of the premise outside it: the first one in the order of
    the quantifiers.
    """
    rep = Report(aks.name)
    rep.verdict("aks.qp_has_basis",
                next(((x,) for x in (aks.K, aks.S, aks.cc) if x not in aks.qp), None))
    ordered_qp = [t for t in aks.terms if t in aks.qp]
    rep.verdict("aks.qp_dot_closed",
                next(((t, s) for t in ordered_qp for s in ordered_qp
                      if aks.dot[(t, s)] not in aks.qp), None))
    T, P, rows, pull = aks.terms, aks.stacks, aks.rows, aks.pull
    dot, kof = aks.dot_index, aks.kof_index
    ix = range(len(T))
    row_k, row_s, row_cc = (rows[aks.term_index[x]] for x in (aks.K, aks.S, aks.cc))
    # (S1) t faces s.pi  =>  ts faces pi
    rep.verdict("aks.s1_dot",
                next(((T[t], T[s], P[_low(bad)]) for t in ix for s in ix
                      if (bad := pull(s, rows[t]) & ~rows[dot[t][s]])), None))
    # (S2) t faces pi  =>  K faces t.s.pi, quantified as t, pi, s
    rep.verdict("aks.s2_K",
                next(((T[t], T[s], P[j]) for t in ix
                      for by_t in [pull(t, row_k)]
                      for needs in [[pull(s, by_t) for s in ix]]
                      for j in bits(rows[t]) for s in ix
                      if not needs[s] >> j & 1), None))
    # (S3) (tu)(su) faces pi  =>  S faces t.s.u.pi
    rep.verdict("aks.s3_S",
                next(((T[t], T[s], T[u], P[_low(bad)]) for t in ix
                      for by_t in [pull(t, row_s)] for s in ix
                      for by_ts in [pull(s, by_t)] for u in ix
                      if (bad := rows[dot[dot[t][u]][dot[s][u]]] & ~pull(u, by_ts))),
                     None))
    # (S4) t faces k_pi.pi  =>  cc faces t.pi.  The stacks pi with k_pi.pi in
    # a mask are, per value k of kOf, the pull through k cut to k's fibre;
    # the fibres are disjoint, so their sum is their union.
    fibres = {}
    for j, k in enumerate(kof):
        fibres[k] = fibres.get(k, 0) | 1 << j
    rep.verdict("aks.s4_cc",
                next(((T[t], P[_low(bad)]) for t in ix
                      if (bad := sum(pull(k, rows[t]) & fibre for k, fibre in fibres.items())
                          & ~pull(t, row_cc))), None))
    # (S5) t faces pi  =>  k_pi faces t.pi' for every pi'
    rep.verdict("aks.s5_kof",
                next(((T[t], P[j], P[_low(bad)]) for t in ix for j in bits(rows[t])
                      if (bad := aks.full & ~pull(t, rows[kof[j]]))), None))
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

    Only the pole reads U.  The rest, the frame (``_frame``) with its
    indices and push memos, is kept on the checked kit that the opca shares
    with its copies ``replace(U=...)``; per U this builds the pole and rows.
    """
    U = frozenset(U) if U is not None else opca.U
    if opca.filter is None or U is None:
        raise StructureError("build_aks needs a filter and a downset U", source=opca.name)
    if U is not opca.U:  # opca.U was checked when opca was built; replace checks U
        opca = opca.replace(U=U)
    if opca.U & opca.filter:
        raise StructureError("U meets the filter", source=opca.name, field="U")

    kit = opcamod.derive_sequence_kit(opca, max_len=max_len)
    frame = kit._frame
    if frame is None:
        frame = _frame(kit)
        set_field(kit, "_frame", frame)
    # None is never in U, so an undefined t·pi is outside the pole
    table, U, stacks = opca.table, opca.U, frame.stacks
    pole, rows = [], []
    for t in frame.terms:
        row = 0
        for j, pi in enumerate(stacks):
            if table.get((t, pi)) in U:
                pole.append((t, pi))
                row |= 1 << j
        rows.append(row)
    aks = Aks.__new__(Aks)
    _bind(aks, frame, opca.filter, frozenset(pole), tuple(rows),
          f"K({opca.name},U={sorted(map(str, U))})")
    return BuiltAks(aks=aks, opca=opca, kit=kit)


def _frame(kit):
    """The ``_Frame`` of the kit's opca, built without its U: the stacks, dot,
    push, kOf, K, S and cc, with their indices and empty push memos."""
    opca = kit.opca
    # b, c, d and the sequence codes are the kit's: evaluated and verified once
    slots = {name: kit.element(term) for name, term in (("b", kit.b), ("c", kit.c), ("d", kit.d))}
    d_el, table = slots["d"], opca.table

    def undefined(what):
        return ConstructionError(f"{what} undefined during aks construction")

    # stacks: the codes of the sequences of length <= max_len, which the kit
    # check lists, then closed under push = d-application; each stack is
    # pushed by every term once, so push is filled on the way.  Every d·a is
    # defined: the kit check reads d·a·code for the empty sequence.
    d_row = [(a, table[d_el, a]) for a in opca.elements]
    frontier = list(kit.stack_codes)
    seen = set(frontier)
    push = {}
    while frontier:
        pi = frontier.pop()
        for a, da in d_row:
            v = push[(a, pi)] = table.get((da, pi))
            if v is None:
                raise undefined(f"d·{a}·{pi}")
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
        dt = table.get((dot_el, t))
        if dt is None:
            raise undefined(f"dot·{t}")
        for s in opca.elements:
            v = dot[(t, s)] = table.get((dt, s))
            if v is None:
                raise undefined(f"dot·{t}·{s}")
    kof = {}
    for pi in stacks:
        v = kof[pi] = table.get((kof_el, pi))
        if v is None:
            raise undefined(f"kOf({pi})")
    return _Frame(tuple(opca.elements), stacks, dot, push, kof, K_el, S_el, cc_el, opca.name)


# ---------------------------------------------------------------------------
# The induced order-ca on biorthogonally closed stack sets
# ---------------------------------------------------------------------------

def _closed_masks(aks):
    """{closed stack mask: (its stack set, the mask of its facing terms)}
    for every closed mask of ``Aks.close``, in ``poset.closed_masks`` order,
    or CapExceeded past ``CLOSED_SET_CAP``.  It is listed once and kept on
    the structure, so a later call, direct or through ``order_ca``, does
    not enumerate again, and the mask methods read the table for these sets.
    """
    table = aks._closed
    if not table:  # the full stack set is closed, so a listed table is never empty
        for mask in closed_masks(len(aks.stacks), aks.close, CLOSED_SET_CAP,
                                 f"closed stack sets of {aks.name}"):
            stacks = _items(aks.stacks, mask)
            table[mask] = (stacks, _facing(aks.rows, mask))
            aks._masks[stacks] = mask
    return table


def closed_stack_sets(aks):
    """All biorthogonally closed stack sets, by size, then by stack indices.

    Refuses with CapExceeded when there are more than ``CLOSED_SET_CAP``.
    """
    return [stacks for stacks, _ in _closed_masks(aks).values()]


def _apply_mask(aks, closed, facing):
    """alpha·beta on masks, from the closure of alpha and the indices of the
    terms facing beta.  Every t in |alpha| faces s.pi exactly when s.pi lies
    in the closure of alpha, so the base is the pre-image of that closure
    under the push of each s in |beta|."""
    base = aks.full
    for s in facing:
        base &= aks.pull(s, closed)
    return aks.close(base)


def aks_apply(aks, alpha, beta):
    """alpha·beta: close the stacks facing every pair from |alpha| x |beta|."""
    return aks.stacks_of(_apply_mask(aks, aks.close(aks.stack_mask(alpha)),
                                     bits(aks.facing_terms(aks.stack_mask(beta)))))


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
    the carrier.
    """
    closed = _closed_masks(aks)
    carrier = [a for a, _ in closed.values()]
    leq = frozenset((a, b) for m, (a, _) in closed.items()
                    for n, (b, _) in closed.items() if not n & ~m)
    facing = [(b, bits(terms)) for b, terms in closed.values()]
    table = {}
    for alpha, (a, _) in closed.items():
        for b, terms in facing:
            table[(a, b)] = aks.stacks_of(_apply_mask(aks, alpha, terms))
    qp = aks.term_mask(aks.qp)
    filt = frozenset(a for a, terms in closed.values() if terms & qp)

    # the orthogonals of single quasi-proofs, the filter, the carrier: each once
    singles = [aks.stacks_of(row) for q, row in zip(aks.terms, aks.rows) if q in aks.qp]
    candidates = list(dict.fromkeys([*(a for a in singles + carrier if a in filt), *carrier]))

    # the laws read only the carrier, the table and the order; the full stack
    # set, least in reverse inclusion, obeys both, so some pair is found
    ks = opcamod.first_ks(SimpleNamespace(elements=carrier, table=table, leq_pairs=leq),
                          candidates)
    return OrderCa(aks=aks, opca=opcamod.FiniteOpca(
        elements=tuple(carrier), leq_pairs=leq, table=table, filter=filt,
        name=f"P({aks.name})", **ks))


def check_order_ca(aks):
    """Verify the induced structure is a filtered opca (axioms + filter).

    The filter is upward closed by construction: beta above alpha in reverse
    inclusion is a subset of alpha, so a quasi-proof facing alpha faces beta.
    """
    oca = order_ca(aks)
    opca = oca.opca
    rep = opcamod.check_opca_axioms(opca)
    rep.extend(opcamod.check_filter(opca, opca.filter))
    rep.verdict("orderca.filter_upward_closed")
    return oca, rep


def check_kr(aks):
    """The forcing condition: a quasi-proof facing t.s.pi and s.t.pi for all
    t, pi and every s orthogonal to the whole stack set.  Returns the first
    witness in QP order, else None."""
    every, everywhere = (1 << len(aks.terms)) - 1, aks.facing_terms(aks.full)
    needed = (aks.push_image(every, aks.push_image(everywhere, aks.full))
              | aks.push_image(everywhere, aks.push_image(every, aks.full)))
    return aks.first_quasi_proof(needed)


def tv_least_of_aks(aks):
    """Least designated truth value of the induced order-ca, or None."""
    return bcomod.tv_least(order_ca(aks).opca)
