"""Finite ordered partial combinatory algebras.

``FiniteOpca`` extends the poset core in ``poset.py`` (carrier checks, the
closed order, downsets, least/greatest elements, the tracker search) with
the application table and designated k/s.

Carries the axiom checkers for the order/application laws and designated
k/s, filter verification, the sequence kit (``terms.py``'s closed coding
terms run in the opca and checked against the list clauses the Krivine
construction needs; ``terms`` loads on first use), and the Turing-style
reducibility search.
"""

from __future__ import annotations

from functools import lru_cache

from . import terms as termsmod
from .errors import CapExceeded, ConstructionError, StructureError
from .poset import Poset
from .record import Frozen, set_field
from .report import Report

__all__ = [
    "FiniteOpca", "k_law", "s_law", "first_ks", "check_opca_axioms", "check_filter",
    "SequenceKit", "KIT_LEN_CAP", "derive_sequence_kit", "turing_leq", "skk_element",
]


class FiniteOpca(Poset):
    """Finite carrier, partial order, partial application table, designated k/s.

    The carrier and its order come from ``Poset``: ``leq_pairs`` is closed
    reflexively/transitively at construction.  The table is a dict
    (a, b) -> c with absent entries meaning undefined.  ``filter`` and ``U``
    are optional subsets.  Instances are immutable; all operations on them
    are pure.
    """

    _fields = Poset._fields + ("table", "k", "s", "filter", "U", "name")

    def __init__(self, elements, leq_pairs, table, k, s, filter=None, U=None, name="opca"):
        set_field(self, "k", k)
        set_field(self, "s", s)
        set_field(self, "filter", filter)
        set_field(self, "U", U)
        set_field(self, "name", name)
        super().__init__(elements, leq_pairs)
        if not self.element_set:
            raise StructureError("empty carrier", source=self.name)
        for (a, b), c in table.items():
            for x in (a, b, c):
                if x not in self.element_set:
                    raise StructureError(f"app entry {x!r} outside carrier",
                                         source=self.name, field="app")
        for which, v in (("k", self.k), ("s", self.s)):
            if v not in self.element_set:
                raise StructureError(f"designated {which}={v!r} outside carrier",
                                     source=self.name, field=which)
        for fname, sub in (("filter", self.filter), ("U", self.U)):
            if sub is not None and not sub <= self.element_set:
                raise StructureError("subset escapes carrier", source=self.name, field=fname)
        if self.U is not None and not self.is_downward_closed(self.U):
            raise StructureError("U is not downward closed", source=self.name, field="U")
        set_field(self, "table", dict(table))

    def app(self, a, b):
        return self.table.get((a, b))

    def app_app(self, a, b, c):
        """(a·b)·c, or None when either application is undefined."""
        ab = self.table.get((a, b))
        return None if ab is None else self.table.get((ab, c))

    def products(self, left, right):
        """Every a·b for a in ``left`` and b in ``right``, or None when one is
        undefined."""
        prods = [self.table.get((a, b)) for a in left for b in right]
        return None if None in prods else prods

    def arrow(self, alpha, beta):
        """{a | a·b defined and in the set ``beta`` for every b in ``alpha``}."""
        table = self.table
        return frozenset(a for a in self.elements
                         if all(table.get((a, b)) in beta for b in alpha))

    def track(self, pairs):
        """``tracker`` over the filter in carrier order, applying by the table."""
        if self.filter is None:
            raise StructureError("opca has no filter", source=self.name)
        return self.tracker(self.ordered(self.filter), self.app, pairs)

    def eval(self, term, env=None):
        return termsmod.eval_in_opca(term, env, self)

    def replace(self, **kw):
        data = dict(elements=self.elements, leq_pairs=self.leq_pairs, table=self.table,
                    k=self.k, s=self.s, filter=self.filter, U=self.U, name=self.name)
        data.update(kw)
        return FiniteOpca(**data)


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------

def k_law(opca, k):
    """First counterexample to "k·x·y defined and <= x" for candidate k, else None.

    The laws read only ``opca.elements``, ``opca.table`` and ``opca.leq_pairs``
    (closed), so ``opca`` may be any record with those three.
    """
    els, app, leq = opca.elements, opca.table.get, opca.leq_pairs
    for x in els:
        kx = app((k, x))
        if kx is None:
            return (k, x)
        for y in els:
            kxy = app((kx, y))
            if kxy is None or (kxy, x) not in leq:
                return (k, x, y)
    return None


def s_law(opca, s):
    """First counterexample to "s·x·y defined, and s·x·y·z defined and
    <= (x·z)·(y·z) whenever the latter is" for candidate s, else None."""
    els, app, leq = opca.elements, opca.table.get, opca.leq_pairs
    for x in els:
        sx = app((s, x))
        if sx is None:
            return (s, x)
        for y in els:
            sxy = app((sx, y))
            if sxy is None:
                return (s, x, y)
            for z in els:
                xz = app((x, z))
                yz = app((y, z))
                if xz is None or yz is None:
                    continue
                rhs = app((xz, yz))
                if rhs is None:
                    continue
                sxyz = app((sxy, z))
                if sxyz is None or (sxyz, rhs) not in leq:
                    return (s, x, y, z)
    return None


def first_ks(opca, candidates):
    """{"k": k, "s": s}, each the first of ``candidates`` obeying its law, or
    None; ``opca`` as for ``k_law``."""
    k = next((c for c in candidates if k_law(opca, c) is None), None)
    s = next((c for c in candidates if s_law(opca, c) is None), None)
    return None if k is None or s is None else {"k": k, "s": s}


def check_opca_axioms(opca, search_ks=False):
    """Clause-by-clause verification; first counterexample per failed clause.

    Checks the order axioms, downward compatibility of application, and the
    k/s laws (k·x·y defined and <= x; s·x·y always defined; s·x·y·z defined
    and <= (x·z)·(y·z) whenever the latter is defined).  With ``search_ks``
    ``first_ks`` over the carrier is reported as well.  ``Poset`` closes
    every order reflexively and transitively, so those two pass unscanned.
    """
    rep = Report(opca.name)
    els = opca.elements

    rep.verdict("order.reflexive")
    rep.verdict("order.antisymmetric",
                next(((a, b) for a in els for b in els
                      if a != b and opca.leq(a, b) and opca.leq(b, a)), None))
    rep.verdict("order.transitive")
    rep.verdict("app.downward_compatible",
                next(((a, b, a2, b2) for (a, b), ab in opca.table.items()
                      for a2 in els if opca.leq(a2, a)
                      for b2 in els if opca.leq(b2, b)
                      if (ab2 := opca.app(a2, b2)) is None or not opca.leq(ab2, ab)), None))

    rep.verdict("k.law", k_law(opca, opca.k))
    rep.verdict("s.law", s_law(opca, opca.s))
    if search_ks:
        rep.found("ks.search", None, first_ks(opca, els), "no (k,s) pair")
    return rep


def check_filter(opca, subset):
    """Closure of ``subset`` under defined application plus k/s membership."""
    rep = Report(opca.name)
    subset = frozenset(subset)
    if not subset <= opca.element_set:
        raise StructureError("filter subset escapes carrier", source=opca.name, field="filter")
    rep.verdict("filter.app_closed",
                next(((a, b, ab) for a in opca.ordered(subset) for b in opca.ordered(subset)
                      if (ab := opca.app(a, b)) is not None and ab not in subset), None))
    rep.verdict("filter.has_k", None if opca.k in subset else (opca.k,))
    rep.verdict("filter.has_s", None if opca.s in subset else (opca.s,))
    return rep


def skk_element(opca):
    """The identity realizer s·k·k, always defined in a law-abiding opca."""
    [value] = termsmod.compile_closed(r"\x. x").run(opca)  # <x>x is ``terms._SKK``
    if value is None:
        raise ConstructionError("s·k·k undefined; structure violates the s law")
    return value


# ---------------------------------------------------------------------------
# Sequence/numeral coding and the list-handling combinators
# ---------------------------------------------------------------------------
#
# The coding terms (pairing, numerals and the list combinators b, c, d, t)
# are closed and opca-free, so ``terms.py`` builds them (see the comment
# above ``terms.PAIR``).  For sequences of length <= max_len they satisfy
#   (i)   b n [a0..ak]  <=  a_n             (n <= k)
#   (ii)  c n [a0..ak]  <=  [an..ak]        (n <= k)
#   (iii) d a [a0..ak]  <=  [a, a0..ak]
#   (iv)  t a           <=  [a]
# and all four evaluate into the filter.  ``terms._kit_program`` compiles
# PAIR, b, c, d, t and the numerals 0..max_len+1 into one straight-line
# program without slots, and a kit runs it once in its opca and reads b, c,
# d and t from its roots.
#
# The code of a0..ak is (p·n)·inner(a0..ak) with inner(a::s) = (p·a)·inner(s)
# and inner([]) = nil.  ``SequenceKit.seq_value`` folds it on demand instead
# of evaluating ``seq_term``.  The two agree because a term's leaves are
# checked before it runs (the first constant outside the carrier is a
# ValueError whatever the table) and the value of App(M, N) is
# val(M)·val(N), undefined when either is.  So a sequence that may hold
# other items is checked first, then folded.
#
# The kit check does not visit each of the |A|^L carrier sequences of a
# length L.  A clause reads a sequence only through a few values, its
# states: the inner value u decides its code and clause (iii); the pair
# (a_n, u) decides clause (i) at n; the pair (inner(a_n..a_k), u) decides
# clause (ii) at n.  Length L+1's states come from length L's by putting
# each carrier item a in front (u becomes (p·a)·u), so a length has at most
# |A|+1 inner values and (|A|+1)^2 pairs per n, and the whole check makes
# O(max_len^2·|A|^3) table reads.  Each state keeps the first sequence in
# product order that reaches it, and a failing state the message of its
# check.  Whether a check passes reads only its state, so every failing state
# of a length's least failing sequence is first reached by that sequence:
# the least (sequence, check order) among the failing states names it and
# the first check it fails.

def seq_term(items):
    """Coded sequence as a term; items are terms (typically Const leaves)."""
    pair, payload = termsmod.PAIR, termsmod.NIL
    for item in reversed(items):
        payload = termsmod.app(pair, item, payload)
    return termsmod.app(pair, termsmod.numeral(len(items)), payload)


class SequenceKit(Frozen):
    """Closed k,s-terms for pairing, numerals, and sequence management.

    At construction the kit runs ``terms._kit_program(max_len)`` in ``opca``
    and keeps the values of PAIR, b, c, d, t and the numerals 0..max_len+1
    (``element`` and ``numeral_value`` read them; other terms and numerals
    are evaluated on first use).  ``seq_value`` folds a sequence's code from
    these values when asked.  ``stack_codes`` is filled by the check in
    ``derive_sequence_kit``: the codes of the carrier sequences of length
    <= max_len, each once, in order of first appearance (by length, then
    product order); it stays None on a kit that was not checked.
    """

    _fields = ("opca", "max_len", "p0", "b", "c", "d", "t")
    stack_codes = None

    def __init__(self, opca, max_len):
        program = termsmod._kit_program(max_len)
        super().__init__(opca, max_len, termsmod.FST, *program.roots[1:5])
        values = program.run(opca)
        # id -> (term, value); the entry pins the term, so its id stays unique
        closed = {id(term): (term, value) for term, value in zip(program.roots, values)}
        numerals = dict(enumerate(values[5:]))  # after PAIR, b..t
        pair = values[0]
        table = opca.table
        set_field(self, "_closed", closed)
        set_field(self, "_pair", pair)
        set_field(self, "_numerals", numerals)
        # carrier element a -> p·a, None when undefined
        set_field(self, "_pa", {a: table.get((pair, a)) for a in opca.elements})
        set_field(self, "_frame", None)  # aks._frame of this kit, once build_aks built it

    def _numeral(self, n):
        """Value of numeral(n) in the opca (None when undefined)."""
        if n not in self._numerals:
            [self._numerals[n]] = termsmod.compile_terms((termsmod.numeral(n),)).run(self.opca)
        return self._numerals[n]

    def seq_value(self, elements):
        items = tuple(elements)
        value = self._code(items)
        if value is None:
            raise ConstructionError(f"sequence code for {list(items)!r} undefined")
        return value

    def _code(self, items):
        """The value of ``seq_term`` over the items as ``Const`` leaves:
        (p·n)·inner(items), or None.

        Like the term route, every item's carrier membership is checked
        first (the first item outside is a ValueError), then p·n and the
        fold, where an undefined step leaves None.
        """
        p, pa, table = self._pair, self._pa, self.opca.table
        for e in items:
            if e not in pa:
                raise ValueError(f"constant {e!r} outside the carrier")
        head = None if p is None else table.get((p, self._numeral(len(items))))
        if head is None:
            return None
        value = self._numeral(0)  # nil
        for e in reversed(items):
            value = table.get((pa[e], value))  # None once p·a or a step is undefined
        return table.get((head, value))

    def numeral_value(self, n):
        value = self._numeral(n)
        if value is None:
            raise ConstructionError(f"numeral {n} undefined")
        return value

    def element(self, term):
        known = self._closed.get(id(term))
        value = self.opca.eval(term) if known is None else known[1]
        if value is None:
            raise ConstructionError(f"kit term undefined: {term!r}")
        return value


# Longest max_len a kit is built for.  Building the unrolled terms takes
# O(max_len) subterm visits (about 9,000 at 64, some 30 ms); checking a kit
# makes O(max_len²·|A|³) table reads.
KIT_LEN_CAP = 64


def derive_sequence_kit(opca, max_len=3):
    """Build the coding terms and check the four list clauses exhaustively.

    Requires a filter and a non-negative int ``max_len``; raises
    ConstructionError when an evaluation that the clauses need comes out
    undefined, naming the offending term, and CapExceeded for a ``max_len``
    above ``KIT_LEN_CAP``.  A checked kit carries ``stack_codes``.

    The kit reads the carrier in order, the order, the table, k, s and the
    filter, never U or the name.  So each checked kit is kept for the process
    (the last ``KIT_MEMO_SIZE`` used) against those and ``max_len``, and a
    later call on equal ones returns the same kit, whose ``opca`` is built
    from those fields alone, without U and with the default name.  A failing
    check is not kept: it is made again, with the same error, on every call.
    ``build_aks`` keeps its U-free frame on the checked kit, so the two are
    evicted together (5 elements: 11 KB, with the frame 16.5 KB, tracemalloc).
    """
    if opca.filter is None:
        raise StructureError("sequence kit needs a filtered opca", source=opca.name)
    if isinstance(max_len, bool) or not isinstance(max_len, int) or max_len < 0:
        raise StructureError(f"sequence kit max_len must be an int >= 0, got {max_len!r}",
                             source=opca.name)
    if max_len > KIT_LEN_CAP:
        raise CapExceeded("sequence kit max_len", max_len, KIT_LEN_CAP)
    return _checked_kit(tuple(opca.elements), opca.leq_pairs, frozenset(opca.table.items()),
                        opca.k, opca.s, frozenset(opca.filter), max_len)


# Most checked kits, and so ``build_aks`` frames, kept per process.  A 5-element
# kit holds 16.5 KB with its memo key and frame; a sweep over the U of one table needs one.
KIT_MEMO_SIZE = 64


@lru_cache(maxsize=KIT_MEMO_SIZE)
def _checked_kit(elements, leq_pairs, table_items, k, s, filter, max_len):
    """The kit of the U-free opca these fields make, checked over its table."""
    given = dict(table_items)
    table = {(a, b): given[a, b] for a in elements for b in elements if (a, b) in given}
    opca = FiniteOpca(elements, leq_pairs, table, k, s, filter)
    kit = SequenceKit(opca, max_len)
    set_field(kit, "stack_codes", _verify_kit(kit))
    return kit


def _verify_kit(kit):
    """Check clauses (i)-(iv) on every carrier sequence of length <= max_len,
    length by length over the sequences' states (see the comment above
    ``seq_term``), and return the codes of those sequences, each once, in
    order of first appearance.

    A failure raises the ConstructionError of the first failing sequence
    by length, then product order, and names the first check that sequence
    fails, in this order: its code, then per a whether d·a·code and the
    code of a::seq are defined and clause (iii) holds, then per n clause (i)
    and clause (ii) with their applications.
    """
    opca = kit.opca
    table, leq, elements, pa = opca.table, opca.leq_pairs, opca.elements, kit._pa
    b_el, c_el, d_el, t_el = (kit.element(t) for t in (kit.b, kit.c, kit.d, kit.t))
    for label, el in (("b", b_el), ("c", c_el), ("d", d_el), ("t", t_el)):
        if el not in opca.filter:
            raise ConstructionError(f"kit term {label} evaluates outside the filter")
    nums = [kit.numeral_value(n) for n in range(kit.max_len + 1)]
    heads = [table.get((kit._pair, kit._numeral(n))) for n in range(kit.max_len + 2)]
    # the first factors of d·a·code, b·n·code and c·n·code; None when undefined
    d_row = [(a, table.get((d_el, a)), pa[a]) for a in elements]
    b_row = [table.get((b_el, num)) for num in nums]
    c_row = [table.get((c_el, num)) for num in nums]
    codes = []  # per length: inner value -> code (None when undefined)

    # One predicate per clause: the message of the first check that a
    # sequence ``seq`` in the given state fails, else None.  (None is never a
    # carrier element, so an undefined factor finds no entry.)
    def coded(inner, seq):
        code = codes[len(seq)][inner]
        if code is None:
            return f"sequence code for {list(seq)!r} undefined"
        head = heads[len(seq) + 1]
        for a, da, p_a in d_row:
            lhs = table.get((da, code))
            if lhs is None:
                return f"d·{a}·{list(seq)} undefined"
            rhs = table.get((head, table.get((p_a, inner))))
            if rhs is None:
                return f"sequence code for {[a, *seq]!r} undefined"
            if (lhs, rhs) not in leq:
                return f"clause (iii) fails at {a!r}, {list(seq)!r}"
        return None

    def indexed(n, item, inner, seq):
        lhs = table.get((b_row[n], codes[len(seq)][inner]))
        if lhs is None:
            return f"b·{n}·{list(seq)} undefined"
        if (lhs, item) not in leq:
            return f"clause (i) fails at n={n}, {list(seq)!r}"
        return None

    def dropped(n, rest, inner, seq):  # rest is the inner value of seq[n:]
        lhs = table.get((c_row[n], codes[len(seq)][inner]))
        if lhs is None:
            return f"c·{n}·{list(seq)} undefined"
        if (lhs, codes[len(seq) - n][rest]) not in leq:
            return f"clause (ii) fails at n={n}, {list(seq)!r}"
        return None

    # state -> the first sequence reaching it: inner values, and per n the
    # pairs (a_n, inner) and (inner value of a_n.., inner)
    inner, items, rests = {kit._numeral(0): ()}, [], []
    for length in range(kit.max_len + 1):
        if length:
            grown, first_items = {}, {}
            grown_pairs = [{} for _ in range(2 * length - 2)]
            for a, _, p_a in d_row:
                step = {u: table.get((p_a, u)) for u in inner}
                for u, seq in inner.items():
                    v = step[u]
                    if v not in grown:
                        grown[v] = (a,) + seq
                    if (a, v) not in first_items:
                        first_items[(a, v)] = (a,) + seq
                for old, new in zip(items + rests, grown_pairs):
                    for (x, u), seq in old.items():
                        if (x, step[u]) not in new:
                            new[(x, step[u])] = (a,) + seq
            inner = grown
            items = [first_items, *grown_pairs[:length - 1]]
            rests = [{(v, v): seq for v, seq in grown.items()}, *grown_pairs[length - 1:]]
        head = heads[length]
        codes.append({u: table.get((head, u)) for u in inner})
        # (sequence, check order, message) per failing state
        failing = [(seq, 0, m) for u, seq in inner.items() if (m := coded(u, seq))]
        for n in range(length):
            failing += [(seq, 2 * n + 1, m) for (x, u), seq in items[n].items()
                        if (m := indexed(n, x, u, seq))]
            failing += [(seq, 2 * n + 2, m) for (v, u), seq in rests[n].items()
                        if (m := dropped(n, v, u, seq))]
        if failing:
            rank = {a: i for i, a in enumerate(elements)}
            raise ConstructionError(min(failing, key=lambda f: ([rank[e] for e in f[0]], f[1]))[2])
    for a in elements:
        ta = opca.app(t_el, a)
        if ta is None or not opca.leq(ta, kit._code((a,))):
            raise ConstructionError(f"clause (iv) fails at {a!r}")
    return tuple(dict.fromkeys(code for level in codes for code in level.values()))


# ---------------------------------------------------------------------------
# Turing-style reducibility induced by the filter
# ---------------------------------------------------------------------------

def turing_leq(opca, a1, a2):
    """First filter element b with b·a2 <= a1, else None.

    a1 <=_T a2 holds exactly when such a witness exists; the search order is
    the carrier order restricted to the filter, so results are stable.
    """
    return opca.track([(a2, a1)])
