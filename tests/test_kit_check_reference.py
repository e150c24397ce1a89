"""The sequence kit's check against the route it replaced on failure.

``reference_verify_kit`` is ``opca._verify_kit`` as it was when a failing
length re-walked its least failing sequence: it rebuilt that sequence's
suffix states and asked each clause again for the message.  The library
keeps each failing state's message and check order instead, and raises the
least (sequence, check order).  On random partial tables the two must
return the same stack codes or raise the same ``ConstructionError`` text.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from realcheck.errors import ConstructionError
from realcheck.opca import FiniteOpca, SequenceKit, _verify_kit


def reference_verify_kit(kit):
    """The kit check with the re-walk.  Check clauses (i)-(iv) on every
    carrier sequence of length <= max_len, length by length over the
    sequences' states (see the comment above ``opca.seq_term``), and return the codes of those sequences, each once, in
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
        failing = [seq for u, seq in inner.items() if coded(u, seq)]
        for n in range(length):
            failing += [seq for (x, u), seq in items[n].items() if indexed(n, x, u, seq)]
            failing += [seq for (v, u), seq in rests[n].items() if dropped(n, v, u, seq)]
        if failing:
            rank = {a: i for i, a in enumerate(elements)}
            seq = min(failing, key=lambda s: [rank[e] for e in s])
            suffixes = [kit._numeral(0)]  # inner values of seq[length:], ..., seq[0:]
            for e in reversed(seq):
                suffixes.append(table.get((pa[e], suffixes[-1])))
            u = suffixes[-1]
            raise ConstructionError(coded(u, seq) or next(
                message for n in range(length)
                for message in (indexed(n, seq[n], u, seq),
                                dropped(n, suffixes[length - n], u, seq))
                if message))
    for a in elements:
        ta = opca.app(t_el, a)
        if ta is None or not opca.leq(ta, kit._code((a,))):
            raise ConstructionError(f"clause (iv) fails at {a!r}")
    return tuple(dict.fromkeys(code for level in codes for code in level.values()))


def outcome(verify, opca, max_len):
    """The stack codes that ``verify`` returns on a new kit, or its error text."""
    try:
        return ("pass", verify(SequenceKit(opca, max_len)))
    except ConstructionError as e:
        return ("error", str(e))


@st.composite
def kit_tables(draw):
    """A filtered opca on 2-4 elements: any partial table, a few order
    pairs (closed by ``FiniteOpca``), and a filter holding k and s."""
    els = tuple("abcd"[:draw(st.integers(min_value=2, max_value=4))])
    pick = st.sampled_from(els)
    values = els if draw(st.booleans()) else els + (None,)
    table = {}
    for a in els:
        for b in els:
            c = draw(st.sampled_from(values))
            if c is not None:
                table[(a, b)] = c
    order = draw(st.lists(st.tuples(pick, pick), max_size=4))
    k, s = draw(pick), draw(pick)
    filt = draw(st.frozensets(pick)) | {k, s}
    return FiniteOpca(elements=els, leq_pairs=frozenset(order), table=table,
                      k=k, s=s, filter=filt, name="random")


@given(kit_tables(), st.integers(min_value=0, max_value=3))
@settings(max_examples=400, deadline=None)
def test_kit_check_matches_the_rewalking_reference(opca, max_len):
    assert outcome(_verify_kit, opca, max_len) == outcome(reference_verify_kit, opca, max_len)
