"""Basic combinatorial objects and everything layered on them.

A BCO is a finite poset with a list of named partial endofunctions subject
to three clauses: downward-closed monotone domains, a total sub-identity,
and composition closure up to <=.  Ordered pcas with a filter give the
canonical examples (functions are left-application by filter elements):
``opca_to_bco`` builds an opca's view once and keeps it on the opca, so
every check of that opca shares one immutable view and the downsets it
lists.  ``FiniteBco`` extends the poset core in ``poset.py``; every search
for a function in F below a list of pairs goes through its ``track``.

On top of that this module provides: morphisms and their preorder, the
downset construction with unit/multiplication, internal finite meets and
designated truth values, pseudo-sup-algebra verification with the uniform
bound condition, applicative-morphism and computational-density checkers,
and the two constructions trading a sup map against implication/infima
(the infima keyed by ``Poset.closed_downsets``, the lower-bound sets).
"""

from __future__ import annotations

from itertools import product

from . import opca as opcamod, terms as termsmod
from .errors import CapExceeded, ConstructionError, StructureError
from .poset import Poset, downsets_of_poset, witness_per_key
from .record import Frozen, Value, set_field
from .report import Report

__all__ = [
    "FiniteBco", "opca_to_bco", "check_bco",
    "BcoMorphism", "check_bco_morphism", "morphism_leq",
    "product_bco", "downsets_of_poset",
    "DownsetMonad", "downset_bco", "downset_monad", "downset_opca",
    "InternalMeets", "internal_meets", "find_top", "truth_values", "tv_least",
    "PseudoDAlgebra", "check_sup_table", "join_sup", "check_pseudo_d_algebra", "check_star",
    "check_applicative_morphism", "applicative_verdict", "preserves_finite_meets",
    "DensityWitnesses", "check_density", "find_right_adjoint",
    "ImplicativeKit", "check_implicative",
    "sup_from_implication", "implication_from_sup",
]

_ENUM_CAP = 1 << 16  # find_right_adjoint refuses more candidate maps before the first

MEET_CANDIDATE_CAP = 20000  # internal meets try every map A x A -> A up to this many


# ---------------------------------------------------------------------------
# The structure
# ---------------------------------------------------------------------------

class FiniteBco(Poset):
    """Finite poset plus named partial endofunctions (insertion order fixed)."""

    _fields = Poset._fields + ("functions", "name", "origin_opca")

    def __init__(self, elements, leq_pairs, functions, name="bco", origin_opca=None):
        set_field(self, "name", name)
        set_field(self, "origin_opca", origin_opca)
        super().__init__(elements, leq_pairs)
        for fname, table in functions.items():
            for a, b in table.items():
                if a not in self.element_set or b not in self.element_set:
                    raise StructureError(f"function {fname!r} escapes carrier",
                                         source=self.name, field="functions")
        # name -> {elem: elem}
        set_field(self, "functions", {n: dict(t) for n, t in functions.items()})

    def apply(self, fname, a):
        return self.functions[fname].get(a)

    def track(self, pairs):
        """First function name f with f(x) defined and <= y for every (x, y)
        in ``pairs``, else None."""
        return self.tracker(self.functions, self.apply, pairs)


def opca_to_bco(opca):
    """BCO view: functions are b |-> a·b for a in the filter.  It is built on
    the first call and kept on the opca; later calls share that one view."""
    if opca.filter is None:
        raise StructureError("opca has no filter", source=opca.name)
    if opca._bco_view is None:
        functions = {f"ap[{a}]": {b: opca.app(a, b) for b in opca.elements
                                  if opca.app(a, b) is not None}
                     for a in opca.ordered(opca.filter)}
        set_field(opca, "_bco_view", FiniteBco(
            elements=opca.elements, leq_pairs=opca.leq_pairs, functions=functions,
            name=f"bco({opca.name})", origin_opca=opca))
    return opca._bco_view


def check_bco(bco):
    """Clause-by-clause verdicts for the three BCO requirements."""
    rep = Report(bco.name)
    els = bco.elements
    rep.verdict("bco.domains_monotone",
                next(((fname, a, b) if b not in table else (fname, b, a)
                      for fname, table in bco.functions.items()
                      for a in table for b in els
                      if bco.leq(b, a) and (b not in table
                                            or not bco.leq(table[b], table[a]))), None))

    rep.found("bco.sub_identity", "i", bco.track([(a, a) for a in els]),
              "no total sub-identity")
    rep.verdict("bco.composition_closed",
                next(((fname, gname) for fname, ftab in bco.functions.items()
                      for gname, gtab in bco.functions.items()
                      if bco.track([(a, gtab[ftab[a]]) for a in ftab
                                    if ftab[a] in gtab]) is None), None),
                {"pairs": len(bco.functions) ** 2})
    return rep


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------

class BcoMorphism(Frozen):
    _fields = ("source", "target", "mapping", "name")
    name = "morphism"

    def __init__(self, *args, **kwargs):
        """Binds the fields as ``Frozen`` does; the mapping is total into the target."""
        super().__init__(*args, **kwargs)
        source, target, mapping, name = self._values()
        for a in source.elements:
            if a not in mapping:
                raise StructureError(f"morphism not total at {a!r}", source=name)
            if mapping[a] not in target.element_set:
                raise StructureError(f"morphism escapes target at {a!r}", source=name)
        if len(mapping) > len(source.elements):  # total, so some key is outside
            stray = next(a for a in mapping if a not in source.element_set)
            raise StructureError(f"morphism key {stray!r} outside the source", source=name)

    def __call__(self, a):
        return self.mapping[a]


def check_bco_morphism(m):
    """Searches the order-tracking witness and a tracker per source function."""
    rep = Report(m.name)
    src, dst, phi = m.source, m.target, m.mapping
    rep.found("morphism.order_tracking", "u",
              dst.track([(phi[a], phi[b]) for (a, b) in src.leq_pairs]),
              "no order-tracking witness")
    return rep.per_key("morphism.function_tracking", "trackers", witness_per_key(
        src.functions,
        lambda f: dst.track([(phi[a], phi[b]) for a, b in src.functions[f].items()])))


def morphism_leq(phi, psi, target):
    """First g in F_target with g(phi(a)) <= psi(a) for all a, else None."""
    phi_map = phi.mapping if isinstance(phi, BcoMorphism) else phi
    psi_map = psi.mapping if isinstance(psi, BcoMorphism) else psi
    return target.track([(phi_map[a], psi_map[a]) for a in phi_map])


def product_bco(left, right):
    """Binary product: pairs ordered componentwise, functions act componentwise."""
    elements = tuple((a, b) for a in left.elements for b in right.elements)
    leq = frozenset(((a, b), (a2, b2))
                    for (a, b) in elements for (a2, b2) in elements
                    if left.leq(a, a2) and right.leq(b, b2))
    functions = {}
    for fname, ftab in left.functions.items():
        for gname, gtab in right.functions.items():
            functions[f"({fname},{gname})"] = {
                (a, b): (ftab[a], gtab[b]) for a in ftab for b in gtab
            }
    return FiniteBco(elements=elements, leq_pairs=leq, functions=functions,
                     name=f"{left.name}x{right.name}")


# ---------------------------------------------------------------------------
# Downsets
# ---------------------------------------------------------------------------

def downset_bco(bco):
    """The downset BCO: inclusion order, one lifted function per f in F."""
    downs = bco.downsets()
    leq = frozenset((a, b) for a in downs for b in downs if a <= b)
    functions = {}
    for fname, ftab in bco.functions.items():
        dom = frozenset(ftab)
        functions[fname] = {
            alpha: bco.downward_closure({ftab[a] for a in alpha})
            for alpha in downs if alpha <= dom
        }
    return FiniteBco(elements=tuple(downs), leq_pairs=leq, functions=functions,
                     name=f"D({bco.name})")


class DownsetMonad(Frozen):
    _fields = ("base", "d_bco", "d2_bco", "unit", "mult")


def downset_monad(bco):
    """DSigma plus the unit (principal downset) and multiplication (union).

    Both maps are verified to be BCO morphisms; an InvariantViolation here
    means the input was not a BCO in the first place.
    """
    d_bco = downset_bco(bco)
    d2_bco = downset_bco(d_bco)
    unit = BcoMorphism(bco, d_bco, {a: bco.down(a) for a in bco.elements},
                       name=f"unit({bco.name})")
    mult = BcoMorphism(d2_bco, d_bco,
                       {A: frozenset().union(*A) if A else frozenset() for A in d2_bco.elements},
                       name=f"mult({bco.name})")
    for m in (unit, mult):
        rep = check_bco_morphism(m)
        if not rep.passed:
            raise ConstructionError(f"{m.name} is not a BCO morphism:\n{rep.render_text()}")
    return DownsetMonad(base=bco, d_bco=d_bco, d2_bco=d2_bco, unit=unit, mult=mult)


def downset_opca(opca):
    """D(A,A') as a filtered opca: inclusion order, pointwise application.

    alpha·beta is defined iff every a·b is, and is then the downward closure
    of the products; the filter consists of the downsets meeting A'.
    """
    if opca.filter is None:
        raise StructureError("downset_opca needs a filtered opca", source=opca.name)
    downs = opca.downsets()
    leq = frozenset((a, b) for a in downs for b in downs if a <= b)
    table = {}
    for alpha in downs:
        for beta in downs:
            prods = opca.products(alpha, beta)
            if prods is not None:
                table[(alpha, beta)] = opca.downward_closure(prods)
    filt = frozenset(alpha for alpha in downs if alpha & opca.filter)
    return opcamod.FiniteOpca(
        elements=tuple(downs), leq_pairs=leq, table=table,
        k=opca.down(opca.k), s=opca.down(opca.s),
        filter=filt, name=f"D({opca.name})",
    )


# ---------------------------------------------------------------------------
# Internal finite meets and designated truth values
# ---------------------------------------------------------------------------

class InternalMeets(Frozen):
    _fields = ("top",
               "top_witness",  # total g with g(a) <= top
               "meet",  # (a, b) -> a /\ b
               "unit_witness",  # g(a) <= a /\ a
               "counit_witnesses")  # (g1, g2): g1(a /\ b) <= a, g2(a /\ b) <= b


def _meet_candidates(bco):
    """Deterministic candidate meet maps: opca pairing, poset meets, then
    (up to MEET_CANDIDATE_CAP maps) every map."""
    candidates = []
    host = bco.origin_opca
    if host is not None:
        [p] = termsmod.compile_closed(r"\x y z. z x y").run(host)  # PAIR; None: no p·a·b
        table = {(a, b): host.app_app(p, a, b) for a in bco.elements for b in bco.elements}
        if None not in table.values():
            candidates.append(table)
    meets = {(a, b): bco.meet(a, b) for a in bco.elements for b in bco.elements}
    if None not in meets.values():
        candidates.append(meets)
    n = len(bco.elements)
    if n ** (n * n) <= MEET_CANDIDATE_CAP:
        pairs = [(a, b) for a in bco.elements for b in bco.elements]
        for values in product(bco.elements, repeat=len(pairs)):
            candidates.append(dict(zip(pairs, values)))
    return candidates


def internal_meets(bco):
    """Internal top and binary meets, or None when a search side fails.

    The top is the first element admitting a total g in F with g(a) <= top;
    the meet map must be a BCO morphism from the componentwise product and
    right adjoint to the diagonal (unit/counit witnesses searched in F).
    Past MEET_CANDIDATE_CAP maps, a miss is CapExceeded, not None.
    """
    found = find_top(bco)
    if found is None:
        return None
    top, top_witness = found
    els = bco.elements
    prod = product_bco(bco, bco)
    for table in _meet_candidates(bco):
        unit = bco.track([(a, table[(a, a)]) for a in els])
        if unit is None:
            continue
        g1 = bco.track([(table[(a, b)], a) for a in els for b in els])
        g2 = bco.track([(table[(a, b)], b) for a in els for b in els])
        if g1 is None or g2 is None:
            continue
        morphism = BcoMorphism(prod, bco, {(a, b): table[(a, b)] for (a, b) in prod.elements},
                               name=f"meet({bco.name})")
        if not check_bco_morphism(morphism).passed:
            continue
        return InternalMeets(top=top, top_witness=top_witness, meet=dict(table),
                             unit_witness=unit, counit_witnesses=(g1, g2))
    if (maps := len(els) ** len(els) ** 2) > MEET_CANDIDATE_CAP:
        raise CapExceeded(f"meet maps of {bco.name}", maps, MEET_CANDIDATE_CAP)
    return None


def find_top(x):
    """First element admitting a total g (``x.track``) with g(a) <= it, with g."""
    for cand in x.elements:
        g = x.track([(a, cand) for a in x.elements])
        if g is not None:
            return cand, g
    return None


def truth_values(x):
    """TV = elements reachable below from the ``find_top`` top by some g (``x.track``)."""
    found = find_top(x)
    if found is None:
        raise StructureError("truth values need an internal top", source=x.name)
    return frozenset(a for a in x.elements if x.track([(found[0], a)]) is not None)


def tv_least(x):
    """The least designated truth value under the carrier order, or None."""
    return x.least(truth_values(x))


# ---------------------------------------------------------------------------
# Pseudo-sup-algebras and the uniform bound condition
# ---------------------------------------------------------------------------

class PseudoDAlgebra(Frozen):
    """A filtered opca with a candidate sup map on its downsets."""

    _fields = ("host", "sup", "name")  # sup: frozenset downset -> element
    name = "alg"

    def __init__(self, *args, **kwargs):
        """Binds the fields as ``Frozen`` does; the host needs a filter."""
        super().__init__(*args, **kwargs)
        if self.host.filter is None:
            raise StructureError("pseudo-sup-algebra host needs a filter", source=self.name)
        check_sup_table(self.host, self.sup, self.name)

    def value(self, alpha):
        try:
            return self.sup[frozenset(alpha)]
        except KeyError:
            raise StructureError(f"sup undefined on downset {sorted(map(str, alpha))}",
                                 source=self.name, field="sup")


def check_sup_table(host, sup, source):
    """Refuses a sup table {frozenset row: element} that names an element
    outside ``host`` or has a row that is not a downset of ``host``."""
    for alpha, v in sup.items():
        stray = [x for x in (*sorted(alpha, key=str), v) if x not in host.element_set]
        if stray:
            raise StructureError(f"unknown element {stray[0]!r}", source=source, field="sup")
        if not host.is_downward_closed(alpha):
            raise StructureError(f"sup row {sorted(map(str, alpha))} is not a downset",
                                 source=source, field="sup")


def join_sup(opca):
    """sup as the poset least upper bound of each downset (the locale case)."""
    sup = {}
    for alpha in opca.downsets():
        lub = opca.least(opca.upper(alpha))
        if lub is None:
            raise StructureError(f"no least upper bound for {sorted(map(str, alpha))}",
                                 source=opca.name)
        sup[alpha] = lub
    return sup


def check_pseudo_d_algebra(alg, witnesses=None):
    """The four sup-algebra clauses, searched over the filter view's functions.

    ``witnesses`` may pin elements per clause ({"u": el, "g2": {fel: el},
    "g3": el, "h3": el, "g4": el, "h4": el}) to verify a given structure
    instead of searching.  A pinned witness outside the filter fails its
    clause with (key, [filter element,] witness, "outside the filter").
    """
    host = alg.host
    rep = Report(alg.name)
    downs = host.downsets()
    filt = host.ordered(host.filter)
    witnesses = witnesses or {}

    def search(check, key, pairs, missing):
        if key in witnesses and witnesses[key] not in host.filter:
            return rep.verdict(check, (key, witnesses[key], "outside the filter"))
        pool = [witnesses[key]] if key in witnesses else filt
        return rep.found(check, key, host.tracker(pool, host.app, pairs), missing)

    # clause 1: u(sup alpha) <= sup alpha' for alpha <= alpha'
    search("sup.monotone_u", "u", [(alg.value(a), alg.value(b))
                                   for a in downs for b in downs if a <= b], "no uniform u")

    # clause 2: per filter element f, g2(sup alpha) <= sup(down f[alpha])
    g2 = witnesses.get("g2", {})
    stray = next(((fel, w) for fel, w in g2.items() if w not in host.filter), None)
    if stray is not None:
        rep.verdict("sup.image_g2", ("g2", *stray, "outside the filter"))
    else:
        rep.per_key("sup.image_g2", "g2", witness_per_key(filt, lambda fel: host.tracker(
            [g2[fel]] if "g2" in witnesses else filt, host.app,
            [(alg.value(alpha), alg.value(host.downward_closure(prods))) for alpha in downs
             if (prods := host.products((fel,), alpha)) is not None])))

    # clause 3: flattening both ways over families of downsets
    families = downsets_of_poset(downs, lambda a, b: a <= b,
                                 what=f"double downsets of {host.name}")
    pairs3 = [(alg.value(host.downward_closure({alg.value(a) for a in fam})),
               alg.value(frozenset().union(*fam)))
              for fam in families]
    search("sup.flatten_g3", "g3", pairs3, "no g3")
    search("sup.flatten_h3", "h3", [(y, x) for (x, y) in pairs3], "no h3")

    # clause 4: principal downsets collapse both ways
    pairs4 = [(alg.value(host.down(a)), a) for a in host.elements]
    search("sup.principal_g4", "g4", pairs4, "no g4")
    search("sup.principal_h4", "h4", [(y, x) for (x, y) in pairs4], "no h4")
    return rep


def check_star(alg, v=None):
    """The uniform bound witness: v(sup alpha)·b <= c whenever every a·b <= c.

    Returns the first filter element that works (or verifies ``v``), else
    None; a ``v`` outside the filter is None.
    """
    host = alg.host
    pool = host.ordered(host.filter if v is None else host.filter & {v})
    pairs = []
    for alpha in host.downsets():
        sup = alg.value(alpha)
        for b in host.elements:
            prods = host.products(alpha, (b,))
            if prods is not None:
                pairs += [((sup, b), c) for c in host.ordered(host.upper(prods))]
    return host.tracker(pool, lambda cand, xb: host.app_app(cand, *xb), pairs)


# ---------------------------------------------------------------------------
# Applicative morphisms, meet preservation, density
# ---------------------------------------------------------------------------

def preserves_finite_meets(fmap, src_bco, dst_bco):
    """Witnesses that the comparison maps into f's image are invertible.

    Returns {"top": g, "binary": g'} or None; the lax directions hold for
    any BCO morphism, so only the two interesting inequalities are searched.
    """
    src_meets = internal_meets(src_bco)
    dst_meets = internal_meets(dst_bco)
    if src_meets is None or dst_meets is None:
        return None
    g_top = dst_bco.track([(dst_meets.top, fmap[src_meets.top])])
    if g_top is None:
        return None
    g_bin = dst_bco.track([(dst_meets.meet[(fmap[a], fmap[b])], fmap[src_meets.meet[(a, b)]])
                           for a in src_bco.elements for b in src_bco.elements])
    return None if g_bin is None else {"top": g_top, "binary": g_bin}


def _check_map(fmap, src, dst):
    """Refuses ``fmap`` unless it maps src's carrier, and no more, into dst's;
    returns the name "src->dst"."""
    subject = f"{src.name}->{dst.name}"
    for a in src.elements:
        if fmap.get(a) not in dst.element_set:
            raise StructureError(f"map not total / escapes target at {a!r}",
                                 source=subject, field="map")
    for a in fmap:
        if a not in src.element_set:
            raise StructureError(f"map key {a!r} outside the source carrier",
                                 source=subject, field="map")
    return subject


def check_applicative_morphism(fmap, src, dst, crosscheck=True):
    """The three applicative clauses plus the meet-preservation cross-check.

    ``fmap`` is a total dict src-carrier -> dst-carrier.  The report carries
    the applicative verdict, the BCO-morphism/meet-preservation verdict for
    the same map, and an agreement record asserting they coincide; pass
    ``crosscheck=False`` to skip that second computation in bulk scans.
    """
    if src.filter is None or dst.filter is None:
        raise StructureError("applicative morphisms need filtered opcas")
    rep = Report(_check_map(fmap, src, dst))
    dst_filter = dst.ordered(dst.filter)
    rep.per_key("applicative.filter_up", None, witness_per_key(
        src.ordered(src.filter),
        lambda a: next((b for b in dst_filter if dst.leq(b, fmap[a])), None)))

    # Tracking is required over all defined applications, not only filter
    # functions: the appl=fpp and sup-characterization equivalences need r
    # at arbitrary first arguments (and fail otherwise, e.g. on M3 joins).
    rep.found("applicative.app_tracking", "r",
              dst.tracker(dst_filter, lambda c, xy: dst.app_app(c, *xy),
                          [((fmap[a1], fmap[a]), fmap[a1a])
                           for a1 in src.elements for a in src.elements
                           if (a1a := src.app(a1, a)) is not None]),
              "no tracking r")
    rep.found("applicative.order_tracking", "u",
              dst.track([(fmap[x], fmap[y]) for (x, y) in src.leq_pairs]),
              "no order u")

    applicative_ok = rep.passed
    if not crosscheck:
        return rep

    src_bco, dst_bco = opca_to_bco(src), opca_to_bco(dst)
    morphism = BcoMorphism(src_bco, dst_bco, dict(fmap), name="fpp-view")
    bco_ok = check_bco_morphism(morphism).passed
    fpp = preserves_finite_meets(fmap, src_bco, dst_bco) if bco_ok else None
    rep.verdict("crosscheck.bco_morphism", None if bco_ok else ("not a bco morphism",))
    rep.found("crosscheck.meet_preserving", None, fpp, "comparison not invertible")
    agree = applicative_ok == (bco_ok and fpp is not None)
    rep.verdict("crosscheck.appl_equals_fpp",
                None if agree else (applicative_ok, bco_ok, fpp is not None))
    return rep


def applicative_verdict(rep):
    wanted = ("applicative.filter_up", "applicative.app_tracking",
              "applicative.order_tracking")
    return all(rep.record(w).passed for w in wanted)


class DensityWitnesses(Value):
    _fields = ("cd",  # (m, {b' -> a'}) or None
               "simple")  # (t, {b' -> a'}) or None

    @property
    def agree(self):
        return (self.cd is None) == (self.simple is None)


def check_density(fmap, src, dst):
    """Both computational-density witness families, searched exhaustively.

    cd: an m with, per b', some a' such that b'·f(a) defined implies a'·a
    defined and m·f(a'·a) <= b'·f(a).  simple: (h, t) with t·f(h(b')) <= b'.
    The two families co-exist for applicative morphisms; ``agree`` reports it.
    """
    if src.filter is None or dst.filter is None:
        raise StructureError("computational density needs filtered opcas")
    _check_map(fmap, src, dst)
    src_filter, dst_filter = src.ordered(src.filter), dst.ordered(dst.filter)

    def cd_choice(m, bp):
        return next((ap for ap in src_filter
                     if all((apa := src.app(ap, a)) is not None
                            and (mfa := dst.app(m, fmap[apa])) is not None
                            and dst.leq(mfa, bfa)
                            for a in src.elements
                            if (bfa := dst.app(bp, fmap[a])) is not None)), None)

    def family(choice):
        """First m in the filter with a choice for every b', as (m, {b': a'})."""
        for m in dst_filter:
            chosen = witness_per_key(dst_filter, lambda bp: choice(m, bp))
            if None not in chosen.values():
                return m, chosen
        return None

    return DensityWitnesses(
        cd=family(cd_choice),
        simple=family(lambda t, bp: next(
            (ap for ap in src_filter
             if (tfa := dst.app(t, fmap[ap])) is not None and dst.leq(tfa, bp)), None)))


def find_right_adjoint(fmap, src, dst):
    """Brute-force right adjoint of f among BCO morphisms dst -> src.

    Refuses with CapExceeded when the |src|^|dst| candidate maps exceed _ENUM_CAP.
    """
    _check_map(fmap, src, dst)
    count = len(src.elements) ** len(dst.elements)
    if count > _ENUM_CAP:
        raise CapExceeded(f"adjoint candidates {dst.name} -> {src.name}", count, _ENUM_CAP)
    src_bco, dst_bco = opca_to_bco(src), opca_to_bco(dst)
    ident_src = {a: a for a in src.elements}
    ident_dst = {b: b for b in dst.elements}
    for values in product(src.elements, repeat=len(dst.elements)):
        umap = dict(zip(dst.elements, values))
        m = BcoMorphism(dst_bco, src_bco, umap, name="adjoint-candidate")
        if not check_bco_morphism(m).passed:
            continue
        unit = morphism_leq(ident_src, {a: umap[fmap[a]] for a in src.elements}, src_bco)
        counit = morphism_leq({b: fmap[umap[b]] for b in dst.elements}, ident_dst, dst_bco)
        if unit is not None and counit is not None:
            return umap
    return None


# ---------------------------------------------------------------------------
# Implicative structure
# ---------------------------------------------------------------------------

class ImplicativeKit(Frozen):
    """Witnessed infima plus an implication; an infimum of S depends only on
    its lower bounds, so ``inf_of(S)`` reads inf[host.lower(S)]."""

    _fields = ("host",
               "inf",  # closed downset -> element, total on host.closed_downsets()
               "imp",  # (b, c) -> element, total
               "i", "i_prime", "e", "e_prime", "name")
    name = "kit"

    def __init__(self, *args, **kwargs):
        """Binds the fields as ``Frozen`` does; an ``inf`` without a closed
        downset, with another key, or with a value outside the carrier is a
        StructureError naming the first, in that order, and so is an ``imp``
        without a pair of carrier elements, with another key, or with a value
        outside the carrier."""
        super().__init__(*args, **kwargs)
        host = self.host
        closed = host.closed_downsets()
        pairs = [(b, c) for b in host.elements for c in host.elements]

        def refuse(field, message, key):
            shown = sorted(map(str, key)) if isinstance(key, frozenset) else repr(key)
            raise StructureError(f"{message} {shown}", source=self.name, field=field)

        for field, table, keys, value, key_kind in (
                ("inf", self.inf, closed, "infimum", "closed downset"),
                ("imp", self.imp, pairs, "implication", "pair of carrier elements")):
            for key in keys:
                if key not in table:
                    refuse(field, f"no {value} for the {key_kind}", key)
            known = set(keys)
            for key in table:
                if key not in known:
                    refuse(field, f"not a {key_kind}:", key)
            for key in keys:
                if table[key] not in host.element_set:
                    refuse(field, f"{value} {table[key]!r} outside the carrier at", key)

    def inf_of(self, subset):
        return self.inf[self.host.lower(subset)]

    def imp_of(self, b, c):
        return self.imp[(b, c)]


def _bounded(host, low):
    """The names of upper(low), sorted: the largest subset with lower bounds low."""
    return tuple(sorted(map(str, host.upper(low))))


def _inf_clause_failure(host, i, inf, low):
    """(a,) for the first a of upper(low) in carrier order that i·inf[low] is
    not below, else None: i maps the infimum at the closed downset low below
    every element low bounds."""
    got = host.app(i, inf[low])
    return next(((a,) for a in host.ordered(host.upper(low))
                 if not host.leq(got, a)), None)


def check_implicative(kit, mode="pre-implicative"):
    """Clause-by-clause verdicts for pre-implicative or ioca structure.

    Infima are checked per closed downset L, naming upper(L), the union of
    the subsets with lower bounds L.  A constant outside the filter fails
    its clause with (name, value, "outside the filter").
    """
    host = kit.host
    if host.filter is None:
        raise StructureError("kit host needs a filter", source=host.name)
    rep = Report(kit.name)
    if mode not in ("pre-implicative", "ioca"):
        raise ValueError(mode)

    els = host.elements
    closed = host.closed_downsets()

    def outside_filter(*constants):
        return next(((n, v, "outside the filter") for n, v in constants
                     if v not in host.filter), None)

    if mode == "ioca":
        rep.verdict("ioca.total_application",
                    next(((a, b) for a in els for b in els if host.app(a, b) is None), None))
        rep.verdict("ioca.poset_has_infima",
                    next(((_bounded(host, low),) for low in closed
                          if host.greatest(low) is None), None))
        rep.verdict("ioca.imp_adjunction",
                    next(((a, b, c) for a in els for b in els for c in els
                          if host.app(a, b) is not None
                          and (host.leq(a, kit.imp_of(b, c)) != host.leq(host.app(a, b), c))),
                         None))
        # antitone in the first argument, monotone in the second
        rep.verdict("ioca.imp_variance",
                    next(((a, a2, b) for a in els for a2 in els if host.leq(a, a2)
                          for b in els
                          if not host.leq(kit.imp_of(a2, b), kit.imp_of(a, b))
                          or not host.leq(kit.imp_of(b, a), kit.imp_of(b, a2))), None))

    def inf_failure(low):
        """``_inf_clause_failure`` for i, else ("i'", b) when i'·b is not
        below inf[low] for some b in low, else None."""
        inf_v = kit.inf[low]
        return _inf_clause_failure(host, kit.i, kit.inf, low) \
            or next((("i'", b) for b in host.ordered(low)
                     if not host.leq(host.app(kit.i_prime, b), inf_v)), None)

    rep.verdict("implicative.inf_witnessed",
                outside_filter(("i", kit.i), ("i'", kit.i_prime))
                or next(((_bounded(host, low),) + bad for low in closed
                         if (bad := inf_failure(low)) is not None), None))

    def imp_failure(a, b, c):
        ab = host.app(a, b)
        if ab is not None and host.leq(ab, c):
            if not host.leq(host.app(kit.e, a), kit.imp_of(b, c)):
                return (a, b, c, "e")
        if host.leq(a, kit.imp_of(b, c)):
            if not host.leq(host.app_app(kit.e_prime, a, b), c):
                return (a, b, c, "e'")
        return None

    rep.verdict("implicative.imp_witnessed",
                outside_filter(("e", kit.e), ("e'", kit.e_prime))
                or next((bad for a in els for b in els for c in els
                         if (bad := imp_failure(a, b, c)) is not None), None))
    return rep


# ---------------------------------------------------------------------------
# sup from implication and implication from sup
# ---------------------------------------------------------------------------

class DerivedSupAlgebra(Frozen):
    _fields = ("algebra",
               "combinators",  # eta/xi/H/K/P/Q/R -> element
               "witnesses",  # clause witnesses fed to check_pseudo_d_algebra
               "star",  # the uniform-bound element
               "report")


# The derived combinators of ``sup_from_implication`` in the surface syntax,
# in the order they are evaluated.  Each identifier is a slot
# (``terms.compile_closed``): i, i', e, e' are the kit's constants, skk the
# value of s·k·k, and eta, xi, H, P, Q the values of earlier combinators.
_COMBINATORS = (
    ("eta", r"\x. i' (i x)"),
    ("xi", r"\x. e (e' x)"),
    ("H", r"\x y. e' (xi x) (eta y)"),
    ("K", r"\x. i' (e (H (i x)))"),
    ("P", r"\u v. e' (i v) (i' (e u))"),
    ("Q", r"\x. i' (e (\u v. e' (i v) u) x)"),  # the inner term swaps u and v
    ("R", r"\x. e' (i x) (i' (e skk))"),
)


def _value_or_fail(host, source, slots, what):
    """The value of the closed ``source`` with its slots filled from ``slots``."""
    [value] = termsmod.compile_closed(source).run(host, slots)
    if value is None:
        raise ConstructionError(f"{what} undefined in {host.name}")
    return value


def sup_from_implication(kit):
    """Build a sup map from witnessed infima and implication.

    sup alpha = inf over b of ((inf over a in alpha of (a => b)) => b).
    Materializes the derived combinators eta, xi, H, K, P, Q, R as closed
    terms over the kit constants, verifies facts (a), (b) and (d), and checks
    the sup-algebra clauses (clause 1 with u = K is fact (c)) and the bound
    with exactly these witnesses.  A failed clause raises ConstructionError
    naming it.
    """
    host = kit.host
    if host.filter is None:
        raise StructureError("kit host needs a filter", source=host.name)

    def sup_of(alpha):
        outer = set()
        for b in host.elements:
            inner = kit.inf_of({kit.imp_of(a, b) for a in alpha})
            outer.add(kit.imp_of(inner, b))
        return kit.inf_of(outer)

    downs = host.downsets()
    sup = {alpha: sup_of(alpha) for alpha in downs}

    # A combinator named in a later source is a slot there holding its value;
    # evaluation is compositional, so that is the value of the whole term.
    slots = {"i": kit.i, "i'": kit.i_prime, "e": kit.e, "e'": kit.e_prime,
             "skk": opcamod.skk_element(host)}
    combinators = {}
    for n, source in _COMBINATORS:
        combinators[n] = slots[n] = _value_or_fail(host, source, slots, n)
    for n, el in combinators.items():
        if el not in host.filter:
            raise ConstructionError(f"derived combinator {n} lands outside the filter")

    _verify_derivation_facts(kit, sup, combinators, downs)

    g2_terms = {fel: _value_or_fail(host, r"P (\x. Q (f x))", {**slots, "f": fel}, f"g2[{fel}]")
                for fel in host.ordered(host.filter)}
    witnesses = {
        "u": combinators["K"],
        "g2": g2_terms,
        "g3": _value_or_fail(host, r"P (\x. i' (e (H (i x))))", slots, "g3"),  # P K
        "h3": _value_or_fail(host, r"P (\x. Q (Q x))", slots, "h3"),
        "g4": combinators["R"],
        "h4": combinators["Q"],
    }
    star = _value_or_fail(host, r"\u w. P (\x. x w) u", slots, "v")

    alg = PseudoDAlgebra(host=host, sup=sup, name=f"sup({kit.name})")
    rep = check_pseudo_d_algebra(alg, witnesses=witnesses)
    if not rep.passed:
        failed = ", ".join(r.check for r in rep.failures)
        raise ConstructionError(f"derived sup breaks {failed}")
    star_ok = check_star(alg, v=star)
    rep.found("sup.star", "v", star_ok, "derived v fails")
    if star_ok is None:
        raise ConstructionError("derived sup breaks the uniform bound condition")
    return DerivedSupAlgebra(algebra=alg, combinators=combinators,
                             witnesses=witnesses, star=star, report=rep)


def _verify_derivation_facts(kit, sup, combinators, downs):
    """Facts (a), (b) and (d) satisfied by the derived combinators, exhaustively
    (fact (c) is the sup-algebra check's clause 1 with u = K).

    Fact (a), eta·inf(V) <= inf(W) for the values W <= V of a family over a
    downset and of a part of it, reads only the closed L = lower(V) within
    L' = lower(W), and every such pair arises; a failure names (upper(L),
    upper(L')).
    """
    host = kit.host
    eta, xi, P = (combinators[n] for n in ("eta", "xi", "P"))

    def fail(which, ctx):
        raise ConstructionError(f"derivation fact ({which}) fails at {ctx!r}")

    # (a) eta restricts an infimum to any subset; leq(None, x) is False
    closed = host.closed_downsets()
    for low in closed:
        got = host.app(eta, kit.inf[low])
        wider = next((w for w in closed if low <= w and not host.leq(got, kit.inf[w])), None)
        if wider is not None:
            fail("a", (_bounded(host, low), _bounded(host, wider)))

    # (b) xi weakens an implication on both sides
    for b in host.elements:
        for b2 in host.elements:
            if not host.leq(b, b2):
                continue
            for c in host.elements:
                if not host.leq(host.app(xi, kit.imp_of(b2, c)), kit.imp_of(b, c)):
                    fail("b", (b, b2, c, "antitone"))
                if not host.leq(host.app(xi, kit.imp_of(c, b)), kit.imp_of(c, b2)):
                    fail("b", (b, b2, c, "monotone"))

    # (d) P turns a pointwise bound into a bound on the sup
    for f in host.elements:
        for alpha in downs:
            prods = host.products((f,), alpha)
            if prods is None:
                continue
            for b in host.ordered(host.upper(prods)):
                if not host.leq(host.app_app(P, f, sup[alpha]), b):
                    fail("d", (f, sorted(map(str, alpha)), b))


def implication_from_sup(alg, report, v):
    """Recover an implicative kit from a sup-algebra with the bound condition.

    imp(b,c) = sup of {a | a·b' defined and below c for all b' <= b};
    inf[L] = sup L for each closed downset L (the lower bounds of the subsets
    it is the infimum of).  The constants come from the clause witnesses:
    e = <x> u (h4 x), e' = the bound witness, i = the clause-2 witness for
    s·k·k (strengthened through g4∘u when the bare witness does not
    verify), i' = e.  ``report`` is the caller's
    ``check_pseudo_d_algebra(alg)`` and ``v`` its ``check_star(alg)``; a
    ``v`` outside the filter is a ConstructionError.
    """
    host = alg.host
    if not report.passed:
        raise ConstructionError("implication_from_sup needs a passing algebra")
    if v not in host.filter:  # None too: no witness was found
        raise ConstructionError(f"uniform bound witness v = {v!r} lies outside the filter")

    u = report.record("sup.monotone_u").witnesses["u"]
    h4 = report.record("sup.principal_h4").witnesses["h4"]
    g4 = report.record("sup.principal_g4").witnesses["g4"]
    g2, skk = report.record("sup.image_g2").witnesses["g2"], opcamod.skk_element(host)
    if skk not in g2:  # g2 has a witness per filter element
        raise ConstructionError(f"s·k·k = {skk!r} lies outside the filter")
    g2_skk = g2[skk]

    imp = {}
    for b in host.elements:
        for c in host.elements:
            imp[(b, c)] = alg.value(host.arrow(host.down(b), host.down(c)))

    inf = {low: alg.value(low) for low in host.closed_downsets()}

    e = _value_or_fail(host, r"\x. u (h4 x)", {"u": u, "h4": h4}, "e")

    i = g2_skk
    if any(_inf_clause_failure(host, i, inf, low) for low in inf):
        i = _value_or_fail(host, r"\x. g4 (u (g2 x))", {"g4": g4, "u": u, "g2": g2_skk},
                           "i (strengthened)")
    return ImplicativeKit(host=host, inf=inf, imp=imp,
                          i=i, i_prime=e, e=e, e_prime=v,
                          name=f"kit({alg.name})")
