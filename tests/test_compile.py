"""Compiled closed terms against the recursive term walk (``test_terms.walk``)."""

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realcheck import aks as aksmod
from realcheck import bco as bcomod
from realcheck.aks import Aks, build_aks, check_aks
from realcheck.errors import ConstructionError, StructureError
from realcheck.lattices import L2
from realcheck.opca import FiniteOpca, derive_sequence_kit
from realcheck.terms import App, Const, K, S, Var, app, compile_closed, compile_terms, lam

from conftest import CHILD_ENV
from test_golden import PERFBENCH, perfbench_modules
from test_opca import (LATTICES, assert_kit_check_matches_the_reference, kit_opcas,
                       partial_opcas)
from test_terms import walk

# -- compiled programs against the walk ---------------------------------------------

SLOT_NAMES = ("f", "g", "h")


def open_terms(max_leaves=12):
    leaf = st.sampled_from([K, S, Var("x"), Var("y")] + [Const(n) for n in SLOT_NAMES])
    return st.recursive(leaf, lambda sub: st.builds(App, sub, sub), max_leaves=max_leaves)


def step_terms(program, slots):
    """The term each step of ``program`` computes, with the slot values in."""
    terms = [K, S, *(Const(slots[name]) for name in program.slots)]
    for fn, arg in program.steps:
        terms.append(App(terms[fn], terms[arg]))
    return terms


def first_undefined(term, opca):
    """The subterm at which the walk of ``term`` stops, or None when it is defined."""
    if isinstance(term, App):
        for child in (term.fn, term.arg):
            stop = first_undefined(child, opca)
            if stop is not None:
                return stop
        if walk(term, None, opca) is None:
            return term
    return None


LIBRARY_SOURCES = ([aksmod._DOT, aksmod._KOF, aksmod._K, aksmod._S, aksmod._CC]
                   + [source for _, source in bcomod._COMBINATORS])


@st.composite
def programs(draw):
    """A program of one or more roots: the library's sources or random terms
    closed over x and y, whose Const leaves are slots."""
    if draw(st.booleans()):
        return compile_closed(*draw(st.lists(st.sampled_from(LIBRARY_SOURCES),
                                             min_size=1, max_size=3)))
    bodies = draw(st.lists(open_terms(), min_size=1, max_size=3))
    return compile_terms([lam("x y", body) for body in bodies])


@given(partial_opcas(), programs(), st.data())
@settings(max_examples=300, deadline=None)
def test_compiled_programs_match_the_walk(opca, program, data):
    slots = {name: data.draw(st.sampled_from(opca.elements)) for name in program.slots}
    values = program.values(opca, slots)
    # every step, hence every root, has the walk's value
    for term, value in zip(step_terms(program, slots), values):
        assert walk(term, None, opca) == value
    roots = [program.filled(i, slots) for i in range(len(program.roots))]
    assert program.run(opca, slots) == [walk(t, None, opca) for t in roots]
    # the first undefined step is where the walk of the first undefined root stops
    walked = next((stop for t in roots if (stop := first_undefined(t, opca))), None)
    if None in values:
        assert step_terms(program, slots)[values.index(None)] == walked
    else:
        assert walked is None


def test_a_slot_outside_the_carrier_is_refused_like_a_constant():
    program = compile_closed(r"\x. f x")
    with pytest.raises(ValueError, match="constant 'zz' outside the carrier"):
        program.run(L2, {"f": "zz"})
    with pytest.raises(ValueError, match="constant 'zz' outside the carrier"):
        walk(program.filled(0, {"f": "zz"}), None, L2)


def test_a_slot_not_given_is_refused_by_name():
    program = compile_closed(r"\x. f x")
    for slots in (None, {}, {"g": "1"}):
        with pytest.raises(ValueError, match="no value for slot 'f'"):
            program.run(L2, slots)


def test_open_terms_do_not_compile():
    with pytest.raises(ValueError, match="needs closed terms, got free x"):
        compile_terms([app(K, Var("x"))])


def test_sources_compile_once_and_share_subterms():
    assert compile_closed(aksmod._K, aksmod._S) is compile_closed(aksmod._K, aksmod._S)
    both = compile_closed(aksmod._K, aksmod._S)
    apart = len(compile_closed(aksmod._K).steps) + len(compile_closed(aksmod._S).steps)
    assert len(set(both.steps)) == len(both.steps) < apart
    assert both.slots == ("b", "n0", "c", "n2", "dot", "n1", "n3")


# -- build_aks against the construction as it walked its terms ------------------------

def reference_build_aks(opca, max_len, U):
    """The construction with every distinguished term abstracted and walked
    per structure: the oracle for ``build_aks``'s elements and messages."""
    kit = derive_sequence_kit(opca, max_len=max_len)

    def element(term):
        value = walk(term, None, opca)
        if value is None:
            raise ConstructionError(f"kit term undefined: {term!r}")
        return value

    b_el, c_el, d_el = (kit.element(t) for t in (kit.b, kit.c, kit.d))

    def apply_or_die(f, x, what):
        out = opca.app(f, x)
        if out is None:
            raise ConstructionError(f"{what} undefined during aks construction")
        return out

    d_row = [(a, apply_or_die(d_el, a, f"d·{a}")) for a in opca.elements]
    frontier = list(kit.stack_codes)
    seen = set(frontier)
    while frontier:
        pi = frontier.pop()
        for a, da in d_row:
            v = apply_or_die(da, pi, f"d·{a}·{pi}")
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    stacks = tuple(opca.ordered(seen))

    bC, cC, dC = Const(b_el), Const(c_el), Const(d_el)
    dot_el = element(lam("x y p", app(Var("x"), app(dC, Var("y"), Var("p")))))

    def nth(i, rho):
        return app(bC, Const(kit.numeral_value(i)), rho)

    def tail_from(j, rho):
        return app(cC, Const(kit.numeral_value(j)), rho)

    p = Var("p")
    k_term = lam("p", app(nth(0, p), tail_from(2, p)))
    s_term = lam("p", app(app(Const(dot_el),
                              app(Const(dot_el), nth(0, p), nth(2, p)),
                              app(Const(dot_el), nth(1, p), nth(2, p))),
                          tail_from(3, p)))
    kof_el = element(lam("q p", app(nth(0, p), Var("q"))))
    cc_term = lam("p", app(nth(0, p),
                           app(dC, app(Const(kof_el), tail_from(1, p)), tail_from(1, p))))
    K_el, S_el, cc_el = element(k_term), element(s_term), element(cc_term)

    dot = {}
    for t in opca.elements:
        dt = apply_or_die(dot_el, t, f"dot·{t}")
        for s in opca.elements:
            dot[(t, s)] = apply_or_die(dt, s, f"dot·{t}·{s}")
    push = {(t, pi): apply_or_die(dt, pi, f"push {t}.{pi}") for t, dt in d_row for pi in stacks}
    kof = {pi: apply_or_die(kof_el, pi, f"kOf({pi})") for pi in stacks}
    pole = frozenset((t, pi) for t in opca.elements for pi in stacks if opca.app(t, pi) in U)
    return stacks, dot, push, kof, K_el, S_el, cc_el, pole


def built(call):
    try:
        result = call()
    except (ConstructionError, StructureError) as e:
        return (type(e).__name__, str(e))
    if isinstance(result, tuple):
        return result
    a = result.aks
    return a.stacks, a.dot, a.push, a.kof, a.K, a.S, a.cc, a.pole


def opca_of(rows, k, s, leq, filt):
    """A filtered opca on a-d: ``rows`` "xyz" for x·y = z, ``leq`` "xy" for x <= y."""
    return FiniteOpca(elements=tuple("abcd"), leq_pairs=frozenset(map(tuple, leq.split())),
                      table={(x, y): z for x, y, z in rows.split()}, k=k, s=s,
                      filter=frozenset(filt), name="pinned")


# Structures on which, with U empty, the kit check passes and one
# distinguished term or numeral comes out undefined (found by a random
# search that deletes or redirects the first table entries each term
# reads), or one entry of push, dot or kOf does (found by deleting, from a
# random total table on a chain whose kit check passes, one entry that the
# frame reads and the kit check does not), with the messages.
CHAIN = "ab ac ad bc bd cd"
PINNED = [
    (("aad aba acc add bac bcc bdc caa cbb ccb cda daa dba dcb dda", "d", "c",
      "ab ad bc bd cd", "abcd"), 0,
     "kit term undefined: S (S (K S) (S (K K) (S (K S) (S (K K) (S K K)))))"
     " (K (S (S (K S) (S (K K) (S (K c) (S K K)))) (K (S K K))))"),
    (("aac acc ada bbb bcb bdc cad cbb ccb cdd dad dbc dcc ddd", "a", "d", "bd cd", "abcd"),
     0, "numeral 2 undefined"),
    (("aaa abc acc ada bad bbd bcd bdb cab cbb ccb dad dba dca ddd", "c", "a",
      "ab ac ad bd cd", "ab"), 0,
     "kit term undefined: S (K (S (S (K (b b)) (S K K)))) (S (K K) (S K K))"),
    (("aab aba aca ada bac bbc bca bdd cab cca dab dbc dca ddc", "b", "a", "ab ac bc cd", "abcd"),
     1, "kit term undefined: S (S (K (b c)) (S K K)) (S (K (c b)) (S K K))"),
    (("aaa abd acd add baa bba bda cac cca cdc dab dbd dcc ddd", "c", "c",
      "ab ac ad bd cd", "abcd"), 0,
     "kit term undefined: S (S (S (K a) (S (S (K a) (S (K (a c)) (S K K))) (S (K (a c)) (S K K))))"
     " (S (S (K a) (S (K (a a)) (S K K))) (S (K (a c)) (S K K)))) (S (K (d a)) (S K K))"),
    (("aab aba aca ada bac bbc bca bdd cba cca dab dbc dca ddc", "b", "a", "ab ac bc cd", "abcd"),
     1, "kit term undefined: S (S (K (b c)) (S K K))"
     " (S (S (K a) (S (K a) (S (K (c a)) (S K K)))) (S (K (c a)) (S K K)))"),
    (("aad abb acc ada baa bbb bcd bdd cab cbc cca cdb dbd dcc ddd", "b", "a", CHAIN, "abcd"),
     0, "d·c·a undefined during aks construction"),
    (("aad abb acd adb baa bbd bca bdd cab cbd ccc cdd dab dba ddb", "a", "c", CHAIN, "abcd"),
     0, "dot·c undefined during aks construction"),
    (("aac abc acc add bba bcc bdc cab cba ccc cdb daa dbc dca dda", "c", "c", CHAIN, "c"),
     0, "dot·a·a undefined during aks construction"),
    (("aab abd acb adb baa bba bcd bdc cab ccd cdc daa dbd dca dda", "d", "c", CHAIN, "abcd"),
     0, "kOf(b) undefined during aks construction"),
]


@pytest.mark.parametrize("spec, max_len, message", PINNED,
                         ids=["dot", "numeral 2", "kOf", "K", "S", "cc",
                              "push", "dot row", "dot entry", "kOf entry"])
def test_undefined_terms_keep_their_messages(spec, max_len, message):
    # a failing frame is not kept: the second call fails the same way
    opca = opca_of(*spec)
    for _ in range(2):
        with pytest.raises(ConstructionError) as exc:
            build_aks(opca, max_len=max_len, U=frozenset())
        assert str(exc.value) == message
    assert derive_sequence_kit(opca, max_len=max_len)._frame is None
    assert built(lambda: reference_build_aks(opca, max_len, frozenset())) == \
        ("ConstructionError", message)


@given(kit_opcas(partial_opcas() | st.sampled_from(LATTICES)),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=200, deadline=None)
def test_a_passing_kit_check_defines_every_d_a(opca, max_len):
    # so the frame of build_aks reads each d·a without a refusal
    try:
        kit = derive_sequence_kit(opca, max_len=max_len)
    except ConstructionError:
        return
    d_el = kit.element(kit.d)
    assert all((d_el, a) in opca.table for a in opca.elements)


def test_an_undefined_empty_sequence_code_is_named():
    # PAIR is d and the numeral 0 is a, and no kit term or numeral reads
    # d·a, which is undefined, so the code (p·0)·nil of [] is (found by
    # deleting p·0 from random total tables on a chain whose kit check passed)
    opca = opca_of("aad abd acd add bad bbb bca bdb cab cbc ccc cda dbc dcb dda",
                   "c", "b", CHAIN, "abcd")
    with pytest.raises(ConstructionError) as exc:
        derive_sequence_kit(opca, max_len=0)
    assert str(exc.value) == "sequence code for [] undefined"
    assert_kit_check_matches_the_reference(opca, 0)


@st.composite
def aks_inputs(draw, bases=partial_opcas() | st.sampled_from(LATTICES)):
    opca = draw(kit_opcas(bases))
    downs = [U for U in opca.downsets() if not U & opca.filter]
    U = draw(st.sampled_from(downs)) if downs else frozenset()
    return opca, U


@given(aks_inputs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=150, deadline=None)
def test_build_aks_matches_the_term_walk(case, max_len):
    opca, U = case
    assert built(lambda: build_aks(opca, max_len=max_len, U=U)) == \
        built(lambda: reference_build_aks(opca, max_len, U))


def reference_aks(opca):
    """The ``Aks`` of ``reference_build_aks`` at max_len 3, named as ``build_aks`` names it."""
    stacks, dot, push, kof, K_el, S_el, cc_el, pole = reference_build_aks(opca, 3, opca.U)
    return Aks(terms=tuple(opca.elements), stacks=stacks, dot=dot, push=push, kof=kof,
               K=K_el, S=S_el, cc=cc_el, qp=opca.filter, pole=pole,
               name=f"K({opca.name},U={sorted(map(str, opca.U))})")


def test_frames_never_carry_a_first_callers_u():
    # whichever U of a base comes first builds the frame that its other U share
    workloads, _ = perfbench_modules()
    want = [(a._values(), check_aks(a).records)
            for a in map(reference_aks, workloads.krivine_cases())]
    shuffled = list(range(len(want)))
    random.Random(7).shuffle(shuffled)
    for order in (range(len(want)), range(len(want))[::-1], shuffled):
        cases = workloads.krivine_cases()  # new opcas, so new kits and frames
        built_in_order = {i: build_aks(cases[i], max_len=3, U=cases[i].U) for i in order}
        for i, (fields, records) in enumerate(want):
            got = built_in_order[i].aks
            assert got._values() == fields and check_aks(got).records == records, cases[i].name
        builds = built_in_order.values()
        assert len({id(b.kit._frame) for b in builds}) == 10  # one per base
        assert all(b.aks.dot is b.kit._frame.dot and b.aks._pulls is b.kit._frame._pulls
                   for b in builds)


# -- closed terms are compiled once per process -------------------------------------

LAM_GUARD = r"""
import sys
from collections import Counter
sys.path.insert(0, sys.argv[1])
import realcheck
from realcheck import aks, opca, terms
from realcheck.aks import build_aks
import workloads

abstracted = Counter()
lam = terms.lam

def counting(names, body):
    abstracted[(str(names), body)] += 1
    return lam(names, body)

for module in (terms, opca, aks, realcheck):
    for key, value in list(vars(module).items()):
        if value is lam:
            setattr(module, key, counting)
for case in workloads.krivine_cases():
    build_aks(case, max_len=3, U=case.U)
print(sum(abstracted.values()), max(abstracted.values()))
"""


def test_krivine_cases_abstract_each_term_once():
    # a fresh process, so every term is built and compiled under the count
    out = subprocess.run([sys.executable, "-c", LAM_GUARD, str(PERFBENCH)], env=CHILD_ENV,
                         capture_output=True, text=True, check=True).stdout.split()
    calls, most = map(int, out)
    assert calls > 0 and most == 1
