from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realcheck import terms as termsmod
from realcheck.errors import StructureError
from realcheck.lattices import L2
from realcheck.opca import KIT_LEN_CAP, FiniteOpca, SequenceKit
from realcheck.terms import (FST, NIL, PAIR, PRED, SND, SUCC, ZERO, App, Const, Diverged, K,
                             S, Var, _kit_program, _kit_terms, app, bracket, compile_terms,
                             eval_in_opca, free_vars, lam, numeral, parse_term, reduce_term,
                             subst, term_str)

from conftest import STANDARD_OPCAS
from test_opca import OUTSIDE, partial_opcas

I = app(S, K, K)


def terms_strategy(leaves, max_leaves=6):
    leaf = st.sampled_from(leaves)
    return st.recursive(leaf, lambda sub: st.builds(App, sub, sub),
                        max_leaves=max_leaves)


CLOSED_LEAVES = [K, S, Const("a"), Const("b")]
OPEN_LEAVES = CLOSED_LEAVES + [Var("x"), Var("y")]


# -- bracket abstraction ----------------------------------------------------

def test_identity_abstraction_is_skk():
    assert bracket("x", Var("x")) == I


def test_constant_rule():
    assert bracket("x", Var("y")) == App(K, Var("y"))
    assert bracket("x", Const("c")) == App(K, Const("c"))


def test_application_rule():
    body = App(Var("x"), Var("y"))
    assert bracket("x", body) == app(S, I, App(K, Var("y")))


def test_two_variable_projection_reduces_to_first():
    # fuel-bounded reduction is the oracle here
    proj = lam("x y", Var("x"))
    assert reduce_term(app(proj, Const("a"), Const("b")), 100) == Const("a")


def reference_bracket(name, body):
    """The classic algorithm as first written: a free_vars test at every level."""
    if name not in free_vars(body):
        return App(K, body)
    if isinstance(body, Var):
        return I
    return App(App(S, reference_bracket(name, body.fn)),
               reference_bracket(name, body.arg))


def reference_lam(names, body):
    for name in reversed(names.split()):
        body = reference_bracket(name, body)
    return body


THREE_VAR_LEAVES = CLOSED_LEAVES + [Var("x"), Var("y"), Var("z")]


@given(terms_strategy(THREE_VAR_LEAVES, max_leaves=12))
@settings(max_examples=300)
def test_bracket_matches_the_reference_algorithm(body):
    for name in ("x", "y", "z", "w"):
        assert bracket(name, body) == reference_bracket(name, body)
    for names in ("x", "y x", "x y z", "z w"):
        assert lam(names, body) == reference_lam(names, body)


def test_pairing_term_matches_the_reference_algorithm():
    assert PAIR == reference_lam("x y z", app(Var("z"), Var("x"), Var("y")))


@lru_cache(maxsize=None)
def recursive_numeral(n):
    """Numeral n abstracted from numeral n-1, each level one call deeper."""
    return lam("x y", App(Var("x"), recursive_numeral(n - 1))) if n else ZERO


def test_memoized_kit_terms_equal_fresh_ones():
    for max_len in range(4):
        kit = SequenceKit(L2, max_len)
        assert (kit.b, kit.c, kit.d, kit.t) == _kit_terms(max_len)  # built afresh
    for n in range(KIT_LEN_CAP + 2):  # every numeral a kit at the cap reads
        assert term_str(numeral(n)) == term_str(recursive_numeral(n))


@given(terms_strategy(OPEN_LEAVES))
def test_bracket_removes_the_variable(body):
    assert "x" not in free_vars(bracket("x", body))
    assert free_vars(bracket("x", body)) == free_vars(body) - {"x"}


# -- the kit terms against the level-by-level build ----------------------------------
#
# ``terms._kit_terms`` abstracts each recursor level once, with the level
# below as a free variable, and puts the lower level in afterwards.  The
# build it replaced abstracted every level around the whole level below;
# it is kept here as the reference.

def reference_list_recursor(depth, last):
    body = lam("n rho", last)
    for _ in range(depth):
        step = lam("m", app(body, Var("m"), app(SND, Var("rho"))))
        body = lam("n rho", app(Var("n"), step, last))
    return body


def reference_minus_recursor(depth):
    body = lam("m n", Var("m"))
    for _ in range(depth):
        step = lam("n2", app(body, app(PRED, Var("m")), Var("n2")))
        body = lam("m n", app(Var("n"), step, Var("m")))
    return body


def reference_kit_terms(max_len):
    depth = max_len + 1
    return (
        lam("n l", app(reference_list_recursor(depth, app(FST, Var("rho"))), Var("n"),
                       app(SND, Var("l")))),
        lam("n l", app(PAIR,
                       app(reference_minus_recursor(depth), app(FST, Var("l")), Var("n")),
                       app(reference_list_recursor(depth, Var("rho")), Var("n"),
                           app(SND, Var("l"))))),
        lam("a l", app(PAIR,
                       app(SUCC, app(FST, Var("l"))),
                       app(PAIR, Var("a"), app(SND, Var("l"))))),
        lam("a", app(PAIR, app(SUCC, ZERO), app(PAIR, Var("a"), NIL))),
    )


@pytest.mark.parametrize("max_len", [*range(9), KIT_LEN_CAP])
def test_kit_terms_equal_the_level_by_level_build(max_len):
    assert _kit_terms(max_len) == reference_kit_terms(max_len)


def test_kit_program_has_the_steps_of_the_level_by_level_build():
    roots = (PAIR, *reference_kit_terms(3), *(numeral(n) for n in range(5)))
    assert _kit_program(3).steps == compile_terms(roots).steps


def test_kit_terms_visit_linearly_many_subterms(monkeypatch):
    visits = 0
    walk = termsmod._subterms

    def counting(roots):
        nonlocal visits
        for term in walk(roots):
            visits += 1
            yield term

    monkeypatch.setattr(termsmod, "_subterms", counting)
    _kit_terms(8)
    at_8, visits = visits, 0
    _kit_terms(KIT_LEN_CAP)
    assert visits < 30_000 and visits < 10 * at_8  # 582,461 and 42x, level by level


# -- reduction ---------------------------------------------------------------

def test_k_law_reduction():
    assert reduce_term(app(K, Const("a"), Const("b")), 10) == Const("a")


def test_skk_is_identity():
    assert reduce_term(app(S, K, K, Const("a")), 10) == Const("a")


def test_self_application_diverges_at_any_fuel():
    w = app(S, I, I)
    for fuel in (0, 1, 10, 1000):
        assert isinstance(reduce_term(app(w, w), fuel), Diverged)


def test_reduce_rejects_open_terms():
    try:
        reduce_term(Var("x"), 5)
    except ValueError:
        return
    raise AssertionError("open term accepted")


@given(terms_strategy(CLOSED_LEAVES), st.integers(min_value=0, max_value=50))
def test_reduce_deterministic(term, fuel):
    assert reduce_term(term, fuel) == reduce_term(term, fuel)


@given(terms_strategy(CLOSED_LEAVES))
@settings(max_examples=60)
def test_fuel_monotone_once_stable(term):
    r = reduce_term(term, 60)
    if not isinstance(r, Diverged):
        assert reduce_term(term, 200) == r


# -- evaluation in an opca ---------------------------------------------------

PARTIAL = FiniteOpca(elements=("0", "1"), leq_pairs=frozenset(),
                     table={("1", "1"): "1", ("1", "0"): "0", ("0", "1"): "0"},
                     k="1", s="1", name="partial")  # 0·0 undefined


def walk(term, env, opca):
    """The recursive term walk that ``eval_in_opca`` used to be, kept as the
    reference for the compiled path: bottom-up, function before argument,
    stopping at the first undefined step, so the leaves after that step are
    never checked."""
    if isinstance(term, Var):
        if env is None or term.name not in env:
            raise ValueError(f"unbound variable {term.name!r}")
        value = env[term.name]
        if value not in opca.element_set:
            raise ValueError(f"environment maps {term.name!r} outside the carrier")
        return value
    if term is K:
        return opca.k
    if term is S:
        return opca.s
    if isinstance(term, Const):
        if term.value not in opca.element_set:
            raise ValueError(f"constant {term.value!r} outside the carrier")
        return term.value
    fn = walk(term.fn, env, opca)
    if fn is None:
        return None
    arg = walk(term.arg, env, opca)
    if arg is None:
        return None
    return opca.app(fn, arg)


@st.composite
def eval_cases(draw):
    """Any table, an open term over x and y with constants inside and outside
    the carrier, and an env (or none) binding some variables inside or outside."""
    opca = draw(partial_opcas())
    leaves = [K, S, Var("x"), Var("y"), Const(OUTSIDE), *map(Const, opca.elements)]
    term = draw(terms_strategy(leaves, max_leaves=10))
    values = st.sampled_from(opca.elements + (OUTSIDE,))
    env = draw(st.fixed_dictionaries({"x": values}, optional={"y": values}) | st.none())
    return opca, term, env


def outcome(evaluate, *args):
    try:
        return ("value", evaluate(*args))
    except ValueError as e:
        return ("error", str(e))


@given(eval_cases())
@example((PARTIAL, app(Const("0"), Const("0"), Const(OUTSIDE)), None))
@settings(max_examples=300, deadline=None)
def test_eval_matches_the_walk_except_where_the_walk_stops_early(case):
    opca, term, env = case
    got = outcome(eval_in_opca, term, env, opca)
    assert outcome(opca.eval, term, env) == got
    walked = outcome(walk, term, env, opca)
    # over the table made total the walk reaches every leaf, so it refuses
    # the first bad one; the compiled path refuses it whatever the table
    total = {(a, b): opca.table.get((a, b), opca.k) for a in opca.elements for b in opca.elements}
    refused = outcome(walk, term, env, opca.replace(table=total))
    if refused[0] == "error":
        assert got == refused
        # the one difference: the walk stopped at an undefined step first
        assert walked in (refused, ("value", None))
    else:
        assert got == walked


def test_a_bad_variable_after_an_undefined_step_is_refused():
    term = app(Const("0"), Const("0"), Var("x"))
    assert walk(term, {}, PARTIAL) is None
    with pytest.raises(ValueError, match="unbound variable 'x'"):
        PARTIAL.eval(term, {})
    with pytest.raises(ValueError, match="environment maps 'x' outside the carrier"):
        PARTIAL.eval(term, {"x": OUTSIDE})
    assert PARTIAL.eval(term, {"x": "1"}) is None


def test_identity_evaluates_to_top_in_l2():
    assert L2.eval(I) == "1"


def test_k_application_below_first_argument_everywhere():
    for opca in STANDARD_OPCAS:
        for a in opca.elements:
            for b in opca.elements:
                got = opca.eval(app(K, Const(a), Const(b)))
                assert got is not None and opca.leq(got, a)


def test_undefined_entry_propagates():
    assert PARTIAL.eval(App(Const("0"), Const("0"))) is None
    assert PARTIAL.eval(App(Const("1"), App(Const("0"), Const("0")))) is None


def test_eval_requires_bound_variables():
    try:
        eval_in_opca(Var("x"), {}, L2)
    except ValueError:
        return
    raise AssertionError("unbound variable accepted")


def test_substitution_matches_environment_eval():
    body = app(Var("x"), App(K, Var("x")))
    for a in L2.elements:
        direct = eval_in_opca(body, {"x": a}, L2)
        substituted = L2.eval(subst(body, "x", Const(a)))
        assert direct == substituted


# -- surface syntax ----------------------------------------------------------

def test_parse_juxtaposition_left_associative():
    assert parse_term("K a b") == app(K, Const("a"), Const("b"))


def test_parse_parentheses():
    assert parse_term("K (a b)") == App(K, App(Const("a"), Const("b")))


def test_parse_lambda_compiles_through_bracket():
    assert parse_term(r"\x. x") == I
    assert parse_term(r"\x y. x") == lam("x y", Var("x"))


def test_parse_binder_scoping():
    term = parse_term(r"\x. x y")
    assert free_vars(term) == frozenset()
    assert Const("y") in (term.arg.arg,)  # y stayed a constant


def test_parse_errors():
    for bad in ("", "(a", r"\. x", r"\x", "a )"):
        try:
            parse_term(bad)
        except ValueError:
            continue
        raise AssertionError(f"parsed {bad!r}")


def spine_of_spines(levels, width):
    """((K K ... K) K ... K) ...: each level adds ``width`` applications."""
    src = "K"
    for _ in range(levels):
        src = f"({src}) " + " ".join(["K"] * width)
    return src


@pytest.mark.parametrize("src", [
    "(" * 3000 + "K" + ")" * 3000,
    "(" * 101 + "K" + ")" * 101,
    " ".join(["K"] * 5000),
    " ".join(["K"] * 102),
    "".join(f"\\x{i}. " for i in range(101)) + "K",
    spine_of_spines(20, 6),
], ids=["parentheses", "parentheses-101", "spine", "spine-101", "binders-101",
        "spine-of-spines"])
def test_terms_nested_past_the_limit_are_refused(src):
    with pytest.raises(StructureError, match="term nests deeper than 100"):
        parse_term(src)


def test_a_binder_past_the_limit_is_refused_before_abstraction(monkeypatch):
    def abstraction(names, body):
        raise AssertionError("abstracted a term nested past the limit")
    names = " ".join(f"x{i}" for i in range(101))
    monkeypatch.setattr(termsmod, "lam", abstraction)
    with pytest.raises(StructureError, match="term nests deeper than 100"):
        parse_term(f"\\{names}. {names}")  # the chain nests 100 deep, the binder 101


def test_terms_at_the_limit_parse():
    assert parse_term("(" * 100 + "K" + ")" * 100) == K
    assert parse_term(" ".join(["K"] * 101)) == app(*[K] * 101)
    assert parse_term(spine_of_spines(20, 5)) == app(*[K] * 101)
    constant = K
    for _ in range(100):  # <x>M = K M when x is not free in M
        constant = App(K, constant)
    assert parse_term("".join(f"\\x{i}. " for i in range(100)) + "K") == constant


def sources():
    """Surface syntax: identifiers (some bound by binders, some not), K, S,
    application with and without parentheses, and binders."""
    atom = st.sampled_from(("x", "y", "z", "a", "K", "S"))

    def extend(sub):
        names = st.lists(st.sampled_from(("x", "y", "z")), min_size=1, max_size=3).map(" ".join)
        return (st.tuples(sub, sub).map(lambda p: f"{p[0]} {p[1]}")
                | st.tuples(sub, sub).map(lambda p: f"{p[0]} ({p[1]})")
                | st.tuples(names, sub).map(lambda p: f"(\\{p[0]}. {p[1]})"))
    return st.recursive(atom, extend, max_leaves=12)


@given(sources() | st.lists(st.sampled_from(["x", "y", "a", "K", "(", ")", "\\", "."]))
       .map(" ".join))
@settings(max_examples=300)
def test_parsed_terms_are_closed(src):
    # every name a binder binds is abstracted at that binder; others are constants
    try:
        term = parse_term(src)
    except ValueError:
        return
    assert free_vars(term) == frozenset()


@given(terms_strategy(CLOSED_LEAVES))
def test_print_parse_round_trip(term):
    assert parse_term(term_str(term)) == term
