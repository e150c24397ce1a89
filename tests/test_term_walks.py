"""The term functions walk ``terms._subterms`` instead of recursing.

The recursive walkers they replaced are kept here as references: on any
term, shared subterms included, the new code gives the same abstraction,
program, text, free variables and value or message.  Terms thousands of
levels deep then go through every term function at the default recursion
limit, checked by strings and program steps.  ``App``'s ``==`` and ``hash``
run on their own stack too: they agree with a recursive comparison on
shallow terms and answer on deep ones.
"""

import ast
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import realcheck
from realcheck import terms as termsmod
from realcheck.errors import CapExceeded
from realcheck.opca import FiniteOpca
from realcheck.terms import (BRACKET_NODE_CAP, App, Const, K, S, Var, app, bracket,
                             compile_terms, eval_in_opca, free_vars, lam, numeral, parse_term,
                             subst, term_str)

from conftest import STANDARD_OPCAS
from test_compile import LIBRARY_SOURCES
from test_opca import OUTSIDE, partial_opcas
from test_terms import OPEN_LEAVES, outcome, terms_strategy

# -- the recursive walkers, as terms.py had them -------------------------------------

SKK = app(S, K, K)


def recursive_free_vars(term):
    if isinstance(term, Var):
        return frozenset((term.name,))
    if isinstance(term, App):
        return recursive_free_vars(term.fn) | recursive_free_vars(term.arg)
    return frozenset()


def recursive_map_leaves(term, fn):
    if isinstance(term, App):
        return App(recursive_map_leaves(term.fn, fn), recursive_map_leaves(term.arg, fn))
    return fn(term)


def recursive_abstract(name, body):
    if isinstance(body, Var):
        return SKK if body.name == name else None
    if not isinstance(body, App):
        return None
    fn = recursive_abstract(name, body.fn)
    arg = recursive_abstract(name, body.arg)
    if fn is None and arg is None:
        return None
    return App(App(S, App(K, body.fn) if fn is None else fn),
               App(K, body.arg) if arg is None else arg)


def recursive_bracket(name, body):
    out = recursive_abstract(name, body)
    return App(K, body) if out is None else out


def recursive_lam(names, body):
    for name in reversed(names.split() if isinstance(names, str) else list(names)):
        body = recursive_bracket(name, body)
    return body


def recursive_eq(a, b):
    """The field-by-field comparison ``Value`` gives every record, recursing."""
    if isinstance(a, App) and isinstance(b, App):
        return recursive_eq(a.fn, b.fn) and recursive_eq(a.arg, b.arg)
    return not isinstance(a, App) and not isinstance(b, App) and a == b


def recursive_compile_terms(roots):
    slots, steps, step_of_pair = {}, [], {}
    step_of_term = {id(K): 0, id(S): 1}

    def visit(term):
        step = step_of_term.get(id(term))
        if step is None:
            if isinstance(term, Var):
                raise ValueError(f"compile_terms needs closed terms, got free {term!r}")
            if isinstance(term, Const):
                step = slots.setdefault(term.value, -1 - len(slots))
            else:
                pair = (visit(term.fn), visit(term.arg))
                step = step_of_pair.get(pair)
                if step is None:
                    step = step_of_pair[pair] = len(steps) + 2
                    steps.append(pair)
            step_of_term[id(term)] = step
        return step

    outputs = [visit(term) for term in roots]

    def placed(step):
        return 1 - step if step < 0 else step + len(slots) if step > 1 else step

    return termsmod.Program(tuple(roots), tuple(slots),
                            tuple((placed(f), placed(a)) for f, a in steps),
                            tuple(map(placed, outputs)))


def recursive_term_str(term):
    def go(t, parenthesize):
        if isinstance(t, (Var, termsmod._Basic)):
            return t.name
        if isinstance(t, Const):
            return str(t.value)
        inner = f"{go(t.fn, False)} {go(t.arg, True)}"
        return f"({inner})" if parenthesize else inner
    return go(term, False)


def recursive_eval_in_opca(term, env, opca):
    def bind(leaf):
        if isinstance(leaf, Var):
            if env is None or leaf.name not in env:
                raise ValueError(f"unbound variable {leaf.name!r}")
            if env[leaf.name] not in opca.element_set:
                raise ValueError(f"environment maps {leaf.name!r} outside the carrier")
            return Const(env[leaf.name])
        if isinstance(leaf, Const) and leaf.value not in opca.element_set:
            raise ValueError(f"constant {leaf.value!r} outside the carrier")
        return leaf
    program = recursive_compile_terms((recursive_map_leaves(term, bind),))
    [value] = program.run(opca, dict(zip(program.slots, program.slots)))
    return value


def fields(program):
    return program.roots, program.slots, program.steps, program.outputs


# -- the same results on any term, shared subterms included --------------------------

NAMES = ("x", "y", "z")
LEAVES = [K, S, *map(Var, NAMES), Const("a"), Const("b"), Const(OUTSIDE)]


@st.composite
def shared_terms(draw, leaves=LEAVES):
    """A term whose applications may reuse earlier subterm objects, so the
    walk meets a subterm more than once."""
    nodes = [draw(st.sampled_from(leaves))]
    for _ in range(draw(st.integers(min_value=0, max_value=16))):
        part = st.sampled_from(leaves) | st.sampled_from(nodes)
        nodes.append(App(draw(part), draw(part)))
    return nodes[-1]


def assert_walks_agree(term):
    assert free_vars(term) == recursive_free_vars(term)
    assert term_str(term) == recursive_term_str(term)
    assert not isinstance(term, App) or repr(term) == term_str(term)
    for name in NAMES + ("w",):
        assert bracket(name, term) == recursive_bracket(name, term)
        replaced = recursive_map_leaves(term, lambda leaf: Const("a") if leaf == Var(name)
                                        else leaf)
        assert subst(term, name, Const("a")) == replaced
    for names in ("x", "y x", "x y z"):
        assert lam(names, term) == recursive_lam(names, term)
    got = outcome(compile_terms, (term, App(term, K)))
    want = outcome(recursive_compile_terms, (term, App(term, K)))
    assert (fields(got[1]) if got[0] == "value" else got) == \
        (fields(want[1]) if want[0] == "value" else want)
    roots = (lam(NAMES, term), App(lam(NAMES, term), K))
    assert fields(compile_terms(roots)) == fields(recursive_compile_terms(roots))


@given(shared_terms())
@settings(max_examples=300, deadline=None)
def test_the_walks_match_the_recursive_walkers(term):
    assert_walks_agree(term)


@given(partial_opcas(), shared_terms(), st.data())
@settings(max_examples=300, deadline=None)
def test_eval_matches_the_recursive_walkers(opca, term, data):
    values = st.sampled_from(opca.elements + (OUTSIDE,))
    env = data.draw(st.fixed_dictionaries({}, optional={n: values for n in NAMES}) | st.none())
    assert outcome(eval_in_opca, term, env, opca) == \
        outcome(recursive_eval_in_opca, term, env, opca)


def kit_roots(max_len):
    return (termsmod.PAIR, *termsmod._kit_terms(max_len),
            *(termsmod.numeral(n) for n in range(max_len + 2)))


@pytest.mark.parametrize("max_len", range(9))
def test_kit_terms_match_the_recursive_walkers(monkeypatch, max_len):
    roots = kit_roots(max_len)
    assert fields(compile_terms(roots)) == fields(recursive_compile_terms(roots))
    assert fields(termsmod._kit_program(max_len)) == fields(recursive_compile_terms(roots))
    for term in roots:
        assert term_str(term) == recursive_term_str(term)
        assert free_vars(term) == recursive_free_vars(term) == frozenset()
        for opca in STANDARD_OPCAS:
            assert eval_in_opca(term, None, opca) == recursive_eval_in_opca(term, None, opca)
    # the kit built again with the recursive abstraction is the same terms
    monkeypatch.setattr(termsmod, "lam", recursive_lam)
    assert termsmod._kit_terms(max_len) == roots[1:5]


def library_sources():
    """Every term in the surface syntax that ``src/`` writes: the string
    constants that open with a binder."""
    found = []
    for path in sorted(Path(realcheck.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.startswith("\\") and len(node.value) > 1:
                found.append(node.value)
    return found


def test_the_library_sources_are_found():
    assert set(LIBRARY_SOURCES) < set(library_sources())
    assert r"\x. u (h4 x)" in library_sources()


@pytest.mark.parametrize("source", library_sources())
def test_library_sources_match_the_recursive_walkers(monkeypatch, source):
    term = parse_term(source)
    assert_walks_agree(term)
    program = compile_terms((term,))
    for opca in STANDARD_OPCAS:
        slots = {name: opca.elements[i % len(opca.elements)]
                 for i, name in enumerate(program.slots)}
        filled = program.filled(0, slots)
        assert filled == recursive_map_leaves(term, lambda leaf: Const(slots[leaf.value])
                                              if isinstance(leaf, Const) else leaf)
        assert eval_in_opca(filled, None, opca) == recursive_eval_in_opca(filled, None, opca)
    monkeypatch.setattr(termsmod, "lam", recursive_lam)
    assert parse_term(source) == term


# -- terms deeper than the recursion limit -------------------------------------------

DEPTH = 5000
DEEP = FiniteOpca(elements=("0", "1"), leq_pairs=frozenset(),
                  table={("0", "0"): "1", ("0", "1"): "0", ("1", "0"): "1", ("1", "1"): "0"},
                  k="1", s="1", name="deep")
ENV = {"x": "0", "y": "1"}
DEEP_LEAVES = [Var("x"), Const("1"), Var("y"), Const("0")]


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


def leaves(n):
    return [DEEP_LEAVES[i % 4] for i in range(n)]


def x_leaves(n):
    """x at every other leaf, from the first: x is free in every prefix."""
    return [Var("x") if i % 2 == 0 else Const("1") for i in range(n)]


def right_nested(parts):
    term = parts[-1]
    for part in reversed(parts[:-1]):
        term = App(part, term)
    return term


def name_of(leaf):
    return leaf.name if isinstance(leaf, Var) else leaf.value


def value_of(leaf):
    return ENV[leaf.name] if isinstance(leaf, Var) else leaf.value


@pytest.mark.usefixtures("default_recursion_limit")
def test_a_long_chain_goes_through_every_term_function():
    parts = leaves(DEPTH)
    chain = app(*parts)
    names = [name_of(leaf) for leaf in parts]
    assert free_vars(chain) == frozenset({"x", "y"})
    assert term_str(chain) == repr(chain) == " ".join(names)
    closed = subst(subst(chain, "x", Const("0")), "y", Const("1"))
    assert term_str(closed) == " ".join(ENV.get(name, name) for name in names)
    want = value_of(parts[0])
    for leaf in parts[1:]:
        want = DEEP.table[(want, value_of(leaf))]
    assert eval_in_opca(chain, ENV, DEEP) == want
    program = compile_terms((closed,))
    assert program.slots == ("0", "1") and len(program.steps) == DEPTH - 1
    assert program.run(DEEP, {"0": "0", "1": "1"}) == [want]
    assert term_str(program.filled(0, {"0": "1", "1": "0"})) == \
        " ".join({"0": "1", "1": "0"}[ENV.get(name, name)] for name in names)
    # <x>(M N) = S (<x>M) (<x>N), and <x>c = K c for a constant c
    args = ["S K K" if leaf == Var("x") else "K 1" for leaf in x_leaves(DEPTH)[1:]]
    assert term_str(bracket("x", app(*x_leaves(DEPTH)))) == \
        "S (" * (DEPTH - 1) + "S K K" + "".join(f") ({arg})" for arg in args)
    combinator = lam("x y", chain)
    assert free_vars(combinator) == frozenset()
    assert set(compile_terms((combinator,)).slots) == {"0", "1"}


@pytest.mark.usefixtures("default_recursion_limit")
def test_a_deep_right_nested_term_goes_through_every_term_function():
    parts = leaves(DEPTH)
    term = right_nested(parts)
    names = [name_of(leaf) for leaf in parts]
    assert free_vars(term) == frozenset({"x", "y"})
    assert term_str(term) == repr(term) == \
        " (".join(names[:-1]) + f" {names[-1]}" + ")" * (DEPTH - 2)
    want = value_of(parts[-1])
    for leaf in reversed(parts[:-1]):
        want = DEEP.table[(value_of(leaf), want)]
    assert eval_in_opca(term, ENV, DEEP) == want
    closed = subst(subst(term, "x", Const("0")), "y", Const("1"))
    program = compile_terms((closed,))
    assert len(program.steps) == DEPTH - 1
    assert program.run(DEEP, {"0": "0", "1": "1"}) == [want]
    assert term_str(program.filled(0, {"0": "0", "1": "1"})) == term_str(closed)
    # with x the last leaf, x is free in every suffix
    body = x_leaves(DEPTH - 1) + [Var("x")]
    heads = ["S K K" if leaf == Var("x") else "K 1" for leaf in body[:-1]]
    assert term_str(bracket("x", right_nested(body))) == \
        "".join(f"S ({head}) (" for head in heads) + "S K K" + ")" * (DEPTH - 1)
    assert free_vars(lam("x y", term)) == frozenset()


def test_a_body_past_the_node_cap_is_refused():
    at_cap = app(*[Var("x")] * BRACKET_NODE_CAP)  # one leaf and cap - 1 applications
    assert len(compile_terms((bracket("x", at_cap),)).steps) > 0
    with pytest.raises(CapExceeded) as refused:
        bracket("x", App(at_cap, K))
    assert str(refused.value) == \
        f"subterms of the body to abstract: {BRACKET_NODE_CAP + 2} items exceeds cap 65536"


@given(terms_strategy(OPEN_LEAVES), terms_strategy(OPEN_LEAVES))
@settings(max_examples=300, deadline=None)
def test_eq_and_hash_agree_with_the_recursive_comparison(a, b):
    copy = subst(a, "zz", Const(0))  # an equal term built of new App objects
    assert a == copy and not a != copy and hash(a) == hash(copy)
    assert (a == b) == (b == a) == recursive_eq(a, b) == (not a != b)
    if a == b:
        assert hash(a) == hash(b)
    assert (a == K) == recursive_eq(a, K) and (a == "K") is False


@pytest.mark.usefixtures("default_recursion_limit")
def test_deep_terms_compare_and_hash():
    deep = numeral(1200)
    copy = subst(deep, "zz", Const(0))
    assert copy is not deep and copy == deep and hash(copy) == hash(deep)
    assert deep != numeral(1199) and len({deep, copy, numeral(1199)}) == 2
    chain = app(*leaves(DEPTH))
    assert chain == subst(chain, "zz", K) and chain != subst(chain, "x", K)
    assert hash(right_nested(leaves(DEPTH))) == hash(subst(right_nested(leaves(DEPTH)), "zz", K))
