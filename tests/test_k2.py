import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realcheck import k2
from realcheck.errors import CapExceeded, StructureError
from realcheck.k2 import (FuelExhausted, K2Element, apply_elem, apply_many,
                          basic_open_contains, decode_seq, encode_seq,
                          from_expr, is_discrete, k2_apply, k2_basis,
                          parse_generator, tau_extract)

FUEL = 10 ** 5


def elem(fn, name="e"):
    return K2Element(fn, name=name)


# -- coding -------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=200000))
def test_every_number_codes_a_sequence(z):
    assert encode_seq(decode_seq(z)) == z


@given(st.lists(st.integers(min_value=0, max_value=500), max_size=12))
def test_every_sequence_has_a_code(seq):
    assert list(decode_seq(encode_seq(seq))) == seq


def test_codes_of_long_low_sequences_stay_small():
    assert encode_seq([19] + [3] * 20).bit_length() < 300


# -- application ----------------------------------------------------------------

def test_constant_one_answers_immediately():
    one = from_expr("1")
    beta = elem(lambda n: n + 5)
    for n in range(6):
        assert k2_apply(one, beta, n, 1) == 0


def test_constant_zero_never_answers():
    zero = from_expr("0")
    beta = elem(lambda n: n)
    for fuel in (0, 1, 10, 200):
        assert k2_apply(zero, beta, 3, fuel) is None


def test_read_one_value_alpha():
    # answers beta(0)+1 after reading exactly one value; the expected value
    # comes from evaluating the definition by hand: N = 1, answer beta(0)
    def fn(x):
        s = decode_seq(x)
        return s[1] + 1 if len(s) >= 2 else 0

    ro = elem(fn, "read-one")
    beta = elem(lambda n: (n % 3) + 2)
    for n in range(5):
        assert k2_apply(ro, beta, n, 10) == beta(0)


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=25),
       st.integers(min_value=0, max_value=25), st.data())
@settings(max_examples=200, deadline=None)
def test_fuel_monotone(n, f1, f2, data):
    lo, hi = sorted((f1, f2))
    vals = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                              min_size=40, max_size=40))
    alpha = elem(lambda x: vals[x % 40], "rand")
    beta = elem(lambda x: (x + 1) % 4, "beta")
    early = k2_apply(alpha, beta, n, lo)
    if early is not None:
        assert k2_apply(alpha, beta, n, hi) == early


def test_first_positive_answer_with_zeros_below():
    # by construction the scan starts at the empty prefix, so a returned
    # value always has the all-zeros side condition; check it explicitly
    def fn(x):
        s = decode_seq(x)
        return 7 if len(s) - 1 == 3 else 0

    alpha = elem(fn)
    beta = elem(lambda n: n)
    assert k2_apply(alpha, beta, 0, 10) == 6
    for l in range(3):
        assert alpha(encode_seq([0] + [beta(i) for i in range(l)])) == 0


def test_apply_elem_raises_beyond_fuel():
    zero = from_expr("0")
    e = apply_elem(zero, from_expr("n"), 5)
    with pytest.raises(FuelExhausted):
        e(0)


# -- the basis ----------------------------------------------------------------------

def test_basis_carries_the_recursive_tag():
    k, s = k2_basis()
    assert k.recursive and s.recursive


def test_k_discards_its_second_argument():
    k, _ = k2_basis()
    alpha = elem(lambda n: (7 * n + 3) % 11, "alpha")
    for beta in (elem(lambda n: n, "id"), elem(lambda n: 0, "zero")):
        kab = apply_many(FUEL, k, alpha, beta)
        for n in range(20):
            assert kab(n) == alpha(n)


def test_skk_behaves_as_identity_where_feasible():
    # reading the n-th value through the s dialogue costs rounds on the
    # order of the code of [n, values...]; n in {0, 1} with small values
    # stays inside the budget (see the package docs for the counting bound)
    k, s = k2_basis()
    alpha = elem(lambda n: (n * 7 + 1) % 2, "alpha01")
    skka = apply_many(FUEL, s, k, k, alpha)
    for n in (0, 1):
        assert skka(n) == alpha(n)


def test_s_law_on_convergent_probes():
    # strictly positive first components answer every dialogue immediately,
    # so both sides converge and must agree
    k, s = k2_basis()
    alpha = from_expr("2 + eq(n, 8)")
    beta = from_expr("1 + eq(n, 4)")
    gamma = from_expr("n + 1")
    lhs = apply_many(FUEL, s, alpha, beta, gamma)
    rhs = apply_many(FUEL, apply_many(FUEL, alpha, gamma),
                     apply_many(FUEL, beta, gamma))
    for n in range(10):
        assert lhs(n) == rhs(n)


@pytest.mark.parametrize("v", [0, 1])
def test_s_law_where_a_c_reads_b_c(v):
    # a·c answers "read more" at [0] and v at [0, v], and b·c(0) = v, so
    # (a·c)·(b·c) at 0 reads b·c(0) and answers it: each v gives its own value
    k, s = k2_basis()
    read_more = encode_seq([encode_seq([0])])
    answers = {encode_seq([encode_seq([0, u])]): u + 2 for u in (0, 1)}
    alpha = elem(lambda x: 1 if x == read_more else answers.get(x, 1), "alpha")
    beta = elem(lambda x: v + 1 if x == encode_seq([0]) else 1, "beta")
    gamma = from_expr("n")
    lhs = apply_many(FUEL, s, alpha, beta, gamma)
    rhs = apply_many(FUEL, apply_many(FUEL, alpha, gamma), apply_many(FUEL, beta, gamma))
    assert lhs(0) == rhs(0) == v


def test_s_law_vacuous_when_rhs_diverges():
    k, s = k2_basis()
    zero = from_expr("0")
    gamma = from_expr("n")
    rhs_head = apply_elem(zero, gamma, 50)
    with pytest.raises(FuelExhausted):
        rhs_head(0)  # the right-hand side is undefined-at-fuel: nothing to compare


# -- topology ---------------------------------------------------------------------------

def test_basic_open_membership_is_prefix_match():
    alpha = elem(lambda n: n % 3)
    assert basic_open_contains((0, 1, 2), alpha)
    assert not basic_open_contains((1,), alpha)


def test_singleton_family_is_discrete_with_empty_prefix():
    rep = is_discrete([elem(lambda n: n)], depth=0)
    assert rep.discrete and rep.prefixes[0] == ()


def test_two_functions_separated_at_position_three():
    t1 = elem(lambda n: n % 5, "t1")
    t2 = elem(lambda n: (n % 5) if n != 3 else 9, "t2")
    rep = is_discrete([t1, t2], depth=5)
    assert rep.discrete
    assert len(rep.prefixes[0]) == 4 and len(rep.prefixes[1]) == 4


def test_duplicates_are_not_discrete():
    t = lambda n: n % 2
    rep = is_discrete([elem(t), elem(t)], depth=6)
    assert not rep.discrete and rep.witness == (0, 1)


# -- extraction --------------------------------------------------------------------------

def scenario(tau_fn, pi_fn, nprime):
    """alpha answering tau(j)+1 once it has seen [j, pi(0..nprime), ...]."""
    tau = elem(tau_fn, "tau")
    pi = elem(pi_fn, "pi")
    prefix = [pi(i) for i in range(nprime + 1)]

    def fn(x):
        s = decode_seq(x)
        seen = list(s[1:])
        if len(seen) > len(prefix):
            seen = seen[:len(prefix)]
        if len(seen) == len(prefix) and seen == prefix and len(s) - 1 >= len(prefix):
            return tau(s[0]) + 1
        return 0

    return elem(fn, "alpha"), tau, pi, prefix


def test_extraction_recovers_the_hidden_values():
    scenarios = [
        scenario(lambda j: (3 * j + 1) % 7, lambda i: (2 * i + 1) % 5, 4),
        scenario(lambda j: j % 4, lambda i: i % 3, 2),
        scenario(lambda j: (j * j + 2) % 6, lambda i: (i + 2) % 4, 3),
    ]
    for alpha, tau, pi, prefix in scenarios:
        for j in range(10):
            assert tau_extract(alpha, prefix, len(prefix) - 1, j, fuel=6) == tau(j)


def test_extraction_agrees_with_direct_dialogue():
    alpha, tau, pi, prefix = scenario(lambda j: (3 * j + 1) % 7,
                                      lambda i: (2 * i + 1) % 5, 4)
    for j in range(10):
        direct = k2_apply(alpha, pi, j, fuel=50)
        assert direct == tau(j)
        assert tau_extract(alpha, prefix, len(prefix) - 1, j, fuel=6) == direct


def test_phase_one_answers_without_extension_search():
    def fn(x):
        return 9 if len(decode_seq(x)) >= 2 else 0

    prefix = [1, 2, 3]
    assert tau_extract(elem(fn), prefix, 2, 5, fuel=0) == 8


def test_zero_alpha_is_undefined_at_fuel():
    prefix = [1, 2]
    assert tau_extract(from_expr("0"), prefix, 1, 0, fuel=2) is None


def test_phase_two_refuses_the_call_past_the_cap(monkeypatch):
    # fuel 2: phase 2 reads 3 + 9 = 12 extensions and finds nothing
    monkeypatch.setattr(k2, "_TAU_CAP", 12)
    assert tau_extract(from_expr("0"), [1, 2], 1, 0, fuel=2) is None
    monkeypatch.setattr(k2, "_TAU_CAP", 11)
    with pytest.raises(CapExceeded, match=r"^tau_extract phase 2 alpha calls at fuel 2: "
                                          r"12 items exceeds cap 11$"):
        tau_extract(from_expr("0"), [1, 2], 1, 0, fuel=2)


def test_phase_two_answers_found_under_the_cap(monkeypatch):
    def fn(x):  # answers 4 once the prefix [j, 1, 2] is extended twice
        return 5 if len(decode_seq(x)) >= 5 else 0

    # at fuel 8: 9 one-value extensions, then the first two-value one
    monkeypatch.setattr(k2, "_TAU_CAP", 10)
    assert tau_extract(elem(fn), [1, 2], 1, 0, fuel=8) == 4
    monkeypatch.setattr(k2, "_TAU_CAP", 9)
    with pytest.raises(CapExceeded, match="48427560 items exceeds cap 9"):
        tau_extract(elem(fn), [1, 2], 1, 0, fuel=8)


def test_s_basis_dialogues_run_unfuelled_and_bypass_k2_apply(monkeypatch):
    calls = []
    dialogue = k2._dialogue

    def counted(*args):
        calls.append(args)
        return dialogue(*args)

    def forbidden(*args):
        raise AssertionError("the s basis called k2_apply")

    monkeypatch.setattr(k2, "_dialogue", counted)
    monkeypatch.setattr(k2, "k2_apply", forbidden)
    _, s = k2_basis()
    # s at [[[0]]]: levels 1-3 get empty prefixes, so the level-3 dialogue
    # starts and the first read of a aborts to "read more"
    assert s(encode_seq([encode_seq([encode_seq([0])])])) == 0
    assert calls and all(len(args) == 3 for args in calls)


def test_prefix_length_validated():
    with pytest.raises(StructureError):
        tau_extract(from_expr("1"), [1, 2], 3, 0, fuel=1)


# -- generator expressions ------------------------------------------------------------------

def test_arithmetic_and_comparisons():
    assert from_expr("3 - 5")(0) == 0  # truncated
    assert from_expr("2 * n + 1")(3) == 7
    assert from_expr("eq(n, 4)")(4) == 1
    assert from_expr("lt(n, 4)")(4) == 0
    assert from_expr("le(n, 4)")(4) == 1


def test_bounded_search():
    root = from_expr("mu(v, 10, eq(v*v, n))")
    assert [root(n) for n in (0, 1, 4, 9, 5)] == [0, 1, 2, 3, 10]


def test_mu_binds_its_variable():
    nested = from_expr("mu(v, n, lt(n, v + v))")
    assert nested(5) == 3


def test_parse_errors_name_the_problem():
    for bad in ("", "f(1)", "mu(1, 2, 3)", "1 +", "(2", "eq(1)"):
        with pytest.raises(StructureError):
            parse_generator(bad)


def test_only_ascii_digits_are_numerals():
    assert from_expr("12")(0) == 12
    for bad in ("\u00b2", "1\u0663", "\uff11"):  # superscript two, Arabic-Indic three, fullwidth one
        with pytest.raises(StructureError, match="bad character"):
            parse_generator(bad)


def test_nesting_is_bounded():
    at_limit = "(" * 100 + "n" + ")" * 100
    assert from_expr(at_limit)(3) == 3
    assert from_expr("1+" * 99 + "1")(0) == 100
    for deep in ("(" * 2000 + "n" + ")" * 2000, "eq(" * 101 + "n" + ",1)" * 101,
                 "n+" * 2000 + "1", "(" * 101 + "n" + ")" * 101):
        with pytest.raises(StructureError, match="nests deeper than 100"):
            parse_generator(deep)


def test_unbound_variable_rejected_at_evaluation():
    e = from_expr("q + 1")
    with pytest.raises(StructureError):
        e(0)


def test_expression_elements_are_tagged_recursive():
    assert from_expr("n").recursive
    assert not elem(lambda n: n).recursive


def test_generators_must_produce_naturals():
    bad = K2Element(lambda n: -1, name="bad")
    with pytest.raises(StructureError):
        bad(0)
