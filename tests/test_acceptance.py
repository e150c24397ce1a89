"""End-to-end acceptance suite: one test per criterion, one line per verdict.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
summary lines).  Everything here is exhaustive at the stated scale or
randomized with a fixed seed; no tolerance knobs exist because every check
is exact (orders, set memberships, boolean agreements).
"""

import random
from itertools import product

import pytest

from realcheck.aks import (aks_imp, build_aks, cc_element, check_aks,
                           check_kr, closed_stack_sets, tv_least_of_aks)
from realcheck.bco import (PseudoDAlgebra, applicative_verdict,
                           check_applicative_morphism, check_density,
                           check_implicative, check_pseudo_d_algebra,
                           check_star, downset_opca, join_sup, sup_from_implication)
from realcheck.formats import load_aks
from realcheck.k2 import (K2Element, apply_many, decode_seq, k2_apply,
                          k2_basis, tau_extract)
from realcheck.lattices import L2, L3, M3, N5, VEE, enumerate_lattices
from realcheck.opca import derive_sequence_kit, seq_term, skk_element
from realcheck.terms import Const, K, S, Var, app, lam, numeral, reduce_term
from realcheck.tripos import (Predicate, arrow_U, boolean_leq,
                              localic_criterion, streicher_leq)
from realcheck.tripos import _d_predicate_leq

from conftest import FIXTURES, FUEL, read_numeral
from test_bco import heyting_kit, implication_of


def _admissible_downsets(opca):
    return [U for U in opca.downsets() if not U & opca.filter]


@pytest.fixture(scope="module")
def lattice_cases():
    """Every lattice isomorphism type up to 5 elements, with every
    admissible U, built into a Krivine structure."""
    cases = []
    for base in enumerate_lattices(5):
        for U in _admissible_downsets(base):
            opca = base.replace(U=U)
            cases.append((opca, build_aks(opca, max_len=3, U=U)))
    return cases


@pytest.fixture(scope="module")
def raw_aks_files():
    return [load_aks(FIXTURES / f"{name}.json")
            for name in ("aks_point_empty", "aks_point_full",
                         "aks_mid0", "aks_mid1")]


def done(n, text):
    print(f"ACCEPTANCE {n:>2}: PASS - {text}")


def test_c01_pole_axiom_soundness(lattice_cases):
    checked = 0
    for opca, built in lattice_cases:
        rep = check_aks(built.aks)
        assert rep.passed, (opca.name, sorted(map(str, opca.U)), rep.render_text())
        checked += 1
    assert checked >= 30  # 10 isomorphism types with several U each
    done(1, f"S1-S5 hold on all {checked} built structures "
            "(lattices <= 5 elements, every admissible U)")


def test_c02_kr_iff_least_truth_value(lattice_cases, raw_aks_files):
    subjects = [built.aks for _, built in lattice_cases] + raw_aks_files
    assert len(raw_aks_files) >= 3
    for aks in subjects:
        kr = check_kr(aks)
        least = tv_least_of_aks(aks)
        assert (kr is None) == (least is None), aks.name
    done(2, f"(Kr) and least-truth-value verdicts agree on {len(subjects)} "
            "structures (boolean agreement, zero tolerance)")


def test_c03_localic_triangulation(lattice_cases):
    example1 = 0
    for opca, built in lattice_cases:
        crit = localic_criterion(opca)
        kr = check_kr(built.aks)
        least = tv_least_of_aks(built.aks)
        assert (crit is None) == (kr is None) == (least is None), opca.name
        complement = frozenset(opca.elements) - opca.filter
        if opca.U == complement and opca.is_downward_closed(complement):
            assert crit is not None
            skk = skk_element(opca)
            triggers = [a for a in opca.elements
                        if any(opca.app(b, a) is not None and opca.app(b, a) in opca.U
                               for b in opca.filter)]
            assert all(opca.app(skk, a) is not None and opca.app(skk, a) in opca.U
                       for a in triggers)
            example1 += 1
    assert example1 >= 9  # U = carrier minus filter occurs once per lattice type
    done(3, f"criterion/least-value/(Kr) verdicts identical on all built "
            f"fixtures; U = complement-of-filter yields a witness ({example1} "
            "cases) and the identity realizer is valid")


SMALL_FIXTURES = [lat for lat in enumerate_lattices(3)] + [
    VEE, L3.replace(filter=frozenset({"m", "1"}), name="L3mf")]


def test_c04_applicative_equals_meet_preserving():
    maps = 0
    for src in SMALL_FIXTURES:
        for dst in SMALL_FIXTURES:
            for values in product(dst.elements, repeat=len(src.elements)):
                fmap = dict(zip(src.elements, values))
                rep = check_applicative_morphism(fmap, src, dst)
                assert rep.record("crosscheck.appl_equals_fpp").passed, \
                    (src.name, dst.name, fmap)
                maps += 1
    done(4, f"applicative verdict equals meet-preserving-morphism verdict "
            f"for all {maps} total maps between <=3-element fixtures")


def test_c05_uniform_bound_iff_sup_applicative():
    fixtures = [L2, L3, enumerate_lattices(4)[-1], M3, N5]
    outcomes = set()
    for opca in fixtures:
        alg = PseudoDAlgebra(opca, join_sup(opca), name=f"join({opca.name})")
        assert check_pseudo_d_algebra(alg).passed, opca.name
        star = check_star(alg)
        DA = downset_opca(opca)
        fmap = {d: alg.value(d) for d in DA.elements}
        rep = check_applicative_morphism(fmap, DA, opca)
        ok = applicative_verdict(rep)
        assert ok == (star is not None), opca.name
        outcomes.add(ok)
    assert outcomes == {True, False}  # the locale cases and the mutants
    done(5, f"uniform-bound witness exists iff sup is applicative, on "
            f"{len(fixtures)} algebras including non-distributive mutants")


def test_c06_implicative_round_trips():
    from realcheck.lattices import DIAMOND
    derived = sup_from_implication(heyting_kit(DIAMOND))  # verifies facts (a),
    # (b) and (d), the four sup clauses (the first with u = K is fact (c)) and
    # the uniform bound with the constructed witnesses, and raises naming the
    # clause otherwise
    assert derived.algebra.sup == join_sup(DIAMOND)
    assert all(el in DIAMOND.filter for el in derived.combinators.values())
    assert set(derived.combinators) == {"eta", "xi", "H", "K", "P", "Q", "R"}
    alg = PseudoDAlgebra(DIAMOND, join_sup(DIAMOND), name="join(diamond)")
    kit = implication_of(alg)
    assert check_implicative(kit, mode="pre-implicative").passed
    done(6, "sup-from-implication passes all clauses with the derived "
            "combinators in the filter; implication-from-sup is pre-implicative")


def test_c07_density_witness_families_coexist():
    fixtures = [lat for lat in enumerate_lattices(4)] + [VEE]
    applicative = 0
    for src in fixtures:
        for dst in fixtures:
            for values in product(dst.elements, repeat=len(src.elements)):
                fmap = dict(zip(src.elements, values))
                rep = check_applicative_morphism(fmap, src, dst, crosscheck=False)
                if not applicative_verdict(rep):
                    continue
                applicative += 1
                dens = check_density(fmap, src, dst)
                assert dens.agree, (src.name, dst.name, fmap, dens)
    done(7, f"cd-sk witnesses exist iff simplified (h, t) witnesses exist, "
            f"for all {applicative} applicative morphisms between "
            "<=4-element fixtures")


def test_c08_booleanization_and_streicher_correspondence():
    cases = [(L2, frozenset({"0"}))] + [(L3, U) for U in _admissible_downsets(L3)]
    pairs = 0
    for base, U in cases:
        opca = base.replace(U=U)
        aks = build_aks(opca, max_len=3, U=U).aks
        downs = opca.downsets()
        index = ("i0", "i1")
        dpreds = [Predicate(index, dict(zip(index, vals)))
                  for vals in product(downs, repeat=2)]
        for phi in dpreds:
            notnot = phi.map_values(lambda a: arrow_U(arrow_U(a, opca), opca))
            # boolean_leq itself asserts that forms (2) and (3) agree
            assert boolean_leq(phi, notnot, opca).holds
            assert boolean_leq(notnot, phi, opca).holds
        spreds = [Predicate(index, dict(zip(index, vals)))
                  for vals in product(closed_stack_sets(aks), repeat=2)]
        for phi in spreds:
            for psi in spreds:
                st = streicher_leq(phi, psi, aks)
                lhs = phi.map_values(lambda a: arrow_U(a, opca))
                rhs = psi.map_values(lambda a: arrow_U(a, opca))
                assert (st is None) == (_d_predicate_leq(lhs, rhs, opca) is None), \
                    (base.name, sorted(map(str, U)))
                pairs += 1
    done(8, f"both Boolean forms agree, double negation is stable, and the "
            f"stack-set order matches the negated downset order on {pairs} "
            "predicate pairs (|I| = 2)")


def test_c09_pierce_law(lattice_cases):
    checked = 0
    for opca, built in lattice_cases:
        aks = built.aks
        ccset = cc_element(aks)
        sets = closed_stack_sets(aks)
        for alpha in sets:
            for beta in sets:
                pierce = aks_imp(aks, aks_imp(aks, aks_imp(aks, alpha, beta),
                                              alpha), alpha)
                assert pierce <= ccset, (opca.name, sorted(map(str, alpha)))
                checked += 1
    assert checked > 0
    done(9, f"the continuation constant realizes the classical law on all "
            f"{checked} closed-stack-set pairs of the built fixtures")


def test_c10_sequence_lemma():
    for opca in (L2, L3, VEE) + tuple(enumerate_lattices(4)[-2:]):
        derive_sequence_kit(opca, max_len=3)  # exhaustive clauses (i)-(iv)

    rng = random.Random(20260810)
    kit = derive_sequence_kit(L3, max_len=3)
    failures = 0
    for _ in range(200):
        length = rng.randint(1, 3)
        consts = [Const(f"c{i}") for i in range(length)]
        lterm = seq_term(consts)
        n = rng.randrange(length)
        if reduce_term(app(kit.b, numeral(n), lterm), FUEL) != consts[n]:
            failures += 1
        suffix = app(kit.c, numeral(n), lterm)
        j = rng.randrange(length - n)
        if reduce_term(app(kit.b, numeral(j), suffix), FUEL) != consts[n + j]:
            failures += 1
        if read_numeral(app(kit.p0, suffix)) != length - n:
            failures += 1
        extended = app(kit.d, Const("z"), lterm)
        if reduce_term(app(kit.b, numeral(0), extended), FUEL) != Const("z"):
            failures += 1
        single = app(kit.t, Const("z"))
        if reduce_term(app(kit.b, numeral(0), single), FUEL) != Const("z"):
            failures += 1
        if read_numeral(app(kit.p0, single)) != 1:
            failures += 1
    assert failures == 0
    done(10, "list clauses hold exhaustively on finite fixtures (length <= 3) "
             "and on 200 fuel-bounded term-model spot checks with zero failures")


def test_c11_dialogue_model():
    k, s = k2_basis()
    rng = random.Random(11)

    # 100 probes at fuel 1e5: 50 through k (argument discarding), 50 through
    # s against strictly positive first components, which keep every
    # simulated dialogue convergent; agreement is then required, not vacuous.
    for probe in range(50):
        table = [rng.randint(0, 9) for _ in range(64)]
        alpha = K2Element(lambda x, t=tuple(table): t[x % 64], name=f"a{probe}")
        beta = K2Element(lambda x: (x + probe) % 5, name=f"b{probe}")
        n = rng.randrange(20)
        assert apply_many(FUEL, k, alpha, beta)(n) == alpha(n)
    for probe in range(50):
        # first components valued >= 2: the simulated inner applications
        # then answer positively at their first round, keeping the prefix
        # positions revealed through s within the fuel budget
        apos = [rng.randint(2, 5) for _ in range(64)]
        alpha = K2Element(lambda x, t=tuple(apos): t[x % 64], name=f"ap{probe}")
        beta = K2Element(lambda x: (x % 3) + 1, name=f"bp{probe}")
        gamma = K2Element(lambda x: (x * 2 + probe) % 4, name=f"gp{probe}")
        n = rng.randrange(7)
        lhs = apply_many(FUEL, s, alpha, beta, gamma)
        rhs = apply_many(FUEL, apply_many(FUEL, alpha, gamma),
                         apply_many(FUEL, beta, gamma))
        assert lhs(n) == rhs(n), (probe, n)

    # fuel monotonicity on 1000 probes
    for _ in range(1000):
        vals = [rng.randint(0, 2) for _ in range(32)]
        alpha = K2Element(lambda x, t=tuple(vals): t[x % 32])
        beta = K2Element(lambda x: x % 3)
        n = rng.randrange(6)
        lo = rng.randrange(12)
        hi = lo + rng.randrange(12)
        early = k2_apply(alpha, beta, n, lo)
        if early is not None:
            assert k2_apply(alpha, beta, n, hi) == early

    # three extraction scenarios, j < 10, against the direct dialogue
    def scenario(tau_fn, pi_fn, nprime):
        tau = K2Element(tau_fn, name="tau")
        pi = K2Element(pi_fn, name="pi")
        prefix = [pi(i) for i in range(nprime + 1)]

        def fn(x):
            seq = decode_seq(x)
            seen = list(seq[1:])
            if len(seen) >= len(prefix) and seen[:len(prefix)] == prefix:
                return tau(seq[0]) + 1
            return 0

        return K2Element(fn, name="alpha"), tau, pi, prefix

    scenarios = [scenario(lambda j: (3 * j + 1) % 7, lambda i: (2 * i + 1) % 5, 4),
                 scenario(lambda j: j % 4, lambda i: i % 3, 2),
                 scenario(lambda j: (j * j + 2) % 6, lambda i: (i + 2) % 4, 3)]
    for alpha, tau, pi, prefix in scenarios:
        for j in range(10):
            direct = k2_apply(alpha, pi, j, fuel=64)
            extracted = tau_extract(alpha, prefix, len(prefix) - 1, j, fuel=6)
            assert extracted == direct == tau(j)
    done(11, "basis laws pass the 100-probe suite at fuel 1e5; application is "
             "fuel-monotone on 1000 probes; extraction matches the direct "
             "dialogue on 3 scenarios for j < 10")


def _bodies(consts):
    leaves = [Var("x"), Var("y"), K, S] + [Const(c) for c in consts]
    size1 = list(leaves)
    size2 = [app(a, b) for a in leaves for b in leaves]
    size3 = [app(a, b, c) for a in leaves for b in leaves for c in leaves]
    size3 += [app(a, app(b, c)) for a in leaves for b in leaves for c in leaves]
    return size1 + size2 + size3


def test_c12_abstraction_contract(lattice_cases):
    fixtures = {opca.name: opca for opca, _ in lattice_cases}
    subjects = [f for f in fixtures.values() if len(f.elements) <= 3][:4]
    subjects += [f for f in fixtures.values() if len(f.elements) == 5][:1]
    checked = 0
    for opca in subjects:
        consts = opca.elements[:2]
        for body in _bodies(consts):
            # the abstraction is closed: evaluate it once, then apply by table
            fn = opca.eval(lam("x y", body))
            for a in opca.elements:
                for b in opca.elements:
                    direct = opca.eval(body, env={"x": a, "y": b})
                    if direct is None:
                        continue
                    assert fn is not None, (opca.name, body)
                    fa = opca.app(fn, a)
                    applied = None if fa is None else opca.app(fa, b)
                    assert applied is not None, (opca.name, body, a, b)
                    assert opca.leq(applied, direct), (opca.name, body, a, b)
                    checked += 1
    assert checked > 10000
    done(12, f"whenever the substituted body evaluates, the applied "
             f"abstraction evaluates below it ({checked} instances across "
             "the fixture opcas)")
