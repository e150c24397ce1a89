"""Each derived value has one producer in ``src/``; the routes it replaced
are kept here as references and compared with it.

* the least truth value of an order-ca, once read on its BCO view with the
  top handed in, now ``tv_least`` on the filtered opca itself;
* the truth values, once topped by ``internal_meets``, now by ``find_top``;
* the (k, s) search of ``check_opca_axioms``, once a nested generator, now
  ``first_ks``, which ``order_ca`` shares;
* derivation fact (c), once its own loop, now the sup-algebra clause
  ``sup.monotone_u`` with u = K.

The inputs are the 48 lattice/U cases of ``enumerate_lattices(5)`` (every
lattice of at most 5 elements with every downset U avoiding its filter) and
the opca fixtures.
"""

import random

import pytest

from realcheck.aks import build_aks, order_ca, tv_least_of_aks
from realcheck.bco import (PseudoDAlgebra, check_pseudo_d_algebra, find_top, internal_meets,
                           join_sup, opca_to_bco, truth_values, tv_least)
from realcheck.errors import StructureError
from realcheck.formats import load_opca
from realcheck.lattices import enumerate_lattices
from realcheck.opca import check_opca_axioms, first_ks, k_law, s_law

from conftest import FIXTURES

CASES = [base.replace(U=U) for base in enumerate_lattices(5)
         for U in base.downsets() if not U & base.filter]
FIXTURE_OPCAS = [load_opca(FIXTURES / f"{name}.json")[0]
                 for name in ("diamond", "l2", "l3", "m3", "vee")]


# -- the replaced routes -----------------------------------------------------------

def reachable_from(bco, top):
    return frozenset(a for a in bco.elements if bco.track([(top, a)]) is not None)


def view_tv_least(opca):
    """``tv_least_of_aks``'s old tail: the BCO view, its ``find_top`` top
    handed to the least truth value read on the view."""
    view = opca_to_bco(opca)
    return view.least(reachable_from(view, find_top(view)[0]))


def meets_truth_values(bco):
    """``truth_values`` without a given top: the top of the internal meets."""
    return reachable_from(bco, internal_meets(bco).top)


def nested_ks(opca, els):
    """``check_opca_axioms``' old (k, s) search."""
    return next(({"k": k, "s": s} for k in els for s in els
                 if k_law(opca, k) is None and s_law(opca, s) is None), None)


def fact_c(host, sup, K):
    """The old fact (c) loop: the first (alpha, alpha') with alpha <= alpha'
    and K·sup(alpha) undefined or not below sup(alpha'), else None."""
    downs = host.downsets()
    for alpha in downs:
        for alpha2 in downs:
            if not alpha <= alpha2:
                continue
            got = host.app(K, sup[alpha])
            if got is None or not host.leq(got, sup[alpha2]):
                return sorted(map(str, alpha)), sorted(map(str, alpha2))
    return None


# -- comparisons -------------------------------------------------------------------

def built():
    """The Krivine structure of every case and of every fixture with a U."""
    return [build_aks(opca, max_len=3).aks
            for opca in CASES + [f for f in FIXTURE_OPCAS if f.U is not None]]


def test_the_cases_are_the_benchmark_sweep():
    assert len(CASES) == 48 and len(FIXTURE_OPCAS) == 5 and len(built()) == 52


def test_truth_values_match_the_view_and_meet_routes():
    for aks in built():
        oca = order_ca(aks).opca
        assert tv_least_of_aks(aks) == tv_least(oca) == view_tv_least(oca), aks.name
        assert truth_values(oca) == meets_truth_values(opca_to_bco(oca)), aks.name
    for opca in CASES + FIXTURE_OPCAS:
        assert tv_least(opca) == view_tv_least(opca), opca.name
        assert truth_values(opca) == meets_truth_values(opca_to_bco(opca)), opca.name


def mutated_tables(opca, rng, count):
    """``opca`` with one table entry dropped or changed, ``count`` times."""
    keys = sorted(opca.table, key=repr)
    for _ in range(count):
        table = dict(opca.table)
        key = rng.choice(keys)
        if rng.random() < 0.5:
            del table[key]
        else:
            table[key] = rng.choice(opca.elements)
        yield opca.replace(table=table)


def test_first_ks_matches_the_nested_search():
    rng = random.Random(20)
    subjects = [order_ca(aks).opca for aks in built()] + CASES + FIXTURE_OPCAS
    subjects += [m for opca in CASES[::4] for m in mutated_tables(opca, rng, 6)]
    outcomes = set()
    for opca in subjects:
        want = nested_ks(opca, opca.elements)
        assert first_ks(opca, opca.elements) == want, opca.name
        record = check_opca_axioms(opca, search_ks=True).record("ks.search")
        assert record.witnesses == (want or {}), opca.name
        outcomes.add(want is None)
    assert outcomes == {True, False}  # both the pass and the fail path were seen


def sup_tables(host, rng):
    """The join sup (the last element where a join is missing), that sup one
    step lower on the odd-sized downsets, and a random sup."""
    try:
        join = join_sup(host)
    except StructureError:
        join = {alpha: host.elements[-1] for alpha in host.downsets()}
    below = {x: next((y for y in host.elements if host.leq(y, x) and y != x), x)
             for x in host.elements}
    shifted = {alpha: below[v] if len(alpha) % 2 else v for alpha, v in join.items()}
    scrambled = {alpha: rng.choice(host.elements) for alpha in join}
    return join, shifted, scrambled


@pytest.mark.parametrize("subjects", ["cases", "fixtures"])
def test_monotone_u_with_k_is_fact_c(subjects):
    rng = random.Random(3)
    hosts = CASES if subjects == "cases" else [f for f in FIXTURE_OPCAS if f.filter]
    outcomes = set()
    for host in hosts:
        for sup in sup_tables(host, rng):
            alg = PseudoDAlgebra(host, sup)
            for K in host.elements:  # a u outside the filter fails by itself
                want = K in host.filter and fact_c(host, sup, K) is None
                rec = check_pseudo_d_algebra(alg, witnesses={"u": K}).record("sup.monotone_u")
                assert rec.passed == want, (host.name, K)
                outcomes.add(want)
    assert outcomes == {True, False}
