import json
from itertools import permutations
from pathlib import Path

import pytest

from realcheck import lattices as latticesmod
from realcheck.aks import build_aks, check_aks, check_kr, tv_least_of_aks
from realcheck.errors import CapExceeded
from realcheck.lattices import LATTICE_SIZE_CAP, enumerate_lattices, semilattice_opca
from realcheck.poset import Poset
from realcheck.tripos import localic_criterion

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "digests.json"


# -- the reference: every mask of strict pairs, every permutation -----------

def _is_transitive(n, strict):
    for a in range(n):
        for b in range(n):
            if strict[a][b]:
                for c in range(n):
                    if strict[b][c] and not strict[a][c]:
                        return False
    return True


def _canonical(n, leq):
    best = None
    for perm in permutations(range(n)):
        key = tuple(leq[perm[i]][perm[j]] for i in range(n) for j in range(n))
        if best is None or key < best:
            best = key
    return best


def reference_lattices(max_n):
    """Every partial order with the integer order a linear extension, kept
    when it has all binary meets and a top, deduplicated up to isomorphism
    over all n! relabellings."""
    out = []
    for n in range(1, max_n + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        seen = set()
        for mask in range(1 << len(pairs)):
            strict = [[False] * n for _ in range(n)]
            for bit, (i, j) in enumerate(pairs):
                if mask >> bit & 1:
                    strict[i][j] = True
            if not _is_transitive(n, strict):
                continue
            leq = [[i == j or strict[i][j] for j in range(n)] for i in range(n)]
            poset = Poset(tuple(range(n)),
                          frozenset((i, j) for i in range(n) for j in range(n) if leq[i][j]))
            if poset.greatest(poset.elements) is None:
                continue
            if any(poset.meet(a, b) is None for a in range(n) for b in range(a + 1, n)):
                continue
            key = _canonical(n, leq)
            if key in seen:
                continue
            seen.add(key)
            names = tuple(f"e{i}" for i in range(n))
            covers = {(names[i], names[j]) for i in range(n) for j in range(n)
                      if i != j and leq[i][j]}
            out.append(semilattice_opca(names, covers,
                                        name=f"lattice{n}_{len(seen) - 1}"))
    return out


def reference_inner_key(up):
    """Reference for ``lattices._canonical``: the least up-rows of the inner
    elements over their relabellings, each row re-encoded bit by bit for
    every permutation."""
    return min(tuple(sum(1 << k for k, q in enumerate(perm) if up[p] >> q & 1) for p in perm)
               for perm in permutations(range(1, len(up) - 1)))


@pytest.mark.parametrize("n", range(1, LATTICE_SIZE_CAP + 1))
def test_canonical_keys_match_the_row_by_row_reference(n):
    canonical = latticesmod._canonical(n)
    orders = list(latticesmod._lattice_orders(n))
    assert orders
    assert [canonical(up) for up in orders] == [reference_inner_key(up) for up in orders]


def fields(opca):
    return (opca.name, opca.elements, opca.leq_pairs, opca.table, opca.k, opca.s, opca.filter)


@pytest.mark.parametrize("max_n", range(7))
def test_enumeration_matches_the_reference(max_n):
    assert list(map(fields, enumerate_lattices(max_n))) == \
        list(map(fields, reference_lattices(max_n)))


def test_lattice_type_counts_up_to_seven_elements():
    sizes = [len(opca.elements) for opca in enumerate_lattices(7)]
    assert [sizes.count(n) for n in range(1, 8)] == [1, 1, 1, 2, 5, 15, 53]  # OEIS A006966


def test_eight_elements_are_refused_and_named():
    assert LATTICE_SIZE_CAP == 7
    with pytest.raises(CapExceeded, match="max_n: 8 items exceeds cap 7") as exc:
        enumerate_lattices(8)
    assert exc.value.count == 8


def admissible_cases(max_n, size=None):
    return [base.replace(U=U) for base in enumerate_lattices(max_n)
            if size in (None, len(base.elements))
            for U in base.downsets() if not U & base.filter]


def test_sweep_item_ids_match_the_golden_digest_keys():
    # the krivine_sweep workload names its items this way, and the digests
    # file keeps them sorted; an enumeration that renames a lattice type
    # fails here before it fails the benchmark's digests
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))["krivine_sweep"]
    ids = [f"{opca.name}/U={','.join(sorted(opca.U))}" for opca in admissible_cases(5)]
    assert sorted(ids) == list(golden) and len(set(ids)) == 48


def test_krivine_equivalences_on_every_six_element_lattice():
    cases = admissible_cases(6, size=6)
    assert len(cases) == 143
    for opca in cases:
        aks = build_aks(opca, max_len=3, U=opca.U).aks
        assert check_aks(aks).passed, (opca.name, sorted(opca.U))
        assert check_kr(aks) == localic_criterion(opca), (opca.name, sorted(opca.U))
        assert tv_least_of_aks(aks) is not None, (opca.name, sorted(opca.U))
