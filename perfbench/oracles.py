"""Known answers that do not trust the code under test.

Everything here reads only the raw tables of a structure (carrier, order
pairs, application table, filter, pole, push/dot/kOf) and recomputes the
answer from the definitions in the README and the paper.  No function of
realcheck is called, so a bug in a checker cannot hide itself here.
"""

from __future__ import annotations

import json
import math
from itertools import combinations

# ---------------------------------------------------------------------------
# Lattice opcas and Krivine structures
# ---------------------------------------------------------------------------


def top_element(elements, leq_pairs):
    """The element above every element, or None."""
    return next((t for t in elements
                 if all((x, t) in leq_pairs for x in elements)), None)


def pole_rule_failures(aks):
    """Names of the failing structure clauses and pole rules (S1)-(S5)."""
    terms, stacks, pole = aks.terms, aks.stacks, aks.pole
    dot, push, kof = aks.dot, aks.push, aks.kof
    failing = []
    if not {aks.K, aks.S, aks.cc} <= aks.qp:
        failing.append("qp_has_basis")
    if any(dot[(t, s)] not in aks.qp for t in aks.qp for s in aks.qp):
        failing.append("qp_dot_closed")
    # (S1) t ⊥ s.pi  =>  ts ⊥ pi
    if any((t, push[(s, pi)]) in pole and (dot[(t, s)], pi) not in pole
           for t in terms for s in terms for pi in stacks):
        failing.append("s1")
    # (S2) t ⊥ pi  =>  K ⊥ t.s.pi
    if any((t, pi) in pole and (aks.K, push[(t, push[(s, pi)])]) not in pole
           for t in terms for s in terms for pi in stacks):
        failing.append("s2")
    # (S3) (tu)(su) ⊥ pi  =>  S ⊥ t.s.u.pi
    if any((dot[(dot[(t, u)], dot[(s, u)])], pi) in pole
           and (aks.S, push[(t, push[(s, push[(u, pi)])])]) not in pole
           for t in terms for s in terms for u in terms for pi in stacks):
        failing.append("s3")
    # (S4) t ⊥ k_pi.pi  =>  cc ⊥ t.pi
    if any((t, push[(kof[pi], pi)]) in pole and (aks.cc, push[(t, pi)]) not in pole
           for t in terms for pi in stacks):
        failing.append("s4")
    # (S5) t ⊥ pi  =>  k_pi ⊥ t.pi' for every pi'
    if any((t, pi) in pole and (kof[pi], push[(t, pi2)]) not in pole
           for t in terms for pi in stacks for pi2 in stacks):
        failing.append("s5")
    return failing


class Orthogonality:
    """Orthogonals, biorthogonal closure and implication read off the pole."""

    def __init__(self, aks):
        self.aks = aks

    def terms_facing(self, stack_set):
        pole = self.aks.pole
        return frozenset(t for t in self.aks.terms
                         if all((t, pi) in pole for pi in stack_set))

    def stacks_facing(self, term_set):
        pole = self.aks.pole
        return frozenset(pi for pi in self.aks.stacks
                         if all((t, pi) in pole for t in term_set))

    def close(self, stack_set):
        return self.stacks_facing(self.terms_facing(stack_set))

    def closed_sets(self):
        stacks = self.aks.stacks
        return {self.close(frozenset(sub))
                for size in range(len(stacks) + 1)
                for sub in combinations(stacks, size)}

    def imp(self, alpha, beta):
        push = self.aks.push
        return self.close(frozenset(push[(t, pi)]
                                    for t in self.terms_facing(alpha) for pi in beta))

    def pierce(self, alpha, beta):
        """((alpha => beta) => alpha) => alpha."""
        return self.imp(self.imp(self.imp(alpha, beta), alpha), alpha)


# ---------------------------------------------------------------------------
# Applicative morphisms and density between finite opcas
# ---------------------------------------------------------------------------

def _app(opca, a, b):
    return opca.table.get((a, b))


def applicative(fmap, src, dst):
    """The three applicative clauses, straight from the definition."""
    dleq = dst.leq_pairs

    def app2(c, x, y):
        cx = _app(dst, c, x)
        return None if cx is None else _app(dst, cx, y)

    filter_up = all(any((b, fmap[a]) in dleq for b in dst.filter) for a in src.filter)
    defined = [(a1, a, v) for (a1, a), v in src.table.items()]
    app_tracking = any(
        all(app2(c, fmap[a1], fmap[a]) is not None
            and (app2(c, fmap[a1], fmap[a]), fmap[v]) in dleq
            for a1, a, v in defined)
        for c in dst.filter)
    order_tracking = any(
        all(_app(dst, c, fmap[x]) is not None and (_app(dst, c, fmap[x]), fmap[y]) in dleq
            for (x, y) in src.leq_pairs)
        for c in dst.filter)
    return filter_up and app_tracking and order_tracking


def simple_density(fmap, src, dst):
    """Some t in the target filter with, per target filter element b',
    a source filter element a' such that t·f(a') is defined and below b'."""
    dleq = dst.leq_pairs
    return any(
        all(any(_app(dst, t, fmap[ap]) is not None
                and (_app(dst, t, fmap[ap]), bp) in dleq
                for ap in src.filter)
            for bp in dst.filter)
        for t in dst.filter)


# ---------------------------------------------------------------------------
# The dialogue model, from the README's bit-exact coding contract
# ---------------------------------------------------------------------------

def cantor(x, y):
    s = x + y
    return s * (s + 1) // 2 + y


def uncantor(z):
    w = (math.isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


def _fold(values):
    if len(values) == 1:
        return values[0]
    mid = (len(values) + 1) // 2
    return cantor(_fold(values[:mid]), _fold(values[mid:]))


def _unfold(code, count):
    if count == 1:
        return [code]
    left = (count + 1) // 2
    a, b = uncantor(code)
    return _unfold(a, left) + _unfold(b, count - left)


def code(values):
    """The sequence code: 0 for empty, else pair(l, balanced fold) + 1."""
    values = list(values)
    return cantor(len(values) - 1, _fold(values)) + 1 if values else 0


def decode(z):
    if z == 0:
        return []
    rest, fold = uncantor(z - 1)
    return _unfold(fold, rest + 1)


def dialogue(alpha, beta, n, fuel):
    """alpha·beta at n reading at most ``fuel`` values of beta, or None."""
    values = [n]
    for length in range(fuel + 1):
        v = alpha(code(values))
        if v > 0:
            return v - 1
        if length < fuel:
            values.append(beta(length))
    return None


def positive_s_law(alpha, n):
    """(a·c)·(b·c) at n when alpha's values are all at least 2.

    Then a·c answers alpha(code([j])) - 1 >= 1 at its first round, so the
    outer dialogue also stops at its first round, whatever b and c are.
    """
    return alpha(code([code([n])])) - 2


# ---------------------------------------------------------------------------
# The CLI's documented behaviour (README), on the machine stream
# ---------------------------------------------------------------------------

def cli_documented_failures(argv, exit_code, stdout):
    """Violations of the README's statements about specific invocations."""
    records = {}
    for line in stdout.splitlines():
        rec = json.loads(line)
        records[rec["check"]] = rec
    wanted = {}
    if argv[0] == "check-tripos" and argv[1].endswith("m3.json"):
        wanted = {"tripos.star": "fail", "tripos.sup_applicative": "fail",
                  "tripos.star_equals_applicative": "pass"}
    elif argv[0] == "check-aks" and argv[1].endswith("aks_broken.json"):
        wanted = {"aks.s2_K": "fail", "aks.s3_S": "fail", "aks.s5_kof": "fail"}
    elif argv[0] == "check-bco":
        return [] if exit_code == 2 and not stdout else [f"check-bco exit {exit_code}"]
    out = []
    for check, verdict in wanted.items():
        rec = records.get(check)
        if rec is None or rec["verdict"] != verdict:
            out.append(f"{check} should be {verdict}")
        elif verdict == "fail" and not rec["counterexample"]:
            out.append(f"{check} fails without a counterexample")
    return out
