"""The four workloads: seeded inputs, timed calls into realcheck, verdict checks.

A workload's ``setup(seed, ctx)`` (see ``WORKLOADS``) builds its inputs and
returns groups of items; the harness shuffles the groups and runs each
group's items in order.
An item's ``run(ctx)`` is the timed call into the code under test.  Its
``check(result)`` returns the violations found by the known-answer oracles
in ``oracles.py``, and ``digest(result)``, when present, is compared against
the per-item witness digests in ``golden/digests.json``.

Why these four: each loads a different layer, so a later optimisation shows
on the workload whose layer it touches and leaves the others flat.
* krivine_sweep: closed-term building and evaluation (terms, opca).
* morphism_scan: bco internal-meet search; bimodal per-map latency.
* k2_dialogue: the dialogue model only.
* cli_cold: one fresh CLI process per call; import, loaders, reports.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import product
from typing import Callable

import oracles
from realcheck.aks import (aks_imp, build_aks, cc_element, check_aks, check_kr,
                           closed_stack_sets, tv_least_of_aks)
from realcheck.bco import applicative_verdict, check_applicative_morphism, check_density
from realcheck.k2 import K2Element, apply_many, k2_apply, k2_basis, tau_extract
from realcheck.lattices import L3, VEE, enumerate_lattices
from realcheck.tripos import localic_criterion

FUEL = 10 ** 5
HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")


@dataclass
class Item:
    id: str
    run: Callable            # (ctx) -> result; the timed call
    check: Callable          # (result) -> list of violations
    digest: Callable | None = None   # (result) -> value whose digest is golden


# ---------------------------------------------------------------------------
# krivine_sweep
# ---------------------------------------------------------------------------

def krivine_cases():
    """Every lattice type up to 5 elements with every admissible U (48)."""
    return [base.replace(U=U) for base in enumerate_lattices(5)
            for U in base.downsets() if not U & base.filter]


def _krivine_item(opca):
    def run(ctx):
        aks = build_aks(opca, max_len=3, U=opca.U).aks
        sets = closed_stack_sets(aks)
        return {"aks": aks, "report": check_aks(aks), "kr": check_kr(aks),
                "least": tv_least_of_aks(aks), "criterion": localic_criterion(opca),
                "cc": cc_element(aks), "sets": sets,
                "pierce": [aks_imp(aks, aks_imp(aks, aks_imp(aks, a, b), a), a)
                           for a in sets for b in sets]}

    def check(r):
        aks, bad = r["aks"], []
        if not r["report"].passed:
            bad.append("check_aks reports a failure")
        failing = oracles.pole_rule_failures(aks)
        if failing:
            bad.append(f"pole rules fail: {failing}")
        # With application = meet and filter {top}, top is a uniform witness,
        # and (Kr) and the least truth value must agree with the criterion.
        top = oracles.top_element(opca.elements, opca.leq_pairs)
        if r["criterion"] != top or r["kr"] != top:
            bad.append(f"criterion {r['criterion']!r} / (Kr) {r['kr']!r}, expected {top!r}")
        if r["least"] is None:
            bad.append("no least truth value")
        if opca.U == opca.element_set - opca.filter and r["criterion"] is None:
            bad.append("no witness for U = carrier minus filter")
        orth = oracles.Orthogonality(aks)
        if set(r["sets"]) != orth.closed_sets():
            bad.append("closed stack sets differ")
        cc = orth.stacks_facing({aks.cc})
        if r["cc"] != cc:
            bad.append("cc element differs")
        pairs = [(a, b) for a in r["sets"] for b in r["sets"]]
        if any(p != orth.pierce(a, b) or not p <= cc
               for (a, b), p in zip(pairs, r["pierce"])):
            bad.append("Pierce set differs or escapes cc")
        return bad

    def digest(r):
        aks = r["aks"]
        return [aks.stacks, aks.K, aks.S, aks.cc, aks.pole, aks.push, aks.dot, aks.kof,
                [(x.check, x.verdict, x.witnesses, x.counterexample)
                 for x in r["report"].records],
                r["kr"], r["least"], r["criterion"], r["sets"], r["pierce"]]

    return Item(f"{opca.name}/U={','.join(sorted(opca.U))}", run, check, digest)


def krivine_setup(seed, ctx):
    return [[_krivine_item(opca)] for opca in krivine_cases()]


# ---------------------------------------------------------------------------
# morphism_scan
# ---------------------------------------------------------------------------

def morphism_fixtures():
    """The <=3-element fixtures of the appl = fpp criterion (314 maps)."""
    return list(enumerate_lattices(3)) + [
        VEE, L3.replace(filter=frozenset({"m", "1"}), name="L3mf")]


def _morphism_item(src, dst, fmap):
    def run(ctx):
        rep = check_applicative_morphism(fmap, src, dst)
        ok = applicative_verdict(rep)
        return rep, ok, check_density(fmap, src, dst) if ok else None

    def check(r):
        rep, ok, dens = r
        bad = []
        if not rep.record("crosscheck.appl_equals_fpp").passed:
            bad.append("applicative and meet-preserving verdicts differ")
        if ok != oracles.applicative(fmap, src, dst):
            bad.append(f"applicative verdict {ok} is wrong")
        if dens is not None:
            if not dens.agree:
                bad.append("density families disagree")
            if (dens.simple is not None) != oracles.simple_density(fmap, src, dst):
                bad.append("simplified density verdict is wrong")
        return bad

    def digest(r):
        rep, ok, dens = r
        return [[(x.check, x.verdict, x.witnesses, x.counterexample) for x in rep.records],
                ok, None if dens is None else (dens.cd, dens.simple)]

    values = ",".join(fmap[a] for a in src.elements)
    return Item(f"{src.name}->{dst.name}/{values}", run, check, digest)


def morphism_setup(seed, ctx):
    fixtures = morphism_fixtures()
    return [[_morphism_item(src, dst, dict(zip(src.elements, values)))]
            for src in fixtures for dst in fixtures
            for values in product(dst.elements, repeat=len(src.elements))]


# ---------------------------------------------------------------------------
# k2_dialogue
# ---------------------------------------------------------------------------
#
# The seed draws generator values only.  Everything that sets an item's cost
# (the argument n, the fuel, the probe count) is fixed per item index, so
# every seed asks for the same amount of work.  Elements are built inside
# the timed call, so no memo carries over from one item or pass to the next.

def _elem(ctx, fn, name):
    return K2Element(ctx.count_queries(fn), name=name)


def _table_fn(values):
    values = tuple(values)
    return lambda x: values[x % len(values)]


def _k_probe(i, table, shift):
    n = i % 20
    alpha = _table_fn(table)

    def run(ctx):
        k, _ = k2_basis()
        return apply_many(FUEL, k, _elem(ctx, alpha, "a"),
                          _elem(ctx, lambda x: (x + shift) % 5, "b"))(n)

    def check(v):
        return [] if v == alpha(n) else [f"k·a·b at {n} is {v}, a({n}) = {alpha(n)}"]

    return Item(f"k/{i}", run, check)


def _s_probe(label, alpha, beta, gamma, n):
    """s·a·b·c and (a·c)·(b·c) at n, for a with values >= 2."""
    def run(ctx):
        _, s = k2_basis()
        a, b, c = (_elem(ctx, f, name) for f, name in ((alpha, "a"), (beta, "b"), (gamma, "c")))
        lhs = apply_many(FUEL, s, a, b, c)
        rhs = apply_many(FUEL, apply_many(FUEL, a, c), apply_many(FUEL, b, c))
        return lhs(n), rhs(n)

    def check(r):
        want = oracles.positive_s_law(alpha, n)
        return [] if r == (want, want) else [f"s-law at {n}: {r}, expected {want}"]

    return Item(label, run, check)


def _skk_item():
    n = 0

    def alpha(x):
        return (x * 7 + 1) % 2

    def run(ctx):
        k, s = k2_basis()
        return apply_many(FUEL, s, k, k, _elem(ctx, alpha, "a"))(n)

    def check(v):
        return [] if v == alpha(n) else [f"s·k·k·a at {n} is {v}, a({n}) = {alpha(n)}"]

    return Item(f"skk/{n}", run, check)


def _zero_item(fuel, beta_values, n):
    beta = _table_fn(beta_values)

    def run(ctx):
        return k2_apply(_elem(ctx, lambda x: 0, "zero"), _elem(ctx, beta, "b"), n, fuel)

    def check(v):
        return [] if v is None else [f"always-zero alpha answered {v} at fuel {fuel}"]

    return Item(f"zero/{fuel}", run, check)


def _mono_item(i, probes):
    """Ten fuel-monotonicity probes: alpha·beta at n at fuel lo, then hi >= lo."""
    def beta(x):
        return x % 3

    def run(ctx):
        out = []
        for values, n, lo, hi in probes:
            a, b = _elem(ctx, _table_fn(values), "a"), _elem(ctx, beta, "b")
            out.append((k2_apply(a, b, n, lo), k2_apply(a, b, n, hi)))
        return out

    def check(results):
        bad = []
        for (values, n, lo, hi), r in zip(probes, results):
            alpha = _table_fn(values)
            want = (oracles.dialogue(alpha, beta, n, lo), oracles.dialogue(alpha, beta, n, hi))
            if r != want:
                bad.append(f"dialogue at fuel {lo}/{hi}: {r}, expected {want}")
            if r[0] is not None and r[1] != r[0]:
                bad.append(f"not fuel-monotone: {r}")
        return bad

    return Item(f"mono/{i}", run, check)


def _tau_scenario(rng, index):
    """Hidden tau, prefix pi(0..n'), and an alpha that answers tau(j)+1 once
    it has seen the prefix and ``extra`` more values ending in ``marker``."""
    tau = [rng.randrange(7) for _ in range(10)]
    nprime = 2 + index
    prefix = [rng.randrange(5) for _ in range(nprime + 1)]
    extra, marker = index + 1, rng.randrange(7)
    need = len(prefix) + extra

    def alpha(x):
        seq = oracles.decode(x)
        seen = seq[1:]
        if len(seen) >= need and seen[:len(prefix)] == prefix and seen[need - 1] == marker:
            return tau[seq[0] % 10] + 1
        return 0

    items = []
    for j in range(10):
        def run(ctx, j=j):
            return tau_extract(_elem(ctx, alpha, "alpha"), prefix, nprime, j, fuel=6)

        def check(v, j=j):
            return [] if v == tau[j] else [f"extracted {v}, hidden tau({j}) = {tau[j]}"]

        items.append(Item(f"tau/{index}/{j}", run, check))

    def run_zero(ctx):
        return tau_extract(_elem(ctx, lambda x: 0, "zero"), prefix, nprime, 0, fuel=5)

    def check_zero(v):
        return [] if v is None else [f"always-zero alpha extracted {v}"]

    items.append(Item(f"tau/{index}/zero", run_zero, check_zero))
    return items


def k2_setup(seed, ctx):
    rng = random.Random(seed)
    items = [_k_probe(i, [rng.randrange(10) for _ in range(64)], rng.randrange(5))
             for i in range(50)]
    for i in range(50):
        apos = _table_fn([rng.randint(2, 5) for _ in range(64)])
        offset = rng.randrange(4)
        items.append(_s_probe(f"s/{i}", apos, lambda x: x % 3 + 1,
                              lambda x, o=offset: (x * 2 + o) % 4, i % 7))
    # s·k·k at n = 1 alone takes 8-10 s, over half a pass; its s-dialogue
    # path is covered by the s-law probes below, which read through s too.
    items.append(_skk_item())
    items += [_s_probe(f"slaw/{n}", lambda x: 2 + (x == 8), lambda x: 1 + (x == 4),
                       lambda x: x + 1, n) for n in range(10)]
    items += [_zero_item(fuel, [rng.randrange(3) for _ in range(32)], rng.randrange(6))
              for fuel in (1000, 1250, 1500)]
    probes = [([rng.randrange(3) for _ in range(32)], rng.randrange(6),
               i % 12, i % 12 + i // 12 % 12) for i in range(1000)]
    items += [_mono_item(i, probes[10 * i:10 * i + 10]) for i in range(100)]
    for index in range(3):
        items += _tau_scenario(rng, index)
    return [[item] for item in items]


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

OPCA_FIXTURES = ("diamond", "l2", "l3", "m3", "vee")
AKS_FIXTURES = ("aks_broken", "aks_mid0", "aks_mid1", "aks_point_empty", "aks_point_full")
WORK = "perfbench/_work"


def cli_groups():
    """Every subcommand on every fixture it applies to; a build-aks and the
    two checks of the file it writes form one group, run in that order."""
    singles = [["check-opca", f"fixtures/{f}.json"] for f in OPCA_FIXTURES]
    singles += [["check-opca", "fixtures/l3.json", "--eval-term", r"\x. x (K m)"],
                ["check-opca", "fixtures/l2.json", "--search-ks"]]
    singles += [["check-filter", f"fixtures/{f}.json"] for f in OPCA_FIXTURES]
    singles += [["check-filter", "fixtures/l3.json", "--subset", "1"],
                ["check-bco", "fixtures/l2.json"]]
    singles += [[cmd, f"fixtures/{f}.json"] for cmd in ("check-aks", "check-order-ca")
                for f in AKS_FIXTURES]
    singles += [[cmd, f"fixtures/{f}.json"] for cmd in ("check-tripos", "check-localic")
                for f in ("l3", "m3", "diamond")]
    singles += [["check-density", "fixtures/l2.json", "fixtures/l2.json",
                 "fixtures/l2_identity.map.json"],
                ["k2", "apply", "--alpha", "1", "--beta", "n+1", "--n", "7", "--fuel", "100"],
                ["k2", "tau", "--alpha", "0", "--prefix", "1,2", "--nprime", "1",
                 "--j", "0", "--fuel", "2"],
                ["k2", "discrete", "--elems", "n+1; n*2", "--depth", "3"]]
    groups = [[argv] for argv in singles]
    for f in OPCA_FIXTURES:
        out = f"{WORK}/{f}_aks.json"
        build = ["build-aks", f"fixtures/{f}.json", "--out", out]
        if f == "vee":  # the file carries no U
            build += ["--U", "0"]
        groups.append([build, ["check-aks", out], ["check-order-ca", out]])
    return groups


def cli_id(argv):
    return " ".join(argv)


def run_cli(ctx, argv, item_id):
    """(exit code, stdout) of one fresh ``realcheck --format machine`` process."""
    args = ["--format", "machine", *argv]
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "realcheck.cli", *args]
    else:
        cmd = [sys.executable, os.path.join(HERE, "cli_boot.py"), ctx.spans_file, *args]
        if os.path.exists(ctx.spans_file):  # never merge a previous call's spans
            os.remove(ctx.spans_file)
    proc = subprocess.run(cmd, cwd=ctx.root, env=ctx.env, capture_output=True,
                          text=True, timeout=120)
    if ctx.tracer is not None:
        with open(ctx.spans_file, encoding="utf-8") as fh:
            ctx.tracer.merge(json.load(fh), item_id)
    return proc.returncode, proc.stdout


def load_cli_golden():
    with open(os.path.join(GOLDEN_DIR, "cli_cold.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _cli_item(argv, golden):
    item_id = cli_id(argv)

    def run(ctx):
        return run_cli(ctx, argv, item_id)

    def check(r):
        code, stdout = r
        want = golden.get(item_id)
        if want is None:
            return ["no golden output"]
        bad = []
        if code != want["exit"]:
            bad.append(f"exit {code}, golden {want['exit']}")
        if stdout != want["stdout"]:
            bad.append("machine output differs from golden")
        return bad + oracles.cli_documented_failures(argv, code, stdout)

    return Item(item_id, run, check)


def cli_setup(seed, ctx):
    import realcheck.cli  # noqa: F401  (the import every CLI call pays)

    os.makedirs(os.path.join(ctx.root, WORK), exist_ok=True)
    golden = load_cli_golden()
    return [[_cli_item(argv, golden) for argv in group] for group in cli_groups()]


# name -> setup(seed, ctx), which returns the groups of items
WORKLOADS = {"krivine_sweep": krivine_setup, "morphism_scan": morphism_setup,
             "k2_dialogue": k2_setup, "cli_cold": cli_setup}


def load_digests():
    path = os.path.join(GOLDEN_DIR, "digests.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
