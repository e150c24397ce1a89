"""Batch front door: load structures, run checkers, emit reports.

Exit status: 0 when every check passed, 1 when any check failed or was
refused, 2 on malformed input.  ``--format machine`` switches the report
stream to one JSON record per check, stable across runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter

from . import aks as aksmod, bco as bcomod, formats, k2 as k2mod, opca as opcamod
from . import tripos as triposmod
from .errors import CapExceeded, ConstructionError, InvariantViolation, StructureError
from .report import REFUSED, Report


def _non_negative_int(text):
    """argparse type for counts and lengths: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _non_negative_ints(text):
    """argparse type for a comma-separated list of ints >= 0, maybe empty."""
    return [_non_negative_int(item) for item in text.split(",") if item.strip()]


def _emit(report, fmt):
    if fmt == "machine":
        print(report.render_machine())
    else:
        print(report.render_text())
        verdict = "all passed" if report.passed else "FAILURES"
        print(f"-- {report.subject}: {len(report.records)} checks, {verdict},"
              f" {report.elapsed_ms:.1f} ms")
    return 0 if report.passed else 1


def _cmd_check_opca(args):
    opca, _ = formats.load_opca(args.file)
    rep = opcamod.check_opca_axioms(opca, search_ks=args.search_ks)
    if opca.filter is not None:
        rep.extend(opcamod.check_filter(opca, opca.filter))
    if args.eval_term:
        from .terms import parse_term
        try:
            value = opca.eval(parse_term(args.eval_term))
        except ValueError as e:
            raise StructureError(str(e), source="--eval-term")
        rep.found("term.value", "value", value, "undefined", detail=args.eval_term)
    return rep


def _cmd_check_bco(args):
    return bcomod.check_bco(formats.load_bco(args.file))


def _cmd_check_filter(args):
    opca, _ = formats.load_opca(args.file)
    subset = frozenset(args.subset) if args.subset is not None else opca.filter
    if subset is None:
        raise StructureError("no filter in file and none given", source=args.file)
    return opcamod.check_filter(opca, subset)


def _cmd_build_aks(args):
    opca, _ = formats.load_opca(args.file)
    built = aksmod.build_aks(opca, max_len=args.max_len, U=args.U)
    rep = aksmod.check_aks(built.aks)
    if args.out:
        formats.save_aks(args.out, built.aks)
        rep.verdict("aks.saved", witnesses={"path": args.out})
    return rep


def _cmd_check_aks(args):
    return aksmod.check_aks(formats.load_aks(args.file))


def _cmd_check_order_ca(args):
    return aksmod.check_order_ca(formats.load_aks(args.file))[1]


def _cmd_check_localic(args):
    opca, _ = formats.load_opca(args.file)
    rep = Report(opca.name)
    witness = triposmod.localic_criterion(opca)
    rep.found("localic.criterion", "e", witness, "no uniform witness")
    built = aksmod.build_aks(opca, max_len=args.max_len)
    kr = aksmod.check_kr(built.aks)
    rep.found("localic.kr", "a", kr, "no quasi-proof satisfies it")
    least = aksmod.tv_least_of_aks(built.aks)
    rep.found("localic.tv_least", "least", least, "no least truth value")
    agree = (witness is None) == (kr is None) == (least is None)
    rep.verdict("localic.triangulation", None if agree else (witness, kr, least))
    return rep


def _cmd_check_density(args):
    src, _ = formats.load_opca(args.src)
    dst, _ = formats.load_opca(args.dst)
    fmap = formats.load_map(args.mapfile)
    rep = bcomod.check_applicative_morphism(fmap, src, dst)
    dens = bcomod.check_density(fmap, src, dst)
    rep.found("density.cd_sk", None, dens.cd and {"m": dens.cd[0], "g": dens.cd[1]},
              "no (m, g) family")
    rep.found("density.simple", None, dens.simple and {"t": dens.simple[0], "h": dens.simple[1]},
              "no (h, t) family")
    rep.verdict("density.agreement",
                None if dens.agree else (bool(dens.cd), bool(dens.simple)))
    return rep


def _cmd_check_tripos(args):
    opca, sup = formats.load_opca(args.file)
    rep = Report(opca.name)
    if opca.filter is None:
        raise StructureError("check-tripos needs a filtered opca", source=args.file)

    if sup is None:
        try:
            sup = bcomod.join_sup(opca)
            rep.verdict("tripos.sup_source", witnesses={"derived": "poset joins"})
        except StructureError:
            rep.add("tripos.sup_source", REFUSED,
                    detail="no sup table in file and poset joins incomplete")
            sup = None
    if sup is not None:
        alg = bcomod.PseudoDAlgebra(host=opca, sup=sup, name=f"sup({opca.name})")
        alg_rep = bcomod.check_pseudo_d_algebra(alg)
        rep.extend(alg_rep)
        star = bcomod.check_star(alg)
        rep.found("tripos.star", "v", star, "no uniform bound")
        DA = bcomod.downset_opca(opca)
        sup_map = {d: alg.value(d) for d in DA.elements}
        appl = bcomod.check_applicative_morphism(sup_map, DA, opca, crosscheck=False)
        appl_ok = bcomod.applicative_verdict(appl)
        rep.verdict("tripos.sup_applicative", None if appl_ok else ("sup not applicative",))
        agree = appl_ok == (star is not None)
        rep.verdict("tripos.star_equals_applicative", None if agree else (appl_ok, star))
        if alg_rep.passed and star is not None:
            kit = bcomod.implication_from_sup(alg, report=alg_rep, v=star)
            kit_rep = bcomod.check_implicative(kit, mode="pre-implicative")
            rep.extend(kit_rep)
            if kit_rep.passed:
                try:
                    bcomod.sup_from_implication(kit)
                    rep.verdict("tripos.roundtrip_sup")
                except ConstructionError as e:
                    rep.verdict("tripos.roundtrip_sup", (str(e),))

    if opca.U is not None:
        try:
            phi = triposmod.first_unstable(opca)
        except InvariantViolation as e:  # the two forms agree only on an opca
            rep.add("tripos.booleanization", REFUSED, detail=str(e))
        else:  # on pass, the generic predicate's index size
            rep.verdict("tripos.booleanization",
                        None if phi is None
                        else tuple(sorted(map(str, phi(i))) for i in phi.index),
                        {"predicates": len(opca.downsets())})
    return rep


def _parse_k2_elems(spec_str):
    return [k2mod.from_expr(src.strip()) for src in spec_str.split(";") if src.strip()]


def _cmd_k2(args):
    rep = Report("k2")
    if args.k2_command == "apply":
        alpha = k2mod.from_expr(args.alpha)
        beta = k2mod.from_expr(args.beta)
        value = k2mod.k2_apply(alpha, beta, args.n, args.fuel)
        rep.found("k2.apply", "value", value, "undefined-at-fuel",
                  detail=f"n={args.n} fuel={args.fuel}")
    elif args.k2_command == "tau":
        alpha = k2mod.from_expr(args.alpha)
        try:
            value = k2mod.tau_extract(alpha, args.prefix, args.nprime, args.j, args.fuel)
        except CapExceeded as e:
            rep.add("k2.tau", REFUSED, detail=str(e))
        else:
            rep.found("k2.tau", "value", value, "undefined-at-fuel")
    elif args.k2_command == "discrete":
        elems = _parse_k2_elems(args.elems)
        result = k2mod.is_discrete(elems, args.depth)
        rep.verdict("k2.discrete", result.witness, {"prefixes": result.prefixes})
    return rep


def build_parser():
    parser = argparse.ArgumentParser(
        prog="realcheck",
        description="check realizability structures and build Krivine structures")
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-opca", help="order/application/k/s axioms")
    p.add_argument("file")
    p.add_argument("--search-ks", action="store_true",
                   help="also brute-force a working (k,s) pair")
    p.add_argument("--eval-term", metavar="TERM",
                   help=r"evaluate a closed term (K, S, element names, "
                        r"juxtaposition, \x. M) in the structure")
    p.set_defaults(fn=_cmd_check_opca)

    p = sub.add_parser("check-bco", help="the three BCO clauses")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check_bco)

    p = sub.add_parser("check-filter", help="application closure and k/s membership")
    p.add_argument("file")
    p.add_argument("--subset", nargs="*", help="override the file's filter (none: empty)")
    p.set_defaults(fn=_cmd_check_filter)

    p = sub.add_parser("build-aks", help="Krivine structure from a filtered opca + U")
    p.add_argument("file")
    p.add_argument("--U", nargs="*", help="downset elements (default: file's U; none: empty)")
    p.add_argument("--max-len", type=_non_negative_int, default=3)
    p.add_argument("--out", help="write the built structure to this file")
    p.set_defaults(fn=_cmd_build_aks)

    p = sub.add_parser("check-aks", help="pole rules S1-S5 on an aks file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check_aks)

    p = sub.add_parser("check-order-ca", help="induced order-ca on closed stack sets")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check_order_ca)

    p = sub.add_parser("check-tripos",
                       help="sup-algebra, pre-implicative, Booleanization suites")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check_tripos)

    p = sub.add_parser("check-localic",
                       help="localic criterion + least truth value + (Kr)")
    p.add_argument("file")
    p.add_argument("--max-len", type=_non_negative_int, default=3)
    p.set_defaults(fn=_cmd_check_localic)

    p = sub.add_parser("check-density", help="computational density of a map")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("mapfile")
    p.set_defaults(fn=_cmd_check_density)

    p = sub.add_parser("k2", help="dialogue model operations")
    k2sub = p.add_subparsers(dest="k2_command", required=True)
    q = k2sub.add_parser("apply")
    q.add_argument("--alpha", required=True, help="generator expression")
    q.add_argument("--beta", required=True)
    q.add_argument("--n", type=_non_negative_int, required=True)
    q.add_argument("--fuel", type=_non_negative_int, default=10**5)
    q.set_defaults(fn=_cmd_k2)
    q = k2sub.add_parser("tau")
    q.add_argument("--alpha", required=True)
    q.add_argument("--prefix", type=_non_negative_ints, required=True,
                   help="comma-separated values")
    q.add_argument("--nprime", type=_non_negative_int, required=True)
    q.add_argument("--j", type=_non_negative_int, required=True)
    q.add_argument("--fuel", type=_non_negative_int, default=8)
    q.set_defaults(fn=_cmd_k2)
    q = k2sub.add_parser("discrete")
    q.add_argument("--elems", required=True, help="semicolon-separated expressions")
    q.add_argument("--depth", type=_non_negative_int, required=True)
    q.set_defaults(fn=_cmd_k2)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = perf_counter()
    try:
        report = args.fn(args)
    except StructureError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except (ConstructionError, CapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    report.elapsed_ms = (perf_counter() - start) * 1000.0
    try:
        code = _emit(report, args.format)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; spare the flush at exit a second one
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
