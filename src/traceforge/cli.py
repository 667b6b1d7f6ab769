"""Command-line front end.

Subcommands:

    traceforge sgp info <gens>
    traceforge trace enum <gens> --p P [--json out.json]
    traceforge trace bijection <gens> --p P
    traceforge trace probe <gens> --n N --samples k1,k2,...
    traceforge artin <preset> [--p P | --rationals] [--l L, chain only]
    traceforge survey --max-genus G --p P --out DIR [--seed S] [--threads T]

Exit codes: 0 success, 2 input errors (unreadable or unwritable paths
included), 3 workload guard, 4 a survey found a theorem violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .batch import survey
from .errors import BoundTooLarge, WorkloadExceeded
from .fields import GF, QQ
from .semigroups import (NumericalSemigroup, canonical_value_set,
                         cm_type_list_check, is_arf, kunz_cone_classify,
                         lipman_sequence, parse_generators, value_set_condition)
from .trace import (enumerate_trace_ideals, family_probe, verify_bijection)
from .artin import (_check_ideal_sweep, enumerate_trace_ideals_artinian,
                    gorenstein_family_separation, gorenstein_two_generators, socle,
                    square_zero_two_vars, truncated_dvr)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_WORKLOAD = 3
EXIT_VIOLATION = 4

# BoundTooLarge is a ValueError too; WORKLOAD_ERRORS is caught first
INPUT_ERRORS = (ValueError, OSError)
WORKLOAD_ERRORS = (WorkloadExceeded, BoundTooLarge)


def _semigroup(text: str) -> NumericalSemigroup:
    return NumericalSemigroup.from_generators(parse_generators(text))


def cmd_info(args) -> int:
    H = _semigroup(args.gens)
    print(f"H = <{H.text}>")
    if H.genus == 0:
        print("H is all of N0: K[[H]] = K[[t]] is a discrete valuation ring (DVR)")
    print(f"  gaps        : {list(H.gaps())}  (genus {H.genus})")
    print(f"  frobenius   : {H.frobenius}    conductor: {H.conductor}")
    print(f"  multiplicity: {H.multiplicity}    embedding dim: {H.embedding_dimension}"
          f"    minimal multiplicity: {H.has_minimal_multiplicity}")
    e = H.multiplicity
    print(f"  apery set (e={e}): {list(H.apery_set(e))}")
    if e >= 2:
        kv = H.kunz_coordinates(e)
        print(f"  kunz coords : {list(kv.coords)}  ({kunz_cone_classify(kv)})")
    K = canonical_value_set(H)
    pf = H.pseudo_frobenius()
    print(f"  K(H) gens   : {list(K.generators)}   pseudo-frobenius: "
          f"{list(pf)}  (type {len(pf)})")
    print(f"  gorenstein  : {H.is_symmetric}")
    cond = value_set_condition(K)
    verdict = {"I": "condition I (1 in K(H))",
               "II": "condition II (n or n+1 in K(H) for all n >= 2)"}.get(
                   cond.kind, f"FAILS at n = {cond.witness}")
    print(f"  value set   : {verdict}")
    tag = cm_type_list_check(K)
    note = " (substituted for the duplicated list entry)" if tag == "<3,4,5>" else ""
    print(f"  finite-type list: {tag if tag else 'not listed'}{note}")
    print(f"  arf         : {is_arf(H)}")
    chain = " -> ".join(f"<{S.text}>" for S in lipman_sequence(H))
    print(f"  lipman chain: {chain}")
    return EXIT_OK


def cmd_trace_enum(args) -> int:
    H = _semigroup(args.gens)
    # open --json first, so an unwritable path fails before the enumeration
    fh = open(args.json, "w") if args.json is not None else None
    try:
        enum = enumerate_trace_ideals(H, args.p)
        if fh:
            json.dump(enum.to_report(), fh, indent=2, sort_keys=True)
            fh.close()
    except BaseException:
        if fh:
            fh.close()
            os.remove(args.json)
        raise
    print(f"H = <{H.text}>   field = F_{args.p}   conductor exponent = {H.conductor}")
    print(f"trace ideals (zero ideal included): {enum.count_with_zero}")
    print("  0" + " " * 24 + "zero ideal")
    for info in enum.ideals:
        piv = ",".join(map(str, info.ideal.pivots))
        desc = f"pivots {{{piv}}}, tail {info.ideal.tail}" if piv else \
               f"tail {info.ideal.tail}"
        print(f"  {info.label():<24} {desc}")
    print(f"R-submodules of R/c (census): {enum.census}")
    if args.json:
        print(f"wrote {args.json}")
    return EXIT_OK


def cmd_trace_bijection(args) -> int:
    H = _semigroup(args.gens)
    rep = verify_bijection(H, args.p)
    status = "OK" if rep.ok else "FAILED"
    print(f"bijection {status} (|Tr(R)\\{{R}}| = {rep.left_count}, "
          f"|Tr(B)| = {rep.right_count}, B = <{rep.blowup}>, p = {args.p})")
    return EXIT_OK if rep.ok else EXIT_VIOLATION


def _sample(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"sample {text.strip()!r} has a zero denominator") from None


def cmd_trace_probe(args) -> int:
    H = _semigroup(args.gens)
    samples = [_sample(s) for s in args.samples.split(",") if s.strip()]
    rep = family_probe(H, args.n, samples)
    print(f"{rep.distinct_results}/{len(rep.samples)} distinct colons "
          f"R : R[{rep.template}] over <{H.text}>")
    if rep.verdict == "infinite-family-witness":
        print("infinite family witness: over an infinite field Tr(R) is infinite")
    else:
        print("no separation")
    return EXIT_OK


def cmd_artin(args) -> int:
    if args.l is not None and args.preset != "chain":
        raise ValueError("--l sets the length of 'chain' only")
    field = QQ if args.rationals else GF(2 if args.p is None else args.p)
    if args.preset == "sq0":
        A = square_zero_two_vars(field)
    elif args.preset == "chain":
        length = 3 if args.l is None else args.l
        # refuse before building the L^3 table; over QQ with F_2's bound, the loosest
        _check_ideal_sweep(field.p if field.finite else 2, length)
        A = truncated_dvr(field, length)
    else:  # gor4: argparse's choices admit only the three presets
        A = gorenstein_two_generators(field)
    print(f"A = {A!r}  dim {A.dim}, socle dim {socle(A).dim}")
    if args.rationals:
        # exhaustive enumeration needs a finite field; over QQ the point of
        # gor4 is the cyclic-ideal separation witness
        if args.preset == "gor4":
            samples = list(range(5))
            n = gorenstein_family_separation(
                A, A.basis_vector(1), A.basis_vector(2), samples)
            print(f"{n}/{len(samples)} distinct cyclic trace ideals (x + a*y): "
                  "Tr(A) is infinite over an infinite field")
        else:
            print("exhaustive enumeration needs --p; socle shown above")
        return EXIT_OK
    traces = enumerate_trace_ideals_artinian(A)
    names = []
    for I in traces:
        if I.dim == 0:
            names.append("0")
        elif I.dim == A.dim:
            names.append("R")
        elif I.dim == A.dim - 1:
            names.append("m")
        else:
            names.append(f"dim {I.dim}")
    print(f"Tr = {{{', '.join(names)}}}  ({len(traces)} trace ideals)")
    return EXIT_OK


def cmd_survey(args) -> int:
    record = survey(args.max_genus, args.p, args.out, seed=args.seed,
                    threads=args.threads)
    print(f"surveyed {record['count']} semigroups of genus <= {args.max_genus} "
          f"over F_{args.p} -> {args.out}")
    if record["flagged_for_study"]:
        print(f"value-set condition fails (worth study): "
              f"{', '.join(record['flagged_for_study'])}")
    if record["violations"]:
        print("THEOREM VIOLATIONS FOUND:")
        for v in record["violations"]:
            print(f"  <{v['gens']}>: {', '.join(v['violations'])}")
        return EXIT_VIOLATION
    print("no theorem violations")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="traceforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sgp = sub.add_parser("sgp", help="numerical semigroup reports")
    sgp_sub = sgp.add_subparsers(dest="subcommand", required=True)
    info = sgp_sub.add_parser("info", help="invariants of one semigroup")
    info.add_argument("gens")
    info.set_defaults(func=cmd_info)

    tr = sub.add_parser("trace", help="trace-ideal computations")
    tr_sub = tr.add_subparsers(dest="subcommand", required=True)
    enum = tr_sub.add_parser("enum", help="enumerate Tr(R) over F_p")
    enum.add_argument("gens")
    enum.add_argument("--p", type=int, required=True)
    enum.add_argument("--json", default=None)
    enum.set_defaults(func=cmd_trace_enum)
    bij = tr_sub.add_parser("bijection", help="check the blowup bijection")
    bij.add_argument("gens")
    bij.add_argument("--p", type=int, required=True)
    bij.set_defaults(func=cmd_trace_bijection)
    probe = tr_sub.add_parser("probe", help="colon separation over QQ")
    probe.add_argument("gens")
    probe.add_argument("--n", type=int, required=True)
    probe.add_argument("--samples", required=True)
    probe.set_defaults(func=cmd_trace_probe)

    artin = sub.add_parser("artin", help="zero-dimensional algebras")
    artin.add_argument("preset", choices=["sq0", "chain", "gor4"])
    field = artin.add_mutually_exclusive_group()
    field.add_argument("--p", type=int, default=None, help="the prime of F_p (default 2)")
    field.add_argument("--rationals", action="store_true")
    artin.add_argument("--l", type=int, default=None, help="chain length for 'chain' (default 3)")
    artin.set_defaults(func=cmd_artin)

    sv = sub.add_parser("survey", help="batch run over all semigroups up to a genus")
    sv.add_argument("--max-genus", type=int, required=True)
    sv.add_argument("--p", type=int, default=2)
    sv.add_argument("--out", required=True)
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--threads", type=int, default=None)
    sv.set_defaults(func=cmd_survey)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WORKLOAD_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKLOAD
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
