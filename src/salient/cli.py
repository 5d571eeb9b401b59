"""Command-line front end.

One subcommand per concept; every invocation is deterministic (identical
arguments give byte-identical output). Exit codes: 0 success, 1 domain or
usage error, 2 guard or cap exceeded. The --limit of classes, count, class
and multiset sets the orbit member cap, in words, which SALIENT_LIMIT_MB
may lower; that of singletons and poset extensions sets their size cap.
Every other guard is fixed.
"""
from __future__ import annotations

import argparse
import json
import sys

from salient import acceptance, classes, mfenum, posets, series, words
from salient.errors import DomainError, GuardExceeded, SalientError


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise DomainError(message)


def _cap(text: str) -> int:
    """A --limit or --members-limit value: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"needs a non-negative integer, got {text!r}")
    return int(text)


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    """A comma-separated list of integers, such as --caps 2,1,2."""
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise DomainError(
            f"{flag} needs comma-separated integers, got {text!r}") from None


def _series_json(ts: series.TruncatedSeries) -> list[dict]:
    return [{"exponents": list(exps), "coefficient": str(value)}
            for exps, value in ts.terms()]


def _classes_payload(partition, members_limit: int) -> list[dict]:
    out = []
    for cls in partition:
        entry = {"representative": words.format_word(cls.representative),
                 "size": cls.size}
        if cls.size <= members_limit:
            entry["members"] = [words.format_word(w) for w in cls.members]
        out.append(entry)
    return out


def _print_classes(args, head: dict, partition) -> None:
    """Print a partition; JSON output starts with the fields of head."""
    if args.format == "json":
        payload = {**head, "classes":
                   _classes_payload(partition, args.members_limit)}
        print(json.dumps(payload))
    else:
        for cls in partition:
            head = f"{words.format_word(cls.representative)} size={cls.size}"
            if cls.size <= args.members_limit:
                body = " ".join(words.format_word(w) for w in cls.members)
                print(f"{head}: {body}")
            else:
                print(head)


def cmd_classes(args) -> int:
    partition = classes.class_partition(args.n, args.relation,
                                        max_members=args.limit)
    _print_classes(args, {"n": args.n}, partition)
    return 0


def cmd_count(args) -> int:
    if args.method == "formula":
        value = classes.f_inclusion_exclusion(args.n)
    elif args.method == "series":
        value = classes.f_series(args.n)[args.n]
    elif args.method == "bfs":
        value = len(classes.class_partition(args.n, max_members=args.limit))
    print(value)
    return 0


def cmd_class(args) -> int:
    word = words.parse_word(args.word)
    if args.size_only:
        print(classes.class_size(word, args.relation, max_members=args.limit))
        return 0
    cls = classes.class_of(word, args.relation, max_members=args.limit)
    if args.format == "json":
        payload = {"representative": words.format_word(cls.representative),
                   "size": cls.size,
                   "members": [words.format_word(w) for w in cls.members]}
        print(json.dumps(payload))
    else:
        print(" ".join(words.format_word(w) for w in cls.members))
    return 0


def cmd_salient(args) -> int:
    word = words.parse_word(args.word)
    print(words.format_word(classes.salient_representative(word)))
    return 0


def cmd_singletons(args) -> int:
    if args.method == "series":
        print(classes.singleton_series(args.n)[args.n])
    else:
        print(classes.count_singletons(args.n, max_n=args.limit))
    return 0


def cmd_multiset(args) -> int:
    spec = words.MultisetSpec.parse(args.spec)
    if args.count_only:
        if args.limit is not None:
            raise DomainError(
                "--limit does not apply to --count-only (the count is "
                f"guarded by its domino sum, at most {series.DOMINO_CAP} "
                f"transitions and {series.DOMINO_LETTER_CAP} letters)")
        print(series.multiset_count_cf(spec))
        return 0
    limit = classes.DEFAULT_ORBIT_CAP if args.limit is None else args.limit
    partition = classes.multiset_class_partition(spec, max_members=limit)
    _print_classes(args, {"spec": spec.format()}, partition)
    return 0


def cmd_cf(args) -> int:
    caps = _int_list(args.caps, "--caps")
    ts = series.cf_series(args.n, caps)
    if args.format == "json":
        print(json.dumps(_series_json(ts)))
    else:
        for exps, value in ts.terms():
            print(" ".join(map(str, exps)), value)
    return 0


def cmd_f4(args) -> int:
    exps = _int_list(args.exps, "--exps")
    if len(exps) != 4:
        raise DomainError("--exps needs four comma-separated exponents")
    if args.t is None:
        print(series.f4_coefficient(*exps))
    else:
        print(series.f4_t_coefficient(*exps, args.t))
    return 0


def cmd_umbral(args) -> int:
    values = series.g_umbral_series(args.k, args.upto)
    if args.format == "json":
        print(json.dumps([str(v) for v in values]))
    else:
        print(" ".join(map(str, values)))
    return 0


def _poset_from_args(args) -> posets.GradedPoset:
    if args.gamma is not None:
        return posets.lattice_from_gamma(args.gamma)
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as handle:
            return posets.GradedPoset.from_json(handle.read())
    raise DomainError("need --gamma or --file")


def cmd_poset_beta(args) -> int:
    poset = _poset_from_args(args)
    if args.format == "dot":
        sys.stdout.write(poset.to_dot())
        return 0
    rows = poset.flag_rows()
    if args.format == "json":
        payload = [{"S": list(s), "alpha": a, "beta": b} for s, a, b in rows]
        print(json.dumps(payload))
    else:
        for s, a, b in rows:
            label = ",".join(map(str, s)) if s else "-"
            print(f"S={label} alpha={a} beta={b}")
    return 0


def cmd_poset_extensions(args) -> int:
    if args.qn is not None:
        q = posets.q_from_commuting_word(args.qn)
    elif args.gamma is not None:
        q = posets.q_from_gamma(args.gamma)
    else:
        raise DomainError("need --gamma or --qn")
    print(q.extension_count(max_size=args.limit))
    return 0


def cmd_enumerate(args) -> int:
    if args.by == "rank":
        counts = mfenum.mf_counts_by_rank(args.max)
    else:
        counts = mfenum.mf_counts_by_elements(args.max)
    if args.format == "json":
        print(json.dumps(counts))
    else:
        print(" ".join(map(str, counts)))
    return 0


def cmd_verify(args) -> int:
    names = ([args.suite] if args.suite != "all"
             else [name for _, name, _ in acceptance.CRITERIA])
    for name in names:
        if name not in acceptance.SUITES:
            raise DomainError(f"unknown suite {name!r}; choose from "
                              + ", ".join(acceptance.SUITES))
    numbers = {name: num for num, name, _ in acceptance.CRITERIA}
    failed = 0
    for name in names:
        ok, message, secs = acceptance.run_suite(name)
        status = "PASS" if ok else "FAIL"
        print(f"{status} {numbers[name]:2d} {name}: {message} ({secs:.1f}s)")
        failed += not ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="salient",
                     description="Interchange equivalence classes, "
                                 "commutation series, and flag h-vectors.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "json")):
        p.add_argument("--format", choices=choices, default="text")

    def add_limit(p, default, help):
        p.add_argument("--limit", type=_cap, default=default, help=help)

    member_cap = ("orbit member cap, in words "
                  f"(default {classes.DEFAULT_ORBIT_CAP})")
    relation_help = ("consecutive (swap adjacent letters differing by 1) or "
                     "geq:J (differing by J or more, J >= 2)")

    p = sub.add_parser("classes", help="orbits of the relation on [n]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--relation", default="consecutive", help=relation_help)
    p.add_argument("--members-limit", type=_cap, default=1000)
    add_limit(p, classes.DEFAULT_ORBIT_CAP, member_cap)
    add_format(p)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("count", help="number of classes on [n]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("bfs", "formula", "series"),
                   required=True)
    add_limit(p, classes.DEFAULT_ORBIT_CAP, member_cap)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("class", help="the class of one word")
    p.add_argument("--word", required=True)
    p.add_argument("--relation", default="consecutive", help=relation_help)
    p.add_argument("--size-only", action="store_true")
    add_limit(p, classes.DEFAULT_ORBIT_CAP, member_cap)
    add_format(p)
    p.set_defaults(func=cmd_class)

    p = sub.add_parser("salient", help="canonical representative of a word")
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_salient)

    p = sub.add_parser("singletons", help="one-element class count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("brute", "series"), default="brute")
    add_limit(p, classes.DEFAULT_SINGLETON_BRUTE_N,
              "override the brute-force n cap")
    p.set_defaults(func=cmd_singletons)

    p = sub.add_parser("multiset", help="classes of a multiset")
    p.add_argument("--spec", required=True, help='e.g. "1:2,2:1,3:2"')
    p.add_argument("--count-only", action="store_true",
                   help="print the class count from the domino sum, "
                        "with no member cap: refused past "
                        f"{series.DOMINO_CAP} transitions or "
                        f"{series.DOMINO_LETTER_CAP} letters")
    p.add_argument("--members-limit", type=_cap, default=1000)
    add_limit(p, None, member_cap)
    add_format(p)
    p.set_defaults(func=cmd_multiset)

    p = sub.add_parser("cf", help="commutation series coefficients")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--caps", required=True, help="per-variable caps, e.g. 2,1,2")
    add_format(p)
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("f4", help="four-letter closed form")
    p.add_argument("--exps", required=True, help="h,i,j,k")
    p.add_argument("--t", type=int)
    p.set_defaults(func=cmd_f4)

    p = sub.add_parser("umbral", help="counts for {1^k,...,n^k}")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--upto", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_umbral)

    poset_parser = sub.add_parser("poset", help="flag vectors and extensions")
    poset_sub = poset_parser.add_subparsers(dest="poset_command", required=True)

    p = poset_sub.add_parser("beta", help="flag f/h-vector rows")
    p.add_argument("--gamma", help="two-per-rank lattice word, e.g. 01001")
    p.add_argument("--file", help="poset JSON file")
    add_format(p, choices=("text", "json", "dot"))
    p.set_defaults(func=cmd_poset_beta)

    p = poset_sub.add_parser("extensions", help="linear extension count")
    p.add_argument("--gamma")
    p.add_argument("--qn", type=int, help="commutation poset on [n]")
    add_limit(p, posets.DEFAULT_EXTENSION_COUNT_SIZE, "override the size cap")
    p.set_defaults(func=cmd_poset_extensions)

    p = sub.add_parser("enumerate", help="multiplicity-free family counts")
    p.add_argument("--by", choices=("rank", "elements"), required=True)
    p.add_argument("--max", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run an acceptance suite")
    p.add_argument("--suite", default="all")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # exact counts may run past the interpreter's cap on the digits that
    # int-to-str conversion prints
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SalientError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
