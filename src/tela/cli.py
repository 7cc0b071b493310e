"""Command line interface.

Subcommands: convert, determinize, limitdet, check, mc, random, bench.
Automata travel as HOA on files or stdin/stdout ("-"), so subcommands can
be chained in shell pipelines.

Exit codes: 0 success; 1 negative answer from a boolean analysis (check
found the property violated, mc --qual answered zero, bench found language
mismatches); 2 usage error; 3 malformed or unsuitable input; 4 internal
error (an unexpected exception, a bug: its traceback and an "internal
error:" line go to stderr).
"""

from __future__ import annotations

import argparse
import random as _random
import sys
import traceback
from pathlib import Path

from .acceptance import AcceptanceError, NotInDnfError
from .analysis import accepting_lasso
from .core import TelaError, is_deterministic, state_limit
from .determinize import DET_METHODS, determinize_by
from .hoaio import _letter_label, parse_hoa, print_hoa
from .limitdet import (
    build_gfm,
    build_ld,
    is_limit_deterministic,
    is_syntactically_limit_deterministic,
    limit_det_sum,
)
from .mdp import MdpError, parse_mdp, pr_max_tela, qualitative_positive
from .randbench import (
    format_report,
    format_table,
    parse_bench_config,
    random_tela,
    run_benchmark,
)
from .transforms import GBA_METHODS, ensure_dnf, to_gba


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _read_automaton(path: str):
    return parse_hoa(_read_text(path))


def _emit(a) -> None:
    sys.stdout.write(print_hoa(a))


def _cmd_convert(args) -> int:
    a = _read_automaton(args.file)
    _emit(to_gba(a, args.method))
    return 0


def _cmd_determinize(args) -> int:
    _emit(determinize_by(_read_automaton(args.file), args.method))
    return 0


def _cmd_limitdet(args) -> int:
    a = _read_automaton(args.file)
    if args.method == "sum":
        out = limit_det_sum(a)
    elif args.method == "ld":
        out = build_ld(ensure_dnf(a))
    else:
        out = build_gfm(ensure_dnf(a))
    _emit(out)
    return 0


def _cmd_check(args) -> int:
    a = _read_automaton(args.file)
    if args.what == "empty":
        lasso = accepting_lasso(a)
        if lasso is None:
            print("EMPTY")
            return 0
        u, v = lasso.word()

        def labels(word):
            return " ".join(_letter_label(x, len(a.ap)) for x in word)

        prefix = f"{labels(u)} " if u else ""
        print(f"{prefix}| {labels(v)}")
        return 1
    if args.what == "deterministic":
        if is_deterministic(a):
            print("DETERMINISTIC")
            return 0
        print("NONDETERMINISTIC")
        return 1
    try:
        if is_syntactically_limit_deterministic(a):
            print("SYNTACTIC")
            return 0
    except NotInDnfError:
        pass
    if is_limit_deterministic(a):
        print("SEMANTIC")
        return 0
    print("NO")
    return 1


def _cmd_mc(args) -> int:
    m = parse_mdp(_read_text(args.mdp))
    a = _read_automaton(args.aut)
    if args.quant:
        print(f"{pr_max_tela(m, a):.12f}")
        return 0
    if qualitative_positive(m, a):
        print("POSITIVE")
        return 0
    print("ZERO")
    return 1


def _cmd_random(args) -> int:
    seed = args.seed
    if seed is None:
        seed = _random.SystemRandom().randrange(2**32)
        print(f"seed: {seed}", file=sys.stderr)
    a = random_tela(
        n_states=args.states,
        n_marks=args.marks,
        edge_density=args.density,
        mark_prob=args.mark_prob,
        acc=args.acc,
        seed=seed,
        n_ap=args.ap,
    )
    _emit(a)
    return 0


def _cmd_bench(args) -> int:
    config = parse_bench_config(_read_text(args.config))
    report = run_benchmark(config)
    if config.report_path == "-":
        sys.stdout.write(format_report(report))
    else:
        Path(config.report_path).write_text(format_report(report))
        sys.stdout.write(format_table(report))
    return 1 if report.mismatches else 0


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tela",
        description="Toolkit for transition-based Emerson-Lei automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="translate acceptance to generalized Buchi")
    p.add_argument("--to", choices=["gba"], required=True)
    p.add_argument("--method", choices=GBA_METHODS, default="cnf")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("determinize", help="determinize an automaton")
    p.add_argument("--method", choices=DET_METHODS, default="product")
    p.add_argument("--state-cap", type=_positive_int, default=None)
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=_cmd_determinize)

    p = sub.add_parser("limitdet", help="build a limit-deterministic automaton")
    p.add_argument("--method", choices=["sum", "ld", "gfm"], default="sum")
    p.add_argument("--state-cap", type=_positive_int, default=None,
                   help="fail when an exploration passes this many states")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=_cmd_limitdet)

    p = sub.add_parser("check", help="decide a property of an automaton")
    p.add_argument("what", choices=["empty", "deterministic", "limitdet"])
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("mc", help="model-check an MDP against an automaton")
    p.add_argument("--mdp", required=True)
    p.add_argument("--aut", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--qual", action="store_true",
                       help="is the maximal probability positive?")
    group.add_argument("--quant", action="store_true",
                       help="print the maximal probability")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("random", help="generate a seeded random automaton")
    p.add_argument("--states", type=int, default=6)
    p.add_argument("--marks", type=int, default=4)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--mark-prob", type=float, default=0.2)
    p.add_argument("--acc", choices=["random-el", "dnf"], default="random-el")
    p.add_argument("--ap", type=int, default=2)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("bench", help="run the benchmark harness")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with state_limit(getattr(args, "state_cap", None)):
            return args.func(args)
    except (TelaError, MdpError, AcceptanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
