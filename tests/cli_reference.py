"""The argparse parser of `acso` as it was before `acso.cli._parse`.

A verbatim copy of `_Parser` and `build_parser` from `acso.cli` at the
change that gave `main` its own parser for well-formed command lines.
`acso.cli.build_parser` still declares the same grammar, for help and
usage errors; this copy is the reference `_parse` is tested against.
"""

import argparse
import sys

from acso.cli import cmd_check, cmd_corpus, cmd_lifts, cmd_table


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is taken by "obstructed"
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="acso",
                     description="obstructions to almost complex structures "
                                 "from characteristic-class data")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="evaluate one space file")
    check.add_argument("space", help="path to a space file (JSON)")
    check.add_argument("--bound", type=int, default=10,
                       help="coefficient bound for candidate lifts")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.set_defaults(func=cmd_check)

    lifts = sub.add_parser("lifts", help="integral lifts of a w class")
    lifts.add_argument("space", help="path to a space file (JSON)")
    lifts.add_argument("--class", dest="klass", required=True,
                       help="which class to lift, e.g. w2")
    lifts.add_argument("--bound", type=int, default=10)
    lifts.set_defaults(func=cmd_lifts)

    table = sub.add_parser("table", help="homotopy groups and denominators")
    which = table.add_mutually_exclusive_group(required=True)
    which.add_argument("--pi", nargs=2, type=int, metavar=("N", "Q"),
                       help="print pi_Q(SO(2N)/U(N))")
    which.add_argument("--denominator", type=int, metavar="K",
                       help="print the Theorem I multiplier l(K)")
    table.set_defaults(func=cmd_table, pi=None, denominator=None)

    corpus = sub.add_parser("corpus", help="run the bundled expectation suite")
    corpus.add_argument("--run", action="store_true",
                        help="actually run the cases")
    corpus.add_argument("--dir", default=None,
                        help="run space files from this directory instead")
    corpus.set_defaults(func=cmd_corpus)

    return parser
