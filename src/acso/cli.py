"""Command line interface.

    acso check SPACE [--bound N] [--format text|json]
    acso lifts SPACE --class w2 [--bound N]
    acso table --pi N Q | --denominator K
    acso corpus --run [--dir PATH]

`check` exits 0 when no obstruction test fired, 2 when some obstruction
is provably nonzero, 3 when the only blockers are inconclusive tests, and
1 on input or usage errors, on candidate searches, counts of ring basis
pairs or confluence tests and lift counts larger than their caps, and on
data that passed validation yet breaks Massey's divisibility by 4.  `lifts` exits 1 on the same
errors.
`corpus` exits nonzero when any bundled (or supplied) case disagrees with
its recorded expectations.
"""

from __future__ import annotations

import argparse
import sys

from .gradedring import RingError, lift_coefficients, text
from .obstruct import (
    BudgetExceeded,
    DataValidationError,
    DivisibilityViolation,
    acs_verdict,
    homotopy_group,
    integral_sw,
    obstruction_denominator,
)
from .report import (
    candidate_doc,
    exit_code,
    render_json,
    render_text,
    wu_pairing_table,
)
from .spacefile import SpaceFile, SpaceFileError, load_space_file, \
    space_file_from_text

# lines of `acso lifts` per write to stdout; larger blocks save little
# time and add to the peak memory of the command
_BLOCK_LINES = 256

_LOAD_ERRORS = (SpaceFileError, DataValidationError, RingError, OSError,
                ValueError, BudgetExceeded, DivisibilityViolation)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is taken by "obstructed"
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def cmd_check(args) -> int:
    try:
        sf = load_space_file(args.space)
        report = acs_verdict(sf.bundle, bound=args.bound)
    except _LOAD_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.format == "json":
        sys.stdout.write(render_json(report, sf.name))
    else:
        sys.stdout.write(render_text(report, sf.name))
    return exit_code(report)


def cmd_lifts(args) -> int:
    name = args.klass
    # ASCII digits only: str.isdigit() also takes "²" (which int() refuses)
    # and "٢" (which int() reads as 2)
    if not (len(name) > 1 and name[0] == "w" and name[1:].isascii()
            and name[1:].isdigit()):
        print("error: --class must look like w2, w4, ...", file=sys.stderr)
        return 1
    i = int(name[1:])
    try:
        sf = load_space_file(args.space)
        data = sf.bundle
        if i > data.cutoff:
            print("error: degree %d exceeds the ring cutoff %d"
                  % (i, data.cutoff), file=sys.stderr)
            return 1
        lifts = lift_coefficients(data.rings, data.w_class(i), args.bound)
        if lifts is None:
            msg = "no integral lift"
            if i % 2 == 0 and i + 1 <= data.cutoff \
                    and not integral_sw(data, i // 2).is_zero:
                msg = "no integral lift (W%d != 0)" % (i + 1)
            print(msg)
            return 0
        # one line per lift, the text of its element, written in blocks;
        # the memo keeps the text of each (coordinate, coefficient) term
        names = data.rings.integral.basis_strings(i)
        memo = {}
        block = []
        for coeffs in lifts:
            block.append(text(names, coeffs, memo))
            if len(block) == _BLOCK_LINES:
                _write_lines(block)
                block = []
        _write_lines(block)
    except _LOAD_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


def _write_lines(lines) -> None:
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")


def cmd_table(args) -> int:
    try:
        if args.pi is not None:
            n, q = args.pi
            print(homotopy_group(n, q))
        else:
            print(obstruction_denominator(args.denominator))
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


def _corpus_sources(directory):
    """(name, file) of every space file in name order; files are read later."""
    # imported here, not at the top: only `acso corpus` lists a directory,
    # and these modules would add to the start of every other command
    from importlib import resources
    from pathlib import Path

    if directory is not None:
        root = Path(directory)
        if not root.is_dir():
            raise OSError("not a directory: %s" % root)
    else:
        root = resources.files(__package__) / "corpus"
    entries = sorted((e for e in root.iterdir() if e.name.endswith(".json")),
                     key=lambda e: e.name)
    return [(e.name[:-len(".json")], e) for e in entries]


def _check_case(sf: SpaceFile):
    """Compare one space against its recorded expectations."""
    report = acs_verdict(sf.bundle, bound=10)
    exp = sf.expectations
    problems = []

    def want(key, actual):
        if key in exp and str(exp[key]) != str(actual):
            problems.append("%s: expected %s, got %s" % (key, exp[key], actual))

    want("status", report.status)
    want("existence", report.existence)
    if "exit_code" in exp:
        expected = int(str(exp["exit_code"]))
        if expected != exit_code(report):
            problems.append("exit_code: expected %d, got %d"
                            % (expected, exit_code(report)))
    want("first", report.first.status)
    want("final", report.final.status if report.final else "absent")
    if "final_note_contains" in exp:
        note = report.final.note if report.final else ""
        if str(exp["final_note_contains"]) not in note:
            problems.append("final note %r lacks %r"
                            % (note, exp["final_note_contains"]))
    if "vanishing_candidates" in exp:
        vanishing = report.search.vanishing if report.search else ()
        actual = [candidate_doc(c) for c in vanishing]
        if actual != exp["vanishing_candidates"]:
            problems.append("vanishing_candidates: expected %r, got %r"
                            % (exp["vanishing_candidates"], actual))
    if "wu_pairings" in exp:
        if report.search is None:
            problems.append("wu_pairings: no candidate search ran")
        else:
            actual = wu_pairing_table(sf.bundle, report.search)
            if actual != exp["wu_pairings"]:
                problems.append("wu_pairings: expected %r, got %r"
                                % (exp["wu_pairings"], actual))
    if "euler_pairing" in exp:
        paired = sf.bundle.pair(sf.bundle.euler)
        if paired is None or str(paired) != str(exp["euler_pairing"]):
            problems.append("euler_pairing: expected %s, got %s"
                            % (exp["euler_pairing"], paired))
    return problems


def cmd_corpus(args) -> int:
    if not args.run:
        print("error: corpus requires --run", file=sys.stderr)
        return 1
    cases = 0
    mismatches = 0
    try:
        sources = _corpus_sources(args.dir)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    for name, source in sources:
        cases += 1
        try:
            # a file that cannot be read or decoded fails its own case
            text = source.read_text(encoding="utf-8")
            sf = space_file_from_text(text, default_name=name)
            problems = _check_case(sf)
        except _LOAD_ERRORS as exc:
            problems = ["failed to run: %s" % exc]
        if problems:
            mismatches += 1
            print("%s: MISMATCH" % name)
            for p in problems:
                print("  %s" % p)
        else:
            print("%s: ok" % name)
    print("%d cases, %d mismatches" % (cases, mismatches))
    return 0 if mismatches == 0 else 1


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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
