"""Command line interface.

    acso check SPACE [--bound N] [--format text|json]
    acso lifts SPACE --class w2 [--bound N]
    acso table --pi N Q | --denominator K
    acso corpus --run [--dir PATH]

`check` exits 0 when no obstruction test fired, 2 when some obstruction
is provably nonzero, 3 when the only blockers are inconclusive tests, and
1 on input or usage errors, on candidate searches, counts of ring basis
pairs or confluence tests and lift counts larger than their caps, and on
data that passed validation yet breaks Massey's divisibility by 4.
`lifts` exits 1 on the same errors.  It writes the text of every lift,
one a line, built prefix by prefix from the coefficient ranges of each
parity solution (`lift_spreads`), with a bounded number of texts held
at once.  `corpus` exits nonzero when any bundled (or supplied) case
disagrees with its recorded expectations.

A well-formed command line is read by `_parse`; help, usage errors and
every command line it is not sure of go to the argparse parser of
`build_parser`, which is built, and `argparse` imported, only then.
"""

from __future__ import annotations

import heapq
import itertools
import sys
from types import SimpleNamespace

from .gradedring import RingError, leading, lift_spreads, term
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
# the most tail texts, and lines, that the writer of `acso lifts` builds
# at once for one spread, whatever the bound or the length of an axis
_TAIL_TEXTS = 4096

_LOAD_ERRORS = (SpaceFileError, DataValidationError, RingError, OSError,
                ValueError, BudgetExceeded, DivisibilityViolation)


def cmd_check(args) -> int:
    try:
        sf = load_space_file(args.space)
        report = acs_verdict(sf.bundle, bound=args.bound)
    except _LOAD_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.format == "json":
        render_json(report, sf.name, sys.stdout.write)
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
        spreads = lift_spreads(data.rings, data.w_class(i), args.bound)
        if spreads is None:
            msg = "no integral lift"
            if i % 2 == 0 and i + 1 <= data.cutoff \
                    and not integral_sw(data, i // 2).is_zero:
                msg = "no integral lift (W%d != 0)" % (i + 1)
            print(msg)
            return 0
        lines = _lift_lines(data.rings.integral.basis_strings(i), spreads)
        while True:
            block = list(itertools.islice(lines, _BLOCK_LINES))
            if not block:
                break
            sys.stdout.write("\n".join(block) + "\n")
    except _LOAD_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


def _lift_lines(names, spreads):
    """The text of every lift, one a line, in lexicographic order of the
    coefficient tuples: str() of each element of integral_lifts.

    A single spread's lines come straight from _spread_lines; several are
    merged on their coefficient tuples, which are distinct, so no two
    lines are ever compared.
    """
    lines = [itertools.chain.from_iterable(_spread_lines(names, axes))
             for axes in spreads]
    if len(lines) == 1:
        return lines[0]
    merged = heapq.merge(*(zip(itertools.product(*axes), spread)
                           for axes, spread in zip(spreads, lines)))
    return (line for _, line in merged)


def _spread_lines(names, axes):
    """The lines of one spread, in order, in lists of at most _TAIL_TEXTS.

    The tail is the last axes whose product has at most _TAIL_TEXTS
    tuples.  Its texts are built once, term text by term text, and each
    prefix of the other axes gets its own text followed by every tail
    text: the texts the line of (prefix, tail tuple) is joined from.  The
    prefix whose coefficients are all 0, at most one per spread, takes
    the tail texts as whole lines instead, with "0" for the zero lift.
    When the last axis alone is longer, it is the tail, and its texts are
    built per prefix in slices of _TAIL_TEXTS values.
    """
    k, size = len(axes), 1
    while k and size * len(axes[k - 1]) <= _TAIL_TEXTS:
        k -= 1
        size *= len(axes[k])
    if axes and k == len(axes):
        k -= 1
        last = axes[k]
        pieces = [[last[start:start + _TAIL_TEXTS]]
                  for start in range(0, len(last), _TAIL_TEXTS)]
    else:
        pieces = [axes[k:]]
    kept: dict = {}  # whole -> texts of the tail, when it is one piece
    for prefix in itertools.product(*axes[:k]):
        head = ""
        for j, c in enumerate(prefix):
            if c:
                t = term(names[j], c)
                head = head + t if head else leading(t)
        for piece in pieces:
            tails = kept.get(not head)
            if tails is None:
                tails = _tail_texts(names, k, piece, not head)
                if len(pieces) == 1:
                    kept[not head] = tails
            yield [head + t for t in tails] if head else tails


def _tail_texts(names, first, axes, whole):
    """The text of each tuple of the product of axes, over the names from
    index first on, in order: as it follows a nonzero prefix, or with
    whole as a line of its own, where the first term has no joining sign
    and a tuple of zeros reads "0"."""
    texts = [""]
    for name, axis in zip(names[first:], axes):
        terms = [term(name, c) if c else "" for c in axis]
        if whole:
            firsts = [leading(t) if t else "" for t in terms]
            texts = [s + t if s else f for s in texts
                     for t, f in zip(terms, firsts)]
        else:
            texts = [s + t for s in texts for t in terms]
    if whole:
        texts = [s or "0" for s in texts]
    return texts


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


def build_parser():
    # imported here, not at the top: argparse and its gettext cost more
    # than a small `acso check`, and only help and usage errors need them
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits 2 on usage errors; 2 is taken by "obstructed"
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, "%s: error: %s\n" % (self.prog, message))

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


def _format(token):
    if token not in ("text", "json"):
        raise ValueError(token)
    return token


def _pi(n, q):
    return [int(n), int(q)]


def _flag():
    return True


# The grammar of `build_parser`, as `_parse` reads it.  Per command: its
# function, the name of its one positional argument (None for none), its
# options as {option: (name, number of values, conversion of the values)},
# the defaults of the names a command line may leave out, and the names
# of which a command line gives exactly one (empty for no such rule).
_GRAMMAR = {
    "check": (cmd_check, "space",
              {"--bound": ("bound", 1, int),
               "--format": ("format", 1, _format)},
              {"bound": 10, "format": "text"}, ()),
    "lifts": (cmd_lifts, "space",
              {"--class": ("klass", 1, str), "--bound": ("bound", 1, int)},
              {"bound": 10}, ("klass",)),
    "table": (cmd_table, None,
              {"--pi": ("pi", 2, _pi),
               "--denominator": ("denominator", 1, int)},
              {"pi": None, "denominator": None}, ("pi", "denominator")),
    "corpus": (cmd_corpus, None,
               {"--run": ("run", 0, _flag), "--dir": ("dir", 1, str)},
               {"run": False, "dir": None}, ()),
}


def _parse(argv):
    """The attributes argparse sets for a well-formed command line, or None.

    None whenever argparse might answer otherwise: on help, an unknown
    command, a token starting with "-" that is not an option of the
    command (abbreviations, `--opt=value`, `--`), a value starting with
    "-", a value that does not convert, a missing, extra or repeated
    argument, and both or neither of `--pi` and `--denominator`.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    func, positional, options, defaults, one_of = _GRAMMAR[argv[0]]
    fields = {"command": argv[0], "func": func}
    i = 1
    while i < len(argv):
        token = argv[i]
        i += 1
        if not token.startswith("-"):
            if positional is None or positional in fields:
                return None
            fields[positional] = token
            continue
        if token not in options:
            return None
        name, count, convert = options[token]
        values = argv[i:i + count]
        i += count
        if name in fields or len(values) < count \
                or any(v.startswith("-") for v in values):
            return None
        try:
            fields[name] = convert(*values)
        except ValueError:
            return None
    if positional is not None and positional not in fields:
        return None
    if one_of and sum(name in fields for name in one_of) != 1:
        return None
    for name, value in defaults.items():
        fields.setdefault(name, value)
    return SimpleNamespace(**fields)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    if args is None:
        # help, usage errors and whatever _parse declines, in argparse's
        # own words and exit codes
        args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
