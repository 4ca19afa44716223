"""Rendering obstruction reports as JSON documents or terminal text.

The JSON form is byte-deterministic (sorted keys, fixed indentation,
coefficients as decimal strings); the text form is a compact summary that
names the classical result behind every row.

render_json prints exactly json.dumps(doc, indent=2, sort_keys=True) +
"\n", doc being the report as a dict (tests/test_report.py builds that
dict as the byte reference), without building the dict or calling
json.dumps, which CPython runs in pure Python through one generator per
container when it indents.

render_json is the one JSON writer, and it writes in one pass.  Every
object of the report is written as its "key": value entries, listed in
sorted key order and laid out by _join.  Strings go through the same
encode_basestring_ascii that json.dumps uses and integers through
int.__repr__, so a string or integer field that holds another type
raises TypeError.  A class's terms follow its ring's
basis_string_order.

The search section holds one record per admissible Chern candidate and
so nearly all of a large report.  Records share one element object per
lift and per value of q, so each "ci": entry is written once per
(element, position) and the rest of a record, its pairing, q object and
status, once per (q element, status, pairing); a record is then joined
from shared strings.  The records and the vanishing candidates are
joined in blocks of _BLOCK, and `acso check` writes the report piece by
piece, so it never holds the whole text.
"""

from __future__ import annotations

import itertools
import json

from .obstruct import (
    BundleData,
    ChernCandidate,
    ObstructionReport,
    SearchOutcome,
    Verdict,
)

REPORT_SCHEMA_VERSION = 1

_EXIT_BY_STATUS = {"clear": 0, "obstructed": 2, "inconclusive": 3}


def exit_code(report: ObstructionReport) -> int:
    return _EXIT_BY_STATUS[report.status]


def candidate_doc(cand: ChernCandidate) -> dict:
    return {"c%d" % i: ci.term_strings()
            for i, ci in enumerate(cand.classes, start=1)}


_encode_str = json.encoder.encode_basestring_ascii
_int = int.__repr__


def _join(items: list, indent: str, brackets: str) -> str:
    # written items or "key": value entries, laid out as json.dumps lays
    # out a list ("[]") or a dict ("{}") whose first line is at this indent
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return (brackets[0] + inner + ("," + inner).join(items)
            + "\n" + indent + brackets[1])


# records, or vanishing candidates, per piece of a JSON report
_BLOCK = 256
# stands in for a list that is written in pieces: every string of a report
# is written escaped, so no other "\0" occurs in it
_HOLE = "\0"


def render_json(report: ObstructionReport, name: str = "",
                write=None) -> str | None:
    """The JSON report; with `write`, it is passed to write in pieces, none
    holding more than _BLOCK records or vanishing candidates, and None is
    returned."""
    tables: dict = {}   # (ring id, degree) -> ((index, '"name": "'), ...)
    keys: dict = {}     # class count -> ((i - 1, '"ci": '), ...)

    def terms(x, ind: str) -> str:
        table = tables.get((id(x.ring), x.degree))
        if table is None:
            names = x.ring.basis_strings(x.degree)
            table = tables[id(x.ring), x.degree] = tuple(
                (i, _encode_str(names[i]) + ': "')
                for i in x.ring.basis_string_order(x.degree))
        coeffs = x.coeffs
        return _join([p + str(coeffs[i]) + '"' for i, p in table if coeffs[i]],
                     ind, "{}")

    def element(x, ind: str) -> str:
        return _join(['"degree": ' + _int(x.degree),
                      '"terms": ' + terms(x, ind + "  "),
                      '"text": ' + _encode_str(str(x))], ind, "{}")

    def verdict_entries(v: Verdict, ind: str) -> list:
        # the entries of a verdict object at this indent
        return ['"denominator": ' + ("null" if v.denominator is None
                                     else _encode_str(str(v.denominator))),
                '"note": ' + _encode_str(v.note),
                '"status": ' + _encode_str(v.status),
                '"witness": ' + ("null" if v.witness is None
                                 else element(v.witness, ind + "  "))]

    def verdict(v, ind: str) -> str:
        return "null" if v is None else _join(verdict_entries(v, ind), ind,
                                              "{}")

    def candidate(cand: ChernCandidate, ind: str, written: dict) -> str:
        # written keeps each "ci": entry by (element id, i): candidates
        # share one element per lift, and one element may sit at two i
        classes = cand.classes
        order = keys.get(len(classes))
        if order is None:
            order = keys[len(classes)] = tuple(
                (i - 1, '"c%d": ' % i)
                for i in sorted(range(1, len(classes) + 1), key="c{}".format))
        inner = ind + "  "
        entries = []
        for i, key in order:
            x = classes[i]
            entry = written.get((id(x), i))
            if entry is None:
                entry = written[id(x), i] = key + terms(x, inner)
            entries.append(entry)
        return _join(entries, ind, "{}")

    def records(search: SearchOutcome, ind: str):
        # each record joined from its candidate and the rest of it, which
        # is written once per (q element id, status, pairing)
        inner = ind + "  "
        sep = ",\n" + inner
        written: dict = {}
        rests: dict = {}
        for r in search.records:
            key = (id(r.q), r.status, r.pairing)
            rest = rests.get(key)
            if rest is None:
                rest = rests[key] = (
                    sep + '"pairing": ' + ("null" if r.pairing is None
                                           else _encode_str(str(r.pairing)))
                    + sep + '"q": ' + element(r.q, inner)
                    + sep + '"status": ' + _encode_str(r.status)
                    + "\n" + ind + "}")
            yield ("{\n" + inner + '"candidate": '
                   + candidate(r.candidate, inner, written) + rest)

    def blocks(items, ind: str):
        # the pieces of _join(list(items), ind, "[]"), _BLOCK items each
        inner = "\n" + ind + "  "
        first = opening = "[" + inner
        while True:
            block = list(itertools.islice(items, _BLOCK))
            if not block:
                break
            yield opening + ("," + inner).join(block)
            opening = "," + inner
        yield "[]" if opening == first else "\n" + ind + "]"

    def search_section(search: SearchOutcome, ind: str) -> str:
        no_lift = search.no_lift_degree
        return _join([
            '"admissible": ' + _int(search.admissible),
            '"bound": ' + _int(search.bound),
            '"complete": ' + ("true" if search.complete else "false"),
            '"enumerated": ' + _int(search.enumerated),
            '"no_lift_degree": ' + ("null" if no_lift is None
                                    else _int(no_lift)),
            '"records": ' + _HOLE, '"vanishing": ' + _HOLE], ind, "{}")

    i1, i2 = "  ", "    "  # report entries, and the rows of its lists
    theorem1 = []
    for k, v in report.theorem1:
        denominator, *rest = verdict_entries(v, i2)
        theorem1.append(_join(['"degree": ' + _int(4 * k + 3), denominator,
                               '"k": ' + _int(k)] + rest, i2, "{}"))
    wu = [_join(['"m": ' + _int(c.m), '"note": ' + _encode_str(c.note),
                 '"status": ' + _encode_str(c.status)], i2, "{}")
          for c in report.wu_checks]
    base, rule, search = (report.base_dimension, report.final_rule,
                          report.search)
    doc = _join([
        '"base_dimension": ' + ("null" if base is None else _int(base)),
        '"ehresmann_w7": ' + verdict(dict(report.theorem1).get(1), i1),
        '"existence": ' + _encode_str(report.existence),
        '"exit_code": ' + _int(exit_code(report)),
        '"final": ' + verdict(report.final, i1),
        '"final_rule": ' + ("null" if rule is None else _encode_str(rule)),
        '"first": ' + verdict(report.first, i1),
        '"gaps": ' + _join([_encode_str(g) for g in report.gaps], i1, "[]"),
        '"notes": ' + _join([_encode_str(n) for n in report.notes], i1, "[]"),
        '"rank": ' + _int(report.rank),
        '"schema_version": ' + _int(REPORT_SCHEMA_VERSION),
        '"search": ' + ("null" if search is None
                        else search_section(search, i1)),
        '"sole_obstruction": ' + ("true" if report.sole_obstruction
                                  else "false"),
        '"space": ' + _encode_str(name),
        '"status": ' + _encode_str(report.status),
        '"theorem1": ' + _join(theorem1, i1, "[]"),
        '"wu": ' + _join(wu, i1, "[]")], "", "{}") + "\n"
    if search is None:
        pieces = [doc]
    else:
        # the lists of the search entries (at i2) hold rows at i3
        i3 = i2 + "  "
        head, middle, tail = doc.split(_HOLE)
        written: dict = {}
        pieces = itertools.chain(
            [head], blocks(records(search, i3), i2), [middle],
            blocks((candidate(c, i3, written) for c in search.vanishing), i2),
            [tail])
    if write is None:
        return "".join(pieces)
    for piece in pieces:
        write(piece)
    return None


def _verdict_line(label: str, v: Verdict, note: str) -> str:
    parts = ["  [%s] %s" % (label, v.status)]
    if v.witness is not None and not v.witness.is_zero:
        parts.append("witness %s" % v.witness)
    if note:
        parts.append(note)
    return " -- ".join(parts)


def _candidate_text(cand: ChernCandidate) -> str:
    return ", ".join("c%d = %s" % (i, ci)
                     for i, ci in enumerate(cand.classes, start=1)) or "(none)"


def render_text(report: ObstructionReport, name: str = "") -> str:
    lines = []
    lines.append("almost complex structure report%s"
                 % (" for %s" % name if name else ""))
    dim = ("unknown" if report.base_dimension is None
           else str(report.base_dimension))
    lines.append("rank %d, base dimension %s" % (report.rank, dim))
    lines.append("status: %s (exit %d), existence: %s"
                 % (report.status, exit_code(report), report.existence))
    if report.wu_checks:
        bits = ["m=%d %s" % (c.m, c.status) for c in report.wu_checks]
        lines.append("Wu formula checks: " + ", ".join(bits))
    lines.append("obstructions:")
    lines.append(_verdict_line("degree 3, Ehresmann W3 = beta(w2)",
                               report.first, report.first.note))
    for k, v in report.theorem1:
        lines.append(_verdict_line(
            "degree %d, Massey Thm I, k=%d, l=%d"
            % (4 * k + 3, k, v.denominator), v, v.note))
    if report.final is not None:
        v, rule = report.final, report.final_rule
        lines.append(_verdict_line("final, %s" % rule, v,
                                   v.note.removeprefix(rule + ": ")))
    search = report.search
    if search is not None:
        if search.no_lift_degree is not None:
            lines.append("search: w%d admits no integral lift"
                         % search.no_lift_degree)
        else:
            lines.append("search: bound %d, %d enumerated, %d admissible, "
                         "%d vanishing"
                         % (search.bound, search.enumerated, search.admissible,
                            len(search.vanishing)))
        for cand in search.vanishing:
            lines.append("  vanishing candidate: %s" % _candidate_text(cand))
    if report.gaps:
        lines.append("gaps:")
        for g in report.gaps:
            lines.append("  - %s" % g)
    if report.notes:
        lines.append("notes:")
        for n in report.notes:
            lines.append("  - %s" % n)
    return "\n".join(lines) + "\n"


def wu_pairing_table(data: BundleData, search: SearchOutcome) -> dict:
    """Map each rank-4 candidate's c1 coefficient to the pairing of its q.

    Only meaningful when the degree-2 integral piece has a single basis
    element and the bundle carries a pairing in the final degree.
    """
    table = {}
    for r in search.records:
        c1 = r.candidate.classes[0]
        if len(c1.coeffs) != 1 or r.pairing is None:
            raise ValueError("pairing table needs a 1-dimensional degree-2 "
                             "piece and a fundamental pairing")
        table[str(c1.coeffs[0])] = str(r.pairing)
    return table
