"""Rendering obstruction reports as JSON documents or terminal text.

The JSON form is byte-deterministic (sorted keys, fixed indentation,
coefficients as decimal strings); the text form is a compact summary that
names the classical result behind every row.

render_json prints exactly json.dumps(doc, indent=2, sort_keys=True) +
"\n", doc being the report as a dict (tests/test_report.py builds that
dict, report_doc, as the byte reference), without calling json.dumps,
which CPython runs in pure Python through one generator per container
when it indents.

render_json writes in one pass.  The search section, which holds one
record per admissible Chern candidate and so nearly all of a large
report, is written by _write_search straight from the SearchOutcome: its
keys come in a fixed sorted layout, a class's terms follow its ring's
basis_string_order, and the terms object of each candidate class is
written once per render and reused, since records share their
c_1..c_{n-2} element objects.  The rest of the report is small and goes
through _write_json, a recursive writer over the types of that dict
(dicts with str keys, lists, str, int, bool and None), which raises
TypeError on anything else.  Strings are escaped by the same
encode_basestring_ascii that json.dumps uses.
"""

from __future__ import annotations

import json
from typing import Optional

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


def element_doc(x) -> dict:
    return {"degree": x.degree,
            "terms": x.term_strings(),
            "text": str(x)}


def verdict_doc(v: Optional[Verdict]) -> Optional[dict]:
    if v is None:
        return None
    return {"status": v.status,
            "witness": None if v.witness is None else element_doc(v.witness),
            "denominator": None if v.denominator is None else str(v.denominator),
            "note": v.note}


def candidate_doc(cand: ChernCandidate) -> dict:
    return {"c%d" % i: ci.term_strings()
            for i, ci in enumerate(cand.classes, start=1)}


def _report_head(report: ObstructionReport, name: str) -> dict:
    # the report as a dict, its search section left None for the caller
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "space": name,
        "rank": report.rank,
        "base_dimension": report.base_dimension,
        "status": report.status,
        "existence": report.existence,
        "exit_code": exit_code(report),
        "sole_obstruction": report.sole_obstruction,
        "wu": [{"m": c.m, "status": c.status, "note": c.note}
               for c in report.wu_checks],
        "first": verdict_doc(report.first),
        "ehresmann_w7": verdict_doc(dict(report.theorem1).get(1)),
        "theorem1": [{"k": k, "degree": 4 * k + 3, **verdict_doc(v)}
                     for k, v in report.theorem1],
        "final": verdict_doc(report.final),
        "final_rule": report.final_rule,
        "search": None,
        "gaps": list(report.gaps),
        "notes": list(report.notes),
    }


_encode_str = json.encoder.encode_basestring_ascii


def _write_json(o, indent: str, out: list) -> None:
    if isinstance(o, str):
        out.append(_encode_str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(o):
            if not isinstance(key, str):
                raise TypeError("report keys must be str, not %s"
                                % type(key).__name__)
            out.append(sep + _encode_str(key) + ": ")
            _write_json(o[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(o, list):
        if not o:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in o:
            out.append(sep)
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(o, SearchOutcome):
        _write_search(o, indent, out)
    else:
        raise TypeError("a report holds no %s" % type(o).__name__)


def _join(items: list, indent: str, brackets: str) -> str:
    # written items or "key": value entries, laid out as _write_json lays
    # out a list ("[]") or a dict ("{}") at this indent
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return (brackets[0] + inner + ("," + inner).join(items)
            + "\n" + indent + brackets[1])


def _write_search(search: SearchOutcome, indent: str, out: list) -> None:
    """Write the search section as _write_json would write its dict.

    The dict is never built, and the entries of every object below are
    listed in sorted key order.
    """
    i1 = indent + "  "  # search entries
    i2 = i1 + "  "      # records and vanishing candidates
    i3 = i2 + "  "      # record entries
    tables: dict = {}   # (ring id, degree) -> ((index, '"name": "'), ...)
    keys: dict = {}     # class count -> ((i - 1, '"ci": '), ...)
    memo: dict = {}     # (element id, indent) -> terms object

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

    def candidate(cand: ChernCandidate, ind: str) -> str:
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
            text = memo.get((id(x), inner))
            if text is None:
                text = memo[id(x), inner] = terms(x, inner)
            entries.append(key + text)
        return _join(entries, ind, "{}")

    # one record's layout, its values left as %-placeholders
    record = _join([
        '"candidate": %s', '"pairing": %s',
        '"q": ' + _join(['"degree": %d', '"terms": %s', '"text": %s'],
                        i3, "{}"),
        '"status": %s'], i2, "{}")
    records = [record % (
        candidate(r.candidate, i3),
        "null" if r.pairing is None else _encode_str(str(r.pairing)),
        r.q.degree, terms(r.q, i3 + "  "), _encode_str(str(r.q)),
        _encode_str(r.verdict.status)) for r in search.records]
    no_lift = search.no_lift_degree
    out.append(_join([
        '"admissible": ' + int.__repr__(search.admissible),
        '"bound": ' + int.__repr__(search.bound),
        '"complete": ' + ("true" if search.complete else "false"),
        '"enumerated": ' + int.__repr__(search.enumerated),
        '"no_lift_degree": ' + ("null" if no_lift is None
                                else int.__repr__(no_lift)),
        '"records": ' + _join(records, i1, "[]"),
        '"vanishing": ' + _join([candidate(c, i2) for c in search.vanishing],
                                i1, "[]")], indent, "{}"))


def render_json(report: ObstructionReport, name: str = "") -> str:
    doc = _report_head(report, name)
    doc["search"] = report.search
    out: list = []
    _write_json(doc, "", out)
    out.append("\n")
    return "".join(out)


def _verdict_line(label: str, v: Verdict) -> str:
    parts = ["  [%s] %s" % (label, v.status)]
    if v.witness is not None and not v.witness.is_zero:
        parts.append("witness %s" % v.witness)
    if v.note:
        parts.append(v.note)
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
                               report.first))
    for k, v in report.theorem1:
        lines.append(_verdict_line(
            "degree %d, Massey Thm I, k=%d, l=%d"
            % (4 * k + 3, k, v.denominator), v))
    if report.final is not None:
        v = report.final
        prefix = "%s: " % report.final_rule
        if v.note.startswith(prefix):
            v = Verdict(v.status, v.witness, v.denominator,
                        v.note[len(prefix):])
        lines.append(_verdict_line("final, %s" % report.final_rule, v))
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
