"""render_json against json.dumps, which stays the reference for its bytes."""

from __future__ import annotations

import itertools
import json
import sys
from types import SimpleNamespace
from typing import Optional

import pytest

from acso import obstruct
from acso.cli import main
from acso.gradedring import Generator, GradedRing, RingPresentation
from acso.obstruct import (
    CandidateRecord,
    ChernCandidate,
    ObstructionReport,
    RecordColumns,
    SearchOutcome,
    Verdict,
    acs_verdict,
)
from acso.report import (
    REPORT_SCHEMA_VERSION,
    candidate_doc,
    exit_code,
    render_json,
)
from acso.spacefile import load_space_file, space_file_from_doc

from conftest import replace

# element_doc, verdict_doc and _report_head are copies of the dict
# builders that render_json replaced, so that the reference shares no
# code with the writer it checks.


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


def search_doc(search):
    """The search section of a report as a dict."""
    if search is None:
        return None
    records = []
    for r in search.records:
        records.append({
            "candidate": candidate_doc(r.candidate),
            "q": element_doc(r.q),
            "status": r.status,
            "pairing": None if r.pairing is None else str(r.pairing),
        })
    return {
        "bound": search.bound,
        "enumerated": search.enumerated,
        "admissible": search.admissible,
        "complete": search.complete,
        "no_lift_degree": search.no_lift_degree,
        "records": records,
        "vanishing": [candidate_doc(c) for c in search.vanishing],
    }


def report_doc(report, name=""):
    """The JSON report as a dict: the byte reference of render_json."""
    doc = _report_head(report, name)
    doc["search"] = search_doc(report.search)
    return doc


def reference_json(report, name):
    return json.dumps(report_doc(report, name), indent=2, sort_keys=True) + "\n"


def test_render_json_matches_json_dumps_on_corpus(corpus):
    for sf in corpus.values():
        report = acs_verdict(sf.bundle)
        assert render_json(report, sf.name) == reference_json(report, sf.name)


def test_render_json_matches_json_dumps_on_families(families):
    F = families
    base = F.cp_product([2, 2])
    bundles = [F.tangent_cp_product(ns) for ns in ([6], [2, 2], [1, 3])]
    bundles += [F.line_sum(base, vectors) for vectors in (
        [(1, 0), (0, 1), (1, 1)],
        [(1, 1), (1, -1), (2, 1)],
        [(1, 0), (0, 1), (1, -1), (0, 2)])]
    for i, bundle in enumerate(bundles):
        data = space_file_from_doc(F.space_doc("family%d" % i, bundle)).bundle
        for bound in range(4):
            report = acs_verdict(data, bound=bound)
            assert render_json(report, "family%d" % i) == \
                reference_json(report, "family%d" % i)


# quotes, backslashes, control characters, non-ASCII and an astral character
AWKWARD = 'say "hi" \\ back\nslash\x00\x1f café \U0001d538'


def test_render_json_matches_json_dumps_on_synthetic_reports(cp2):
    report = acs_verdict(cp2)
    search = replace(report.search, enumerated=2 ** 64 + 1)
    variants = [
        replace(report, gaps=(), notes=()),
        replace(report, notes=(AWKWARD, AWKWARD[::-1], ""),
                            gaps=(AWKWARD,)),
        replace(report, final=None, search=None, base_dimension=None),
        replace(report, search=search,
                            first=Verdict("Zero", None, None, AWKWARD)),
    ]
    for variant in variants:
        for name in ("", AWKWARD, "cp2"):
            assert render_json(variant, name) == reference_json(variant, name)
    doc = json.loads(render_json(variants[-1], AWKWARD))
    assert doc["search"]["enumerated"] == 2 ** 64 + 1
    assert doc["space"] == AWKWARD


@pytest.mark.parametrize("bad", [(1, 2), 1.5])
def test_render_json_refuses_types_outside_the_schema(cp2, bad):
    report = replace(acs_verdict(cp2), notes=(bad,))
    with pytest.raises(TypeError):
        render_json(report, "cp2")


@pytest.mark.parametrize("field, bad", [("rank", 4.0), ("base_dimension", "4")])
def test_render_json_refuses_a_non_integer_in_an_integer_field(cp2, field,
                                                               bad):
    report = replace(acs_verdict(cp2), **{field: bad})
    with pytest.raises(TypeError):
        render_json(report, "cp2")


# Synthetic searches for the one-pass search writer.  Every one holds
# elements with several terms whose monomial names sort differently from
# the basis (degree 4 of RING lists uv, b^2, a*b, a^2; degree 20 lists
# a^9*b before a^10), so a writer that kept basis order fails each test.
RING = GradedRing(RingPresentation(0, 20, (
    Generator("a", 2), Generator("b", 2), Generator("uv", 4))))
# degree 4 lists t^2, a*t, a^2; t has order 4
TORSION = GradedRing(RingPresentation(0, 4, (
    Generator("a", 2), Generator("t", 2, 4))))


def mixed(ring, degree, seed):
    # nonzero on every basis monomial, signs and sizes varying with seed
    n = len(ring.basis(degree))
    return ring.element(degree, [(-1) ** (i + seed) * (i + seed + 1)
                                 for i in range(n)])


def top(coeffs):
    # degree 20 of RING: a^9*b and a^10 are its last two basis monomials
    n = len(RING.basis(20))
    return RING.element(20, [0] * (n - len(coeffs)) + list(coeffs))


def synthetic(cp2, records, complete=False, no_lift_degree=None):
    return replace(acs_verdict(cp2), search=SearchOutcome(
        bound=3, rule="synthetic", enumerated=2 * len(records) + 1,
        records=tuple(records), no_lift_degree=no_lift_degree,
        complete=complete))


def record(classes, q, status="Zero", pairing=0):
    return CandidateRecord(ChernCandidate(classes), q, status, pairing)


def assert_matches_reference(report):
    for name in ("", "synthetic"):
        assert render_json(report, name) == reference_json(report, name)


def test_search_writer_sorts_candidate_keys_as_strings(cp2):
    shared = [mixed(RING, 4, i) for i in range(11)]
    records = [record(shared + [mixed(RING, 4, 11 + j)], top([j + 1, -2]),
                      status)
               for j, status in enumerate(["Zero", "NonZero", "Zero"])]
    report = synthetic(cp2, records)
    assert_matches_reference(report)
    text = render_json(report)
    assert text.index('"c10"') < text.index('"c11"') < text.index('"c2"')


def test_search_writer_writes_a_zero_class_as_empty_terms(cp2):
    zero = RING.zero(4)
    records = [record([zero, mixed(RING, 4, 1), zero], top([1, 1])),
               record([mixed(RING, 4, 2), zero, zero], top([3, 0]),
                      "NonZero")]
    report = synthetic(cp2, records)
    assert_matches_reference(report)
    candidate = report_doc(report)["search"]["vanishing"][0]
    assert candidate["c1"] == candidate["c3"] == {}


def test_search_writer_writes_q_zero_as_text_0(cp2):
    records = [record([mixed(RING, 4, 0)], RING.zero(20)),
               record([mixed(RING, 4, 1)], top([-1, 2]), "NonZero")]
    report = synthetic(cp2, records)
    assert_matches_reference(report)
    q = report_doc(report)["search"]["records"][0]["q"]
    assert (q["terms"], q["text"]) == ({}, "0")


def test_search_writer_writes_pairing_none_as_null(cp2):
    records = [record([mixed(RING, 4, 0)], top([2, 1]), "NonZero", None),
               record([mixed(RING, 4, 1)], top([1, -1]), "NonZero", -7),
               record([mixed(RING, 4, 2)], RING.zero(20), "Zero", None)]
    report = synthetic(cp2, records)
    assert_matches_reference(report)
    assert [r["pairing"] for r in report_doc(report)["search"]["records"]] \
        == [None, "-7", None]


def test_search_writer_writes_empty_records_and_vanishing(cp2):
    nonzero = [record([mixed(RING, 4, i)], top([i + 1, 1]), "NonZero")
               for i in range(2)]
    for records, complete, no_lift in ((nonzero, True, None),
                                       ((), False, None), ((), False, 4)):
        report = synthetic(cp2, records, complete=complete,
                           no_lift_degree=no_lift)
        assert_matches_reference(report)
        assert report_doc(report)["search"]["vanishing"] == []


def test_search_writer_on_a_ring_with_torsion(cp2):
    records = [record([mixed(TORSION, 4, i), mixed(TORSION, 2, i)],
                      mixed(TORSION, 4, 5 + i), status)
               for i, status in enumerate(["Zero", "NonZero"])]
    report = synthetic(cp2, records)
    assert_matches_reference(report)
    terms = report_doc(report)["search"]["vanishing"][0]["c1"]
    # basis order t^2, a*t, a^2 with coefficients 1, -2, 3; a*t has order 4
    assert terms == {"a*t": "2", "a^2": "3", "t^2": "1"}
    assert list(terms) == ["a*t", "a^2", "t^2"]


def test_search_writer_orders_terms_by_monomial_name(cp2):
    records = [record([mixed(RING, 4, 0)], top([5, -6])),
               record([mixed(RING, 4, 1)], top([-1, 1]), "NonZero")]
    report = synthetic(cp2, records)
    assert_matches_reference(report)
    q = report_doc(report)["search"]["records"][0]["q"]
    assert list(q["terms"]) == ["a^10", "a^9*b"]
    assert q["text"] == "5*a^9*b - 6*a^10"
    assert list(report_doc(report)["search"]["vanishing"][0]["c1"]) == \
        ["a*b", "a^2", "b^2", "uv"]


def test_search_writer_shares_a_q_under_different_statuses_and_pairings(cp2):
    # one q element in nine (status, pairing) pairs, each pair twice, and
    # a second element with the same coefficients
    q, x = top([2, -1]), mixed(RING, 4, 0)
    pairs = [(status, pairing) for status in ("Zero", "NonZero", "Inconclusive")
             for pairing in (None, 0, -3)]
    records = [record([x], q, status, pairing)
               for status, pairing in pairs + pairs[::-1]]
    records.append(record([x], top([2, -1]), "Zero", None))
    report = synthetic(cp2, records)
    assert_matches_reference(report)
    written = report_doc(report)["search"]["records"]
    assert [(r["status"], r["pairing"]) for r in written[:9]] == [
        (s, None if p is None else str(p)) for s, p in pairs]


def test_search_writer_places_one_element_at_two_positions(cp2):
    x, y = mixed(RING, 4, 3), mixed(RING, 4, 4)
    records = [record([x, y, x], top([1, 0])),
               record([y, x, x], top([1, 0]), "NonZero"),
               record([x, x, y], top([0, 1])),
               record([y, y, y], top([0, 1]))]
    report = synthetic(cp2, records)
    assert_matches_reference(report)
    candidates = report_doc(report)["search"]["vanishing"]
    terms = x.term_strings(), y.term_strings()
    assert [[c["c%d" % i] for i in (1, 2, 3)] for c in candidates] == [
        [terms[0], terms[1], terms[0]], [terms[0], terms[0], terms[1]],
        [terms[1], terms[1], terms[1]]]


def rows(piece):
    # records and vanishing candidates are the rows at indent 6
    return piece.count("\n      {")


@pytest.mark.parametrize("count", [1, 255, 256, 257, 511, 512, 513, 642])
def test_search_writer_writes_records_in_blocks(cp2, count):
    # four classes and four values of q shared by all records; every fifth
    # record is NonZero, so 642 records have 513 vanishing candidates
    classes = [mixed(RING, 4, i) for i in range(4)]
    qs = [top([j, 1]) for j in range(4)]
    records = [record([classes[i % 4], classes[i // 4 % 4]], qs[i % 3],
                      "NonZero" if i % 5 == 0 else "Zero",
                      i % 4 if i % 7 else None)
               for i in range(count)]
    report = synthetic(cp2, records)
    assert_matches_reference(report)
    pieces = []
    assert render_json(report, "synthetic", pieces.append) is None
    assert "".join(pieces) == render_json(report, "synthetic")
    assert all(rows(p) <= 256 for p in pieces)
    vanishing = len(report.search.vanishing)
    assert sum(map(rows, pieces)) == count + vanishing
    # pieces: the head, full blocks, the closing of each list, the middle
    # and the tail
    assert len(pieces) == 5 + -(-count // 256) + -(-vanishing // 256)


def run_records(count, size):
    """count records of size classes in runs that share all but the last
    class, of lengths 1, 2, 100, 200, 3, 1, 2, ..., so that runs cross
    the block edges; a class of size 1 leaves one run."""
    pool = [mixed(RING, 4, i) for i in range(6)]
    qs = [top([j, 1]) for j in range(3)] + [RING.zero(20)]
    lengths = itertools.cycle([1, 2, 100, 200, 3])
    records = []
    for run in itertools.count():
        head = [pool[(run + level) % 6] for level in range(size - 1)]
        for _ in range(next(lengths)):
            i = len(records)
            if i == count:
                return records
            records.append(record(head + [pool[i % 5]], qs[i % 4],
                                  "Zero" if i % 4 == 3 else "NonZero",
                                  i % 3 or None))


@pytest.mark.parametrize("count", [255, 256, 257, 513])
@pytest.mark.parametrize("size", [1, 2, 11])
def test_search_writer_walks_columns_run_by_run(cp2, count, size):
    # records as columns: one class (rank 4, an empty prefix), two, and
    # eleven, whose keys sort as c1, c10, c11, c2, ...
    records = run_records(count, size)
    columns = RecordColumns.of(tuple(records))
    heads = [tuple(map(id, r.candidate.classes[:-1])) for r in records]
    assert len(columns.starts) == 1 + sum(
        a != b for a, b in zip(heads, heads[1:]))
    if size > 1 and count > 256:  # a run holds records 255 and 256
        assert columns.run(255) == columns.run(256)
    assert columns == tuple(records) and hash(columns) == hash(tuple(records))
    report = synthetic(cp2, records)
    as_columns = replace(report, search=replace(report.search,
                                                records=columns))
    assert as_columns == report
    expected = reference_json(report, "synthetic")
    assert render_json(as_columns, "synthetic") == expected
    pieces = []
    render_json(as_columns, "synthetic", pieces.append)
    assert "".join(pieces) == expected
    vanishing = count // 4
    assert [rows(p) for p in pieces] == (
        [0] + [256] * (count // 256) + [count % 256] * (count % 256 > 0)
        + [0, 0] + [256] * (vanishing // 256)
        + [vanishing % 256] * (vanishing % 256 > 0) + [0, 0])


def test_check_writes_the_json_report_in_blocks(cp2_sums, tmp_path,
                                                monkeypatch):
    # 3 CP^2 # 3 reversed CP^2 at bound 3: 4,096 records in 16 blocks and
    # 384 vanishing candidates in two
    path = tmp_path / "cp2_sum.json"
    path.write_text(json.dumps(cp2_sums(3, 3)))
    sf = load_space_file(path)
    expected = reference_json(acs_verdict(sf.bundle, bound=3), sf.name)
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    assert main(["check", str(path), "--bound", "3", "--format", "json"]) == 0
    assert "".join(writes) == expected
    assert [rows(w) for w in writes] == [0] + [256] * 16 + [0, 0, 256, 128, 0, 0]


def test_each_report_lists_the_vanishing_records_in_one_pass(
        cp2_sums, tmp_path, monkeypatch, capsys):
    # the verdict, the vanishing candidates and the writer of either
    # format read the positions of the Zero records from one pass over
    # the q column of the 4,096 records, kept on the view
    path = tmp_path / "cp2_sum.json"
    path.write_text(json.dumps(cp2_sums(3, 3)))
    passes = []
    compress = obstruct.itertools.compress

    def counted(data, selectors):
        passes.append(len(data))
        return compress(data, selectors)

    monkeypatch.setattr(obstruct.itertools, "compress", counted)
    for form in ("text", "json"):
        passes.clear()
        assert main(["check", str(path), "--bound", "3", "--format",
                     form]) == 0
        assert passes == [4096], form
    assert "384 vanishing" in capsys.readouterr().out
