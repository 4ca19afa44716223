"""render_json against json.dumps, which stays the reference for its bytes."""

import dataclasses
import json

import pytest

from acso.obstruct import Verdict, acs_verdict
from acso.report import render_json, report_doc
from acso.spacefile import space_file_from_doc


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
    search = dataclasses.replace(report.search, enumerated=2 ** 64 + 1)
    variants = [
        dataclasses.replace(report, gaps=(), notes=()),
        dataclasses.replace(report, notes=(AWKWARD, AWKWARD[::-1], ""),
                            gaps=(AWKWARD,)),
        dataclasses.replace(report, final=None, final_rule=None,
                            search=None, base_dimension=None),
        dataclasses.replace(report, search=search,
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
    report = dataclasses.replace(acs_verdict(cp2), notes=(bad,))
    with pytest.raises(TypeError):
        render_json(report, "cp2")
