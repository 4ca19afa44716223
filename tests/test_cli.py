"""Command line behavior: exit codes, output shapes, determinism."""

import itertools
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

from acso import cli, gradedring
from acso.cli import main
from acso.gradedring import integral_lifts
from acso.obstruct import DivisibilityViolation
from acso.spacefile import load_space_file

from conftest import CORPUS_DIR, DATA_DIR

SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check ---------------------------------------------------------------


def test_check_exit_codes(capsys):
    expected = {
        "cp2": 0, "cp2bar": 2, "hp2": 0, "s4": 2, "s6": 0,
        "s2xs4": 0, "s8": 2, "s8_rank6": 2, "s1xwu": 2,
    }
    for name, want in expected.items():
        code, out, _ = run(capsys, "check", str(CORPUS_DIR / ("%s.json" % name)))
        assert code == want, name
        assert name in out


def test_check_text_report_content(capsys):
    code, out, _ = run(capsys, "check", str(CORPUS_DIR / "cp2.json"))
    assert code == 0
    assert "almost complex structure report for cp2" in out
    assert "rank 4" in out
    assert "c1 = -3*a" in out and "c1 = 3*a" in out
    code, out, _ = run(capsys, "check", str(CORPUS_DIR / "s1xwu.json"))
    assert code == 2
    assert "beta(w2)" in out


def test_check_json_report(capsys):
    code, out, _ = run(capsys, "check", str(CORPUS_DIR / "hp2.json"),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["space"] == "hp2"
    assert doc["status"] == "clear"
    assert doc["existence"] == "undetermined"
    assert doc["exit_code"] == 0
    assert "Z/2 component" in doc["final"]["note"]
    assert doc["search"]["enumerated"] == 10


def test_check_missing_file(capsys):
    code, out, err = run(capsys, "check", str(DATA_DIR / "nope.json"))
    assert code == 1
    assert "error" in err


def test_check_invalid_data(capsys):
    code, _, err = run(capsys, "check", str(DATA_DIR / "bad_reduction.json"))
    assert code == 1
    assert "rho2(p1)" in err


def test_check_inconclusive_exits_three(tmp_path, capsys):
    # a single order-2 class in degree 11 meets the k=2 row of Theorem I:
    # its multiplier 24 kills the torsion, so nothing is decided
    doc = {
        "schema_version": 1,
        "name": "torsion-top",
        "rings": {
            "integral": {"cutoff": 12, "relations": [],
                         "generators": [{"name": "tau", "degree": 11, "order": 2}]},
            "mod2": {"cutoff": 12, "relations": [],
                     "generators": [{"name": "taub", "degree": 11}]},
            "mod4": {"cutoff": 12, "relations": [],
                     "generators": [{"name": "tau4", "degree": 11, "order": 2}]},
        },
        "maps": {
            "rho2": {"0": [["1"]], "11": [["1"]]},
            "rho4": {"0": [["1"]], "11": [["1"]]},
            "theta2": {"0": [["2"]]},
            "rho24": {"0": [["1"]], "11": [["1"]]},
            "beta": {},
        },
        "bundle": {"rank": 12, "base_dimension": 11,
                   "w": {}, "p": {}, "euler": {}},
    }
    path = tmp_path / "torsion_top.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 3
    assert "inconclusive" in out


def test_check_candidate_cap_is_an_error(tmp_path, capsys):
    # T(CP^1 x CP^3): c2 is solved, so the work is predicted from the
    # lifts of w2 and w6, 41^2 each at --bound 40; 1681^2 is past the cap
    # of 10^6, and the search stops before any candidate is built
    doc = {
        "schema_version": 1,
        "name": "t_cp1xcp3",
        "rings": {"shared": {
            "cutoff": 8,
            "generators": [{"name": "a", "degree": 2},
                           {"name": "b", "degree": 2}],
            "relations": [{"lhs": "a^2", "rhs": {}},
                          {"lhs": "b^4", "rhs": {}}],
        }},
        "bundle": {"rank": 8, "base_dimension": 8, "w": {},
                   "p": {"1": {"b^2": "4"}}, "euler": {"a*b^3": "8"},
                   "pairing": {"degree": 8, "values": {"a*b^3": "1"}}},
    }
    path = tmp_path / "t_cp1xcp3.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(path), "--bound", "40")
    assert code == 1
    assert out == ""
    assert err.startswith("error: candidate enumeration exceeded the cap")
    assert "Traceback" not in err


def _drop(doc, path):
    *parents, key = path
    for step in parents:
        doc = doc[step]
    del doc[key]


@pytest.mark.parametrize("corpus_file, path", [
    ("cp2", ("rings", "shared", "generators", 0, "name")),
    ("cp2", ("rings", "shared", "generators", 0, "degree")),
    ("cp2", ("rings", "shared", "relations", 0, "lhs")),
    ("cp2", ("rings", "shared", "cutoff")),
    ("cp2", ("rings", "shared", "generators")),
    ("cp2", ("bundle", "rank")),
    ("cp2", ("bundle", "euler")),
    ("s1xwu", ("rings", "integral")),
    ("s1xwu", ("rings", "mod2")),
    ("s1xwu", ("rings", "mod4")),
])
def test_check_missing_key_is_one_error_line(corpus_file, path, tmp_path,
                                             capsys):
    doc = json.loads((CORPUS_DIR / ("%s.json" % corpus_file)).read_text())
    _drop(doc, path)
    space = tmp_path / "missing.json"
    space.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(space))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is missing %r" % path[-1] in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["generators", "relations"])
def test_check_non_list_section_is_one_error_line(key, tmp_path, capsys):
    doc = json.loads((CORPUS_DIR / "cp2.json").read_text())
    doc["rings"]["shared"][key] = 5
    space = tmp_path / "not_a_list.json"
    space.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(space))
    assert code == 1
    assert out == ""
    assert err == "error: rings.shared.%s must be a list\n" % key


def test_check_oversized_product_table_is_refused_at_once(tmp_path, capsys):
    # T^12 has 4,096 basis monomials, and its product table would hold
    # about 9.6M entries: refused from the basis sizes alone
    n = 12
    doc = {
        "schema_version": 1,
        "name": "t12",
        "rings": {"shared": {
            "cutoff": n,
            "generators": [{"name": "t%d" % i, "degree": 1}
                           for i in range(1, n + 1)],
            "relations": [{"lhs": "t%d^2" % i, "rhs": {}}
                          for i in range(1, n + 1)],
        }},
        "bundle": {"rank": 2, "w": {}, "p": {}, "euler": {}},
    }
    path = tmp_path / "t12.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "check", str(path))
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert err.startswith("error: product table of ")
    assert err.endswith(" entries exceeds the cap 1000000\n")


def _free_degree_two(cutoff):
    return {
        "schema_version": 1,
        "name": "abc",
        "rings": {"shared": {
            "cutoff": cutoff,
            "generators": [{"name": n, "degree": 2} for n in "abc"],
            "relations": [],
        }},
        "bundle": {"rank": 2, "w": {}, "p": {}, "euler": {}},
    }


def _cp2_cutoff(cutoff):
    doc = json.loads((CORPUS_DIR / "cp2.json").read_text())
    doc["rings"]["shared"]["cutoff"] = cutoff
    return doc


@pytest.mark.parametrize("doc, message", [
    # 10^4 and 10^30: refused from the cutoff, before any allocation
    (_cp2_cutoff(10 ** 4), "error: cutoff 10000 gives 50015001 degree pairs, "
                           "more than the cap 1000000\n"),
    (_cp2_cutoff(10 ** 30), "error: cutoff %d gives %d degree pairs, more "
                            "than the cap 1000000\n"
     % (10 ** 30, (10 ** 30 + 1) * (10 ** 30 + 2) // 2)),
    # three free degree-2 generators: the monomials in the first two alone
    # already give a table over the cap
    (_free_degree_two(400), "error: product table of at least 70058751 "
                            "entries exceeds the cap 1000000\n"),
    (_free_degree_two(800), "error: product table of at least 1093567501 "
                            "entries exceeds the cap 1000000\n"),
], ids=["cp2_cutoff_1e4", "cp2_cutoff_1e30", "free_cutoff_400",
        "free_cutoff_800"])
def test_check_oversized_ring_is_refused_before_enumeration(
        doc, message, tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "check", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (1, "", message)


def test_check_confluence_work_is_refused_before_any_comparison(
        monkeypatch, tmp_path, capsys):
    # 14 degree-2 generators, cutoff 12, g_i g_j -> 0 (i < j), g_i^2 -> g_0^2
    # (i >= 1) and g_0^3 -> 0: 16 basis monomials, but the 13 rules with a
    # right-hand side have tens of thousands of multiples, each to be
    # tested against all 105 rules
    n = 14
    names = ["g%d" % i for i in range(n)]
    relations = [{"lhs": "%s*%s" % (a, b), "rhs": {}}
                 for a, b in itertools.combinations(names, 2)]
    relations += [{"lhs": "%s^2" % g, "rhs": {"g0^2": "1"}}
                  for g in names[1:]]
    relations.append({"lhs": "g0^3", "rhs": {}})
    doc = {"schema_version": 1, "name": "squares",
           "rings": {"shared": {
               "cutoff": 12,
               "generators": [{"name": g, "degree": 2} for g in names],
               "relations": relations}},
           "bundle": {"rank": 2, "w": {}, "p": {}, "euler": {}}}
    path = tmp_path / "squares.json"
    path.write_text(json.dumps(doc))

    def compared(*args):
        raise AssertionError("a normal form was computed")

    monkeypatch.setattr(gradedring.GradedRing, "_normal_form", compared)
    start = time.perf_counter()
    code, out, err = run(capsys, "check", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (
        1, "", "error: confluence check of more than 9523 multiples by 105 "
               "rules exceeds the cap 1000000\n")


def test_check_huge_base_dimension_is_one_gap(tmp_path, capsys):
    doc = json.loads((CORPUS_DIR / "s4.json").read_text())
    cutoff = doc["rings"]["shared"]["cutoff"]
    doc["bundle"]["base_dimension"] = 10 ** 30
    path = tmp_path / "s4_huge_dim.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", str(path), "--format", "json")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(out)["gaps"] == [
        "degrees %d to %d lie above the top covered degree"
        % (cutoff + 1, 10 ** 30)]


def test_check_bounded_search_is_not_proof(families, tmp_path, capsys):
    # complex manifolds whose own Chern classes lie outside the bound: every
    # candidate within it is nonzero, which proves nothing beyond it
    for name, ns, bound in (("t_cp1xcp3", [1, 3], 3), ("t_cp6", [6], 6)):
        doc = families.space_doc(name, families.tangent_cp_product(ns))
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", str(path), "--bound", str(bound))
        assert code == 3, name
        assert "existence: undetermined" in out
        assert "every candidate within bound %d" % bound in out


def test_check_s2xs2_indefinite_form(tmp_path, capsys):
    # T(S^2 x S^2): c1 = 2a + 2b lies outside bound 1, where c1 = 0 is the
    # only candidate (q = 8ab); <c1^2> = 2xy is indefinite, so no certificate
    doc = {
        "schema_version": 1,
        "name": "t_s2xs2",
        "rings": {"shared": {
            "cutoff": 4,
            "generators": [{"name": "a", "degree": 2},
                           {"name": "b", "degree": 2}],
            "relations": [{"lhs": "a^2", "rhs": {}}, {"lhs": "b^2", "rhs": {}}],
        }},
        "bundle": {"rank": 4, "base_dimension": 4, "w": {}, "p": {},
                   "euler": {"a*b": "4"},
                   "pairing": {"degree": 4, "values": {"a*b": "1"}}},
    }
    path = tmp_path / "t_s2xs2.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(path), "--bound", "1")
    assert code == 3
    assert "status: inconclusive" in out
    code, out, _ = run(capsys, "check", str(path), "--bound", "2")
    assert code == 0
    assert "vanishing candidate: c1 = 2*b + 2*a" in out


def test_check_cp2bar_excluded_at_every_bound(capsys):
    for bound in ("0", "1", "10"):
        code, out, _ = run(capsys, "check", str(CORPUS_DIR / "cp2bar.json"),
                           "--bound", bound)
        assert code == 2, bound
        assert "existence: excluded" in out
        assert "negative definite" in out


def test_check_theorem1_fires_and_w6_has_no_lift(capsys):
    # y of degree 7 and order 2 is beta(w6), so W7 = y != 0, and w6 = u
    # has no integral lift, which decides the final degree as well
    path = str(DATA_DIR / "thm1_w7.json")
    code, out, err = run(capsys, "check", path, "--format", "json")
    assert (code, err) == (2, "")
    doc = json.loads(out)
    assert (doc["status"], doc["existence"], doc["exit_code"]) == \
        ("obstructed", "excluded", 2)
    assert doc["first"]["status"] == "Zero"
    [w7] = doc["theorem1"]
    assert (w7["k"], w7["degree"], w7["denominator"], w7["status"]) == \
        (1, 7, "1", "NonZero")
    assert w7["witness"]["terms"] == {"y": "1"}
    assert doc["final"]["status"] == "NonZero"
    assert doc["final"]["witness"]["terms"] == {"y": "1"}
    assert doc["final"]["note"] == (
        "Massey Theorem II (rank 8, k=2): w6 admits no integral lift, so no "
        "reduction reaches this degree")
    assert doc["search"]["no_lift_degree"] == 6
    code, out, err = run(capsys, "check", path)
    assert (code, err) == (2, "")
    lines = out.splitlines()
    assert "status: obstructed (exit 2), existence: excluded" in lines
    assert "  [degree 7, Massey Thm I, k=1, l=1] NonZero -- witness y -- W7 = " \
        "l*o with l = 1 is nonzero, so o != 0" in lines
    assert "  [final, Massey Theorem II (rank 8, k=2)] NonZero -- witness y " \
        "-- w6 admits no integral lift, so no reduction reaches this " \
        "degree" in lines
    assert "search: w6 admits no integral lift" in lines


def test_check_divisibility_violation_is_an_error(monkeypatch, capsys):
    def violate(*args, **kwargs):
        raise DivisibilityViolation("q = 2*a^2 is not divisible by 4")

    monkeypatch.setattr("acso.cli.acs_verdict", violate)
    code, out, err = run(capsys, "check", str(CORPUS_DIR / "cp2.json"))
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: q = 2*a^2 is not divisible by 4"]


# -- lifts ---------------------------------------------------------------


def test_lifts_enumerates_odd_multiples(capsys):
    code, out, _ = run(capsys, "lifts", str(CORPUS_DIR / "cp2.json"),
                       "--class", "w2")
    assert code == 0
    assert out.splitlines() == [
        "-9*a", "-7*a", "-5*a", "-3*a", "-a", "a", "3*a", "5*a", "7*a", "9*a"]


def test_lifts_bound_flag(capsys):
    code, out, _ = run(capsys, "lifts", str(CORPUS_DIR / "cp2.json"),
                       "--class", "w2", "--bound", "3")
    assert out.splitlines() == ["-3*a", "-a", "a", "3*a"]


def test_lifts_reports_proven_failure(capsys):
    # the message is all of stdout, at any bound
    assert run(capsys, "lifts", str(CORPUS_DIR / "s1xwu.json"),
               "--class", "w2") == (0, "no integral lift (W3 != 0)\n", "")
    assert run(capsys, "lifts", str(DATA_DIR / "thm1_w7.json"), "--class",
               "w6", "--bound", "0") == (0, "no integral lift (W7 != 0)\n",
                                         "")


def test_lifts_torsion_class(capsys):
    code, out, _ = run(capsys, "lifts", str(CORPUS_DIR / "s1xwu.json"),
                       "--class", "w3")
    assert code == 0
    assert out.strip() == "c"


def test_lifts_rejects_bad_class_name(capsys):
    code, _, err = run(capsys, "lifts", str(CORPUS_DIR / "cp2.json"),
                       "--class", "v2")
    assert code == 1
    assert "--class" in err


@pytest.mark.parametrize("klass", ["w\u00b2", "w\u0662", "w2\u00b2", "w"])
def test_lifts_rejects_class_digits_that_are_not_ascii(klass, capsys):
    # "w²" passes str.isdigit() but int() refuses it, and int() reads
    # "w٢" (Arabic-Indic two) as w2: neither is a class name
    assert run(capsys, "lifts", str(CORPUS_DIR / "cp2.json"),
               "--class", klass) == (
        1, "", "error: --class must look like w2, w4, ...\n")


def test_lifts_rejects_degree_beyond_cutoff(capsys):
    code, _, err = run(capsys, "lifts", str(CORPUS_DIR / "cp2.json"),
                       "--class", "w10")
    assert code == 1
    assert "cutoff" in err


def test_lifts_count_is_capped_before_expansion(families, tmp_path, capsys):
    # even line bundles over (S^2)^4: w4 = 0, and every lift has six free
    # degree-4 coordinates of one parity, so --bound B gives (B + 1)^6
    # lifts when B is even
    even = [[2 if j == i else 0 for j in range(4)] for i in range(4)]
    doc = families.space_doc(
        "s2x4_even", families.line_sum(families.sphere_product(4), even))
    path = tmp_path / "s2x4_even.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "lifts", str(path), "--class", "w4",
                       "--bound", "6")
    assert code == 0
    assert len(out.splitlines()) == 7 ** 6
    start = time.perf_counter()
    code, out, err = run(capsys, "lifts", str(path), "--class", "w4",
                         "--bound", "10")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert err == "error: %d lifts in degree 4 exceed the cap 1000000\n" \
        % 11 ** 6


def lift_lines(path, i, bound):
    """The text `acso lifts` must print: str() of each lift, one a line."""
    data = load_space_file(path).bundle
    return "".join(str(x) + "\n" for x in
                   integral_lifts(data.rings, data.w_class(i), bound).lifts)


def kernel_space(tmp_path):
    """H^2 free of rank 3, rho2 with rows a0 + a1 and a1 + a2, w2 = b0.

    (1, 1, 1) spans the F2 kernel of rho2, so the lifts of w2 come from
    two parity solutions whose spreads are merged; at bound 0 there are
    none.  No corpus or benchmark file has a nonempty kernel.
    """
    def ring(prefix, n):
        return {"cutoff": 2, "generators": [
            {"name": "%s%d" % (prefix, k), "degree": 2} for k in range(n)]}
    rho = {"0": [["1"]], "2": [["1", "1", "0"], ["0", "1", "1"]]}
    doc = {"schema_version": 1, "name": "kernel",
           "rings": {"integral": ring("a", 3), "mod2": ring("b", 2),
                     "mod4": ring("c", 2)},
           "maps": {"rho2": rho, "rho4": rho,
                    "theta2": {"0": [["2"]], "2": [["2", "0"], ["0", "2"]]},
                    "rho24": {"0": [["1"]], "2": [["1", "0"], ["0", "1"]]},
                    "beta": {}},
           "bundle": {"rank": 2, "base_dimension": 2, "w": {"2": {"b0": "1"}},
                      "p": {}, "euler": {"a0": "1"}}}
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(doc))
    return path


def test_lifts_writes_the_text_of_every_lift(tmp_path, capsys):
    # lift counts around the block size: w4 of S^4 is 0 on a free
    # coordinate, so an odd bound B gives the B even values in [-B, B];
    # w2 of CP^2 gives the B + 1 odd ones
    block = cli._BLOCK_LINES
    s4, cp2 = CORPUS_DIR / "s4.json", CORPUS_DIR / "cp2.json"
    kernel = kernel_space(tmp_path)
    cases = [(kernel, 2, 0, 0), (s4, 4, 0, 1), (s4, 4, 1, 1),
             (s4, 4, block - 1, block - 1), (cp2, 2, block - 1, block),
             (s4, 4, block + 1, block + 1),
             (s4, 4, 2 * block + 1, 2 * block + 1),
             (kernel, 2, 1, 6), (kernel, 2, 3, 4 * 3 * 3 + 3 * 4 * 4)]
    for path, i, bound, count in cases:
        code, out, err = run(capsys, "lifts", str(path), "--class",
                             "w%d" % i, "--bound", str(bound))
        assert (code, err) == (0, "")
        assert out == lift_lines(path, i, bound)
        assert out.count("\n") == count, (path.name, bound)
    # the zero lift prints 0, and the kernel's merged spreads stay sorted
    assert run(capsys, "lifts", str(s4), "--class", "w4",
               "--bound", "0")[1] == "0\n"
    _, out, _ = run(capsys, "lifts", str(kernel), "--class", "w2",
                    "--bound", "1")
    assert out.splitlines() == ["-a2 - a1", "-a2 + a1", "-a0", "a0",
                                "a2 - a1", "a2 + a1"]


def test_lifts_are_written_in_blocks(monkeypatch):
    writes = []

    class Stream:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr("sys.stdout", Stream())
    block = cli._BLOCK_LINES
    path = CORPUS_DIR / "s4.json"
    assert main(["lifts", str(path), "--class", "w4",
                 "--bound", str(2 * block + 1)]) == 0
    assert [w.count("\n") for w in writes] == [block, block, 1]
    assert "".join(writes) == lift_lines(path, 4, 2 * block + 1)


def test_lifts_memo_stays_at_its_cap(monkeypatch, capsys):
    # the 40,000 lifts of w2 over CP^2 at bound 40000 each have their own
    # coefficient; the memo of term texts stops at TEXT_MEMO_CAP of them
    memos = []

    def text(names, coeffs, memo=None):
        memos.append(memo)
        return gradedring.text(names, coeffs, memo)

    monkeypatch.setattr(cli, "text", text)
    path = CORPUS_DIR / "cp2.json"
    code, out, _ = run(capsys, "lifts", str(path), "--class", "w2",
                       "--bound", "40000")
    assert code == 0
    assert out == lift_lines(path, 2, 40000)
    assert len(memos) == 40000 and all(m is memos[0] for m in memos)
    assert len(memos[0]) == gradedring.TEXT_MEMO_CAP


@pytest.mark.parametrize("argv", [("check",), ("lifts", "--class", "w2")])
def test_lift_count_past_the_word_size_is_refused(argv, capsys):
    # 10^20 odd multiples of a lift w2 over CP^2: more values than len() of
    # a range can count
    bound = 10 ** 20
    code, out, err = run(capsys, argv[0], str(CORPUS_DIR / "cp2.json"),
                         *argv[1:], "--bound", str(bound))
    assert code == 1
    assert out == ""
    assert err == "error: %d lifts in degree 2 exceed the cap 1000000\n" \
        % bound


# -- table ---------------------------------------------------------------


def test_table_homotopy_groups(capsys):
    for argv, want in [
        (("table", "--pi", "4", "7"), "Z + Z/2"),
        (("table", "--pi", "5", "9"), "Z/24"),
        (("table", "--pi", "6", "11"), "Z"),
        (("table", "--pi", "7", "13"), "Z/360"),
        (("table", "--pi", "5", "6"), "Z"),
        (("table", "--pi", "3", "5"), "0"),
    ]:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.strip() == want


def test_table_denominators(capsys):
    for k, want in [(1, "1"), (2, "24"), (3, "360")]:
        code, out, _ = run(capsys, "table", "--denominator", str(k))
        assert code == 0
        assert out.strip() == want


def test_table_range_errors(capsys):
    code, _, err = run(capsys, "table", "--pi", "4", "9")
    assert code == 1
    assert "error" in err
    code, _, err = run(capsys, "table", "--denominator", "0")
    assert code == 1


@pytest.mark.parametrize("argv, factorial", [
    (("--denominator", "2000000"), 4000000),
    (("--denominator", "1500"), 3000),
    (("--pi", "3001", "6001"), 3000),
])
def test_table_refuses_factorials_above_the_cap(argv, factorial, capsys):
    # 3000! has 9,131 digits, more than Python 3.11+ converts to a string
    start = time.perf_counter()
    code, out, err = run(capsys, "table", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == "error: %d! exceeds the factorial cap 1000!\n" % factorial


def test_table_prints_up_to_the_cap(capsys):
    code, out, _ = run(capsys, "table", "--denominator", "500")
    assert code == 0
    assert int(out) == math.factorial(1000)
    # stable degrees need no factorial, however large N is
    code, out, _ = run(capsys, "table", "--pi", "1000000000", "7")
    assert (code, out) == (0, "Z/2\n")


# -- corpus ---------------------------------------------------------------


def test_corpus_run_is_green_and_deterministic(capsys):
    code, first, _ = run(capsys, "corpus", "--run")
    assert code == 0
    assert first.strip().endswith("9 cases, 0 mismatches")
    assert first.count(": ok") == 9
    code, second, _ = run(capsys, "corpus", "--run")
    assert first == second


def test_corpus_requires_run_flag(capsys):
    code, _, err = run(capsys, "corpus")
    assert code == 1
    assert "--run" in err


def test_corpus_flags_mismatches(tmp_path, capsys):
    shutil.copy(DATA_DIR / "corrupted.json", tmp_path / "corrupted.json")
    code, out, _ = run(capsys, "corpus", "--run", "--dir", str(tmp_path))
    assert code == 1
    assert "corrupted: MISMATCH" in out
    assert "euler_pairing" in out
    assert "1 cases, 1 mismatches" in out


def test_corpus_flags_broken_files(tmp_path, capsys):
    shutil.copy(DATA_DIR / "bad_reduction.json", tmp_path / "ugly.json")
    code, out, _ = run(capsys, "corpus", "--run", "--dir", str(tmp_path))
    assert code == 1
    assert "ugly: MISMATCH" in out
    assert "failed to run" in out


def test_corpus_reports_undecodable_file_and_runs_the_rest(tmp_path, capsys):
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe{}")
    shutil.copy(CORPUS_DIR / "cp2.json", tmp_path / "cp2.json")
    code, out, err = run(capsys, "corpus", "--run", "--dir", str(tmp_path))
    assert (code, err) == (1, "")
    assert out == ("binary: MISMATCH\n"
                   "  failed to run: 'utf-8' codec can't decode byte 0xff in "
                   "position 0: invalid start byte\n"
                   "cp2: ok\n"
                   "2 cases, 1 mismatches\n")


def test_deeply_nested_json_is_one_error_line(tmp_path, capsys):
    # the JSON decoder recurses once per bracket
    (tmp_path / "deep.json").write_text("[" * 100000)
    shutil.copy(CORPUS_DIR / "cp2.json", tmp_path / "cp2.json")
    message = ("invalid JSON: nested deeper than the interpreter's "
               "recursion limit")
    assert run(capsys, "check", str(tmp_path / "deep.json")) == (
        1, "", "error: %s\n" % message)
    # the bad case fails alone, and the run goes on
    assert run(capsys, "corpus", "--run", "--dir", str(tmp_path)) == (
        1, "cp2: ok\ndeep: MISMATCH\n  failed to run: %s\n"
           "2 cases, 1 mismatches\n" % message, "")


def test_deeply_nested_value_is_cut_in_its_error_line(tmp_path):
    # a list nested 980 deep, which the decoder accepts in a fresh
    # process: its repr runs to 1,960 characters, of which the one error
    # line quotes 64.  A process, because the deeper stack of a test run
    # leaves the decoder and repr less room below the recursion limit
    doc = json.loads((CORPUS_DIR / "cp2.json").read_text())
    doc["bundle"]["euler"] = {"a^2": "@"}
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(doc).replace('"@"', "[" * 980 + "]" * 980))
    result = subprocess.run(
        [sys.executable, "-m", "acso", "check", str(path)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)))
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", "error: bundle.euler['a^2'] must be an integer or decimal "
               "string, got %s...\n" % ("[" * 64))


LONG = "b" * 5000


@pytest.mark.parametrize("path, value", [
    # an unknown generator named by a monomial key, then a bad value there
    (("bundle", "euler"), {LONG: "3"}),
    (("bundle", "euler"), {LONG: "three"}),
    # a monomial of the wrong degree, and a bad exponent
    (("bundle", "euler"), {"*".join(["a"] * 2500): "3"}),
    (("bundle", "euler"), {LONG + "^0": "3"}),
    (("rings", "shared", "relations", 0, "lhs"), LONG),
    (("rings", "shared", "generators", 0, "name"), "_" + LONG),
    (("bundle", "pairing", "values"), {LONG: "1"}),
], ids=["unknown-generator", "bad-value", "wrong-degree", "bad-exponent",
        "relation", "generator-name", "pairing"])
def test_long_monomial_is_cut_in_its_error_line(path, value, tmp_path,
                                                capsys):
    doc = json.loads((CORPUS_DIR / "cp2.json").read_text())
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    target[key] = value
    space = tmp_path / "long.json"
    space.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(space))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200 and "..." in err


def chain_space(tmp_path, n):
    """Shared ring of n degree-2 generators with the rules g_{i+1} -> g_i.

    The normal form of g_{n-1} rewrites through every rule in turn, and
    confluence checks it first.
    """
    doc = {"schema_version": 1, "name": "chain%d" % n,
           "rings": {"shared": {
               "cutoff": 2,
               "generators": [{"name": "g%d" % i, "degree": 2}
                              for i in range(n)],
               "relations": [{"lhs": "g%d" % (i + 1), "rhs": {"g%d" % i: "1"}}
                             for i in range(n - 1)]}},
           "bundle": {"rank": 2, "euler": {}}}
    path = tmp_path / ("chain%d.json" % n)
    path.write_text(json.dumps(doc))
    return path


def test_overlong_rewriting_chain_is_one_error_line(tmp_path, capsys):
    assert run(capsys, "check", str(chain_space(tmp_path, 500))) == (
        1, "", "error: rewriting nests too deeply to check confluence; "
               "the rules chain too many steps\n")
    # a shorter chain builds; confluence costs about rules x generators^2,
    # so 100 rather than the 400 that also build
    code, out, err = run(capsys, "check", str(chain_space(tmp_path, 100)))
    assert (code, err) == (0, "")
    assert "status: clear" in out


def test_corpus_empty_directory(tmp_path, capsys):
    code, out, _ = run(capsys, "corpus", "--run", "--dir", str(tmp_path))
    assert code == 0
    assert out.strip() == "0 cases, 0 mismatches"


def test_corpus_missing_directory(capsys):
    code, _, err = run(capsys, "corpus", "--run", "--dir",
                       str(DATA_DIR / "nowhere"))
    assert code == 1
    assert "not a directory" in err


# -- argument errors ----------------------------------------------------------


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_no_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
