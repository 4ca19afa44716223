"""Command line behavior: exit codes, output shapes, determinism."""

import contextlib
import io
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
from acso.obstruct import DivisibilityViolation, integral_sw
from acso.spacefile import load_space_file

import cli_reference as reference
from conftest import BENCH_DIR, CORPUS_DIR, DATA_DIR, kernel_space
from test_hashseed import RUNS

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
    # (i >= 1) and g_0^3 -> 0, and a free degree-2 generator h, so that
    # every even degree has basis monomials: the 13 rules with a
    # right-hand side have 40,066 multiples, each to be normalised and
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
               "generators": [{"name": g, "degree": 2}
                              for g in names + ["h"]],
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
        1, "", "error: confluence check of 40066 multiples, 40066 of them "
               "tested by 105 rules, exceeds the cap 1000000\n")


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


def test_check_refuses_a_negative_bound_on_every_file(capsys):
    # the bound is refused before any criterion runs, also where no search
    # would run (s6, s2xs4 and s1xwu); the two files whose load fails
    # keep their own message
    load_failures = set()
    paths = sorted(CORPUS_DIR.glob("*.json")) + sorted(DATA_DIR.glob("*.json"))
    for path in paths:
        code, _, err = run(capsys, "check", str(path))
        if code == 1:
            load_failures.add(path.stem)
        else:
            err = "error: bound must be nonnegative\n"
        for form in ("text", "json"):
            assert run(capsys, "check", str(path), "--bound", "-1",
                       "--format", form) == (1, "", err), path.name
    assert load_failures == {"bad_reduction", "duplicate_index"}


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


def lift_oracle(data, i, bound):
    """(exit code, stdout, stderr) of `acso lifts --class w<i>` on a file
    that loads as data: str() of each element of integral_lifts, one a
    line, the message that no lift exists, or the refusal."""
    if i > data.cutoff:
        return 1, "", "error: degree %d exceeds the ring cutoff %d\n" \
            % (i, data.cutoff)
    try:
        search = integral_lifts(data.rings, data.w_class(i), bound)
    except gradedring.RingError as exc:
        return 1, "", "error: %s\n" % exc
    if search.no_lift_proven:
        if i % 2 == 0 and i + 1 <= data.cutoff \
                and not integral_sw(data, i // 2).is_zero:
            return 0, "no integral lift (W%d != 0)\n" % (i + 1), ""
        return 0, "no integral lift\n", ""
    return 0, "".join(str(x) + "\n" for x in search.lifts), ""


def torsion_kernel_space(tmp_path):
    """H^2 = Z/2 t + Z a (generators in the order a, t, so the basis is
    t, a), rho2 kills t and sends a to z, w2 = z.

    The lifts of w2 come in two spreads, t = 0 and t = 1, each with the
    free coordinate last: past 4,096 values of a the writer takes that
    axis in slices after the prefix t, and the spreads are merged.
    """
    def ring(names, orders):
        return {"cutoff": 2, "generators": [
            {"name": n, "degree": 2, "order": o} for n, o in zip(names, orders)]}
    doc = {"schema_version": 1, "name": "torsion_kernel",
           "rings": {"integral": ring(("a", "t"), (0, 2)),
                     "mod2": ring(("z",), (0,)), "mod4": ring(("y",), (0,))},
           "maps": {"rho2": {"0": [["1"]], "2": [["0", "1"]]},
                    "rho4": {"0": [["1"]], "2": [["0", "1"]]},
                    "theta2": {"0": [["2"]], "2": [["2"]]},
                    "rho24": {"0": [["1"]], "2": [["1"]]}, "beta": {}},
           "bundle": {"rank": 2, "base_dimension": 2, "w": {"2": {"z": "1"}},
                      "p": {}, "euler": {"a": "1"}}}
    path = tmp_path / "torsion_kernel.json"
    path.write_text(json.dumps(doc))
    return path


def test_lifts_writes_the_text_of_every_lift(tmp_path, capsys):
    # lift counts around the block size: w4 of S^4 is 0 on a free
    # coordinate, so an odd bound B gives the B even values in [-B, B];
    # w2 of CP^2 gives the B + 1 odd ones.  Past the tail of 4,096 texts
    # the last axis is taken in slices, alone (CP^2) or after a prefix
    # and across two spreads (torsion_kernel)
    block, tail = cli._BLOCK_LINES, cli._TAIL_TEXTS
    s4, cp2 = CORPUS_DIR / "s4.json", CORPUS_DIR / "cp2.json"
    kernel, torsion = kernel_space(tmp_path), torsion_kernel_space(tmp_path)
    cases = [(kernel, 2, 0, 0), (s4, 4, 0, 1), (s4, 4, 1, 1),
             (s4, 4, block - 1, block - 1), (cp2, 2, block - 1, block),
             (s4, 4, block + 1, block + 1),
             (s4, 4, 2 * block + 1, 2 * block + 1),
             (kernel, 2, 1, 6), (kernel, 2, 3, 4 * 3 * 3 + 3 * 4 * 4),
             (cp2, 2, tail - 1, tail), (cp2, 2, tail + 1, tail + 2),
             (torsion, 2, tail - 1, 2 * tail), (torsion, 2, tail + 1,
                                                2 * (tail + 2))]
    for path, i, bound, count in cases:
        got = run(capsys, "lifts", str(path), "--class", "w%d" % i,
                  "--bound", str(bound))
        assert got == lift_oracle(load_space_file(path).bundle, i, bound)
        assert got[1].count("\n") == count, (path.name, bound)
    # the zero lift prints 0, and the kernel's merged spreads stay sorted
    assert run(capsys, "lifts", str(s4), "--class", "w4",
               "--bound", "0")[1] == "0\n"
    _, out, _ = run(capsys, "lifts", str(kernel), "--class", "w2",
                    "--bound", "1")
    assert out.splitlines() == ["-a2 - a1", "-a2 + a1", "-a0", "a0",
                                "a2 - a1", "a2 + a1"]
    _, out, _ = run(capsys, "lifts", str(torsion), "--class", "w2",
                    "--bound", "1")
    assert out.splitlines() == ["-a", "a", "t - a", "t + a"]


def test_lifts_match_the_element_oracle(families, tmp_path, capsys):
    # every class w0..w8 at bounds 0-3 of the corpus, tests/data, both
    # kernel spaces and generated line sums and tangent bundles: the
    # same exit code, stdout and stderr as the oracle
    bundles = {
        "t_cp2": families.tangent_cp_product([2]),
        "t_cp3": families.tangent_cp_product([3]),
        "t_cp1xcp2": families.tangent_cp_product([1, 2]),
        "t_cp2xcp2": families.tangent_cp_product([2, 2]),
        "lines_cp2xcp2": families.line_sum(families.cp_product([2, 2]),
                                           [(1, 0), (1, 1)]),
        "lines_cp3": families.line_sum(families.cp_product([3]),
                                       [(1,), (2,), (3,)]),
        "lines_s2x3": families.line_sum(families.sphere_product(3),
                                        [(1, 0, 1), (0, 2, 1)]),
        "lines_t4": families.line_sum(families.torus(4),
                                      [(1, 0, 1, 0), (0, 1, 1, 1)]),
    }
    paths = sorted(CORPUS_DIR.glob("*.json")) + sorted(DATA_DIR.glob("*.json"))
    paths += [kernel_space(tmp_path), torsion_kernel_space(tmp_path)]
    for name, bundle in bundles.items():
        paths.append(tmp_path / ("%s.json" % name))
        paths[-1].write_text(json.dumps(families.space_doc(name, bundle)))
    outcomes = set()
    for path in paths:
        try:
            data = load_space_file(path).bundle
        except cli._LOAD_ERRORS as exc:
            data = exc
        for i in range(9):
            for bound in range(4):
                got = code, out, _ = run(capsys, "lifts", str(path),
                                         "--class", "w%d" % i,
                                         "--bound", str(bound))
                if isinstance(data, Exception):
                    assert got == (1, "", "error: %s\n" % data), path.name
                else:
                    assert got == lift_oracle(data, i, bound), \
                        (path.name, i, bound)
                outcomes.add("error" if code else "proven" if
                             out.startswith("no integral lift") else
                             min(out.count("\n"), 2))
    # errors, proven failures, and zero, one and several lifts are reached
    assert outcomes == {"error", "proven", 0, 1, 2}


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


def spy_tail_texts(monkeypatch):
    """The length of every list of texts the lift writer builds: tail
    texts come only from _tail_texts, and each prefix holds one head."""
    sizes = []
    real = cli._tail_texts

    def tail_texts(*args):
        texts = real(*args)
        sizes.append(len(texts))
        return texts

    monkeypatch.setattr(cli, "_tail_texts", tail_texts)
    return sizes


def test_lifts_writer_holds_at_most_a_tail_of_texts(monkeypatch, capsys,
                                                   families, tmp_path):
    # the 40,000 lifts of w2 over CP^2 at bound 40000 lie on one axis,
    # each with its own coefficient: the writer builds their texts in
    # slices of _TAIL_TEXTS, never all at once
    sizes = spy_tail_texts(monkeypatch)
    path = CORPUS_DIR / "cp2.json"
    code, out, _ = run(capsys, "lifts", str(path), "--class", "w2",
                       "--bound", "40000")
    assert code == 0
    assert out == lift_lines(path, 2, 40000)
    tail = cli._TAIL_TEXTS
    assert sizes == [tail] * (40000 // tail) + [40000 % tail]
    # two axes of the 99 even values in [-99, 99]: the last is the tail,
    # built once as whole lines for the prefix 0 and once to follow the
    # 98 other prefixes
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(families.space_doc("lines", families.line_sum(
        families.cp_product([2, 2]), [(2, 0), (0, 2)]))))
    sizes.clear()
    code, out, _ = run(capsys, "lifts", str(path), "--class", "w2",
                       "--bound", "99")
    assert (code, out) == (0, lift_lines(path, 2, 99))
    assert out.count("\n") == 99 * 99 and sizes == [99, 99]


def test_lifts_of_a_million_on_one_axis_are_written_in_slices(monkeypatch):
    # LIFT_CAP = 10^6 odd multiples of a at bound 999999: no list of
    # texts and no write holds more than its cap, and every line comes
    # out once, in order
    sizes = spy_tail_texts(monkeypatch)
    seen = {"lines": 0, "largest": 0, "first": None, "last": None}

    class Stream:
        def write(self, text):
            lines = text.splitlines()
            seen["lines"] += len(lines)
            seen["largest"] = max(seen["largest"], len(lines))
            seen["first"] = seen["first"] or lines[0]
            seen["last"] = lines[-1]

    monkeypatch.setattr("sys.stdout", Stream())
    assert main(["lifts", str(CORPUS_DIR / "cp2.json"), "--class", "w2",
                 "--bound", "999999"]) == 0
    assert seen == {"lines": 10 ** 6, "largest": cli._BLOCK_LINES,
                    "first": "-999999*a", "last": "999999*a"}
    tail = cli._TAIL_TEXTS
    assert sizes == [tail] * (10 ** 6 // tail) + [10 ** 6 % tail]


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


def test_a_sq1_map_is_an_unknown_key(tmp_path, capsys):
    # the explicit form takes rho2, rho4, theta2, rho24 and beta alone:
    # thm1_w7 with its Sq^1 = rho2 . beta spelled out is refused, in text
    # and in JSON, and fails alone in a corpus run
    doc = json.loads((DATA_DIR / "thm1_w7.json").read_text())
    doc["maps"]["sq1"] = {"6": [["1"]]}
    path = tmp_path / "sq1.json"
    path.write_text(json.dumps(doc))
    shutil.copy(DATA_DIR / "thm1_w7.json", tmp_path / "thm1_w7.json")
    message = "'maps' has unknown keys: sq1"
    for fmt in ("text", "json"):
        assert run(capsys, "check", "--format", fmt, str(path)) == (
            1, "", "error: %s\n" % message)
    assert run(capsys, "corpus", "--run", "--dir", str(tmp_path)) == (
        1, "sq1: MISMATCH\n  failed to run: %s\nthm1_w7: ok\n"
           "2 cases, 1 mismatches\n" % message, "")


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
    # an unknown top-level key, and an exponent that is not a number
    ((LONG,), 1),
    (("bundle", "euler"), {"a^" + LONG: "3"}),
], ids=["unknown-generator", "bad-value", "wrong-degree", "bad-exponent",
        "relation", "generator-name", "pairing", "unknown-key",
        "exponent-not-a-number"])
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
    # a chain close to the limit builds, and fast: confluence tests each
    # rule on its left-hand side's support, about rules^2 steps here.  A
    # process, because the deeper stack of a test run leaves the rewriting
    # less room below the recursion limit
    path = chain_space(tmp_path, 480)
    result = subprocess.run(
        [sys.executable, "-m", "acso", "check", str(path)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)))
    assert (result.returncode, result.stderr) == (0, "")
    assert "status: clear" in result.stdout


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


# -- the command line parser --------------------------------------------------


def reference_args(argv):
    """vars() of the parent's argparse result, or None on a usage error."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return vars(reference.build_parser().parse_args(argv))
    except SystemExit:
        return None


# every shape of command line the README shows and the hash-seed test runs
DOCUMENTED = [
    ["check", "src/acso/corpus/cp2.json"],
    ["lifts", "src/acso/corpus/cp2.json", "--class", "w2", "--bound", "2"],
    ["table", "--pi", "8", "7"],
    ["table", "--denominator", "2"],
    ["corpus", "--run"],
    ["corpus", "--run", "--dir", "tests/data"],
    ["lifts", "--class", "w4", "--bound", "20", "lines_rank8.json"],
] + [run.split() + ["cp2.json"] for run in RUNS[:6]]


@pytest.mark.parametrize("argv", DOCUMENTED, ids=" ".join)
def test_parser_reads_documented_command_lines(argv):
    args = cli._parse(argv)
    assert args is not None
    assert vars(args) == reference_args(argv)


def test_parser_reads_every_benchmark_command_line(workloads, tmp_path):
    for name, build in workloads.WORKLOADS.items():
        for op in build(7, BENCH_DIR.parent, tmp_path).ops:
            args = cli._parse(list(op.argv))
            assert args is not None, op.argv
            assert vars(args) == reference_args(list(op.argv)), op.argv


PINNED = [[], ["-h"], ["check", "-h"], ["check"],
          ["check", "x", "--bound", "x"], ["check", "x", "--format", "yaml"],
          ["lifts", "x"], ["table"], ["table", "--pi", "1"],
          ["table", "--pi", "1", "2", "--denominator", "3"], ["frobnicate"],
          ["check", "x", "y"], ["check", "x", "--bou", "3"],
          ["check", "x", "--bound=3"]]


def outcome(capsys, run):
    try:
        code = run()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", PINNED,
                         ids=lambda argv: " ".join(argv) or "none")
def test_declined_command_lines_answer_as_argparse_did(argv, capsys):
    assert cli._parse(argv) is None

    def parent():
        args = reference.build_parser().parse_args(argv)
        return args.func(args)

    expected = outcome(capsys, parent)
    assert outcome(capsys, lambda: main(argv)) == expected
    assert expected[0] in (0, 1) and expected[1] + expected[2]


# the options of each command, with the number of values each takes
OWN = {"check": {"--bound": 1, "--format": 1},
       "lifts": {"--class": 1, "--bound": 1},
       "table": {"--pi": 2, "--denominator": 1},
       "corpus": {"--run": 0, "--dir": 1}}
COMMANDS = list(OWN)
# options, their abbreviations and --opt=value forms
OPTIONS = ["--bound", "--format", "--class", "--pi", "--denominator", "--run",
           "--dir", "--b", "--bou", "--form", "--cl", "--p", "--den", "--r",
           "--di", "--bound=3", "--format=json", "--class=w2", "--pi=1",
           "--denominator=2", "--run=", "--dir=x", "-h", "--help", "--he",
           "--", "-", "-x y"]
# choices, classes, digits of every kind, empty strings, paths
VALUES = ["text", "json", "yaml", "w2", "w4", "0", "3", "10", "-1", "-7",
          "+2", " 3", "1_0", "3.0", "\u0663", "-\u0663", "\u00b2", "", "x",
          "frobnicate", "src/acso/corpus/cp2.json", "/no/such dir"]


def test_parser_agrees_with_argparse_wherever_it_reads():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    values = st.one_of(st.sampled_from(VALUES),
                       st.integers(-20, 20).map(str))
    tokens = st.one_of(st.sampled_from(COMMANDS + OPTIONS), values)
    # values of the type an option takes, or any value
    numbers = st.integers(0, 20).map(str)
    typed = {"--format": st.sampled_from(["text", "json"]),
             "--class": st.sampled_from(["w2", "w4"]), "--dir": values}
    fitting = {option: st.one_of(typed.get(option, numbers), values)
               for command in OWN for option in OWN[command]}

    def command_line(command):
        # a command, then mostly its own options with as many values as
        # they take, some positionals and now and then any option with up
        # to two values
        own = st.one_of(*[
            st.lists(fitting[option], min_size=count, max_size=count)
            .map(lambda given, option=option: [option] + given)
            for option, count in OWN[command].items()])
        other = st.builds(lambda option, given: [option] + given,
                          st.sampled_from(OPTIONS),
                          st.lists(values, max_size=2))
        chunk = st.one_of(own, own, own, values.map(lambda v: [v]), other)
        return st.lists(chunk, max_size=3, unique_by=lambda c: c[0]).map(
            lambda chunks: ([command] + sum(chunks, []))[:7])

    argvs = st.one_of(st.lists(tokens, max_size=7),
                      *[command_line(command) for command in COMMANDS])

    @hypothesis.settings(max_examples=600, deadline=None, database=None)
    @hypothesis.given(argvs)
    def agree(argv):
        args = cli._parse(argv)
        if args is not None:
            assert vars(args) == reference_args(argv)

    agree()
