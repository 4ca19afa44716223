import json
import pathlib
import sys

import pytest

from acso.spacefile import load_space_file

CORPUS_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "acso" / "corpus"
DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "bench"


def replace(obj, **changes):
    """A copy of an acso value object with the given fields changed.

    It is built through the class's public constructor, so the checks of
    that constructor run on the new fields.
    """
    fields = {name: getattr(obj, name) for name in obj.__slots__}
    fields.update(changes)
    return type(obj)(**fields)


# filled by the acceptance module; echoed after the run so the verdict
# lines survive output capture
acceptance_lines: list = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def corpus():
    """All bundled space files, keyed by file stem."""
    return {p.stem: load_space_file(p) for p in sorted(CORPUS_DIR.glob("*.json"))}


@pytest.fixture(scope="session")
def cp2(corpus):
    return corpus["cp2"].bundle


@pytest.fixture(scope="session")
def cp2bar(corpus):
    return corpus["cp2bar"].bundle


@pytest.fixture(scope="session")
def hp2(corpus):
    return corpus["hp2"].bundle


@pytest.fixture(scope="session")
def s1xwu(corpus):
    return corpus["s1xwu"].bundle


@pytest.fixture(scope="session")
def families():
    """`bench/families.py`: bundles over products of CP^n from closed forms.

    It stays the benchmark's independent oracle, so it is imported from
    `bench/` as it is, not copied into acso.
    """
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import families as module
    finally:
        sys.path.remove(str(BENCH_DIR))
    return module


@pytest.fixture(scope="session")
def workloads(families):
    """`bench/workloads.py`: the benchmark's operations and their checks."""
    # imported from bench/ as it is, next to the families module it uses
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import workloads as module
    finally:
        sys.path.remove(str(BENCH_DIR))
    return module


def kernel_space(directory):
    """H^2 free of rank 3, rho2 with rows a0 + a1 and a1 + a2, w2 = b0,
    written as kernel.json in directory.

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
    path = directory / "kernel.json"
    path.write_text(json.dumps(doc))
    return path


def cp2_sum_doc(k: int, l: int) -> dict:
    """The shared-form space file of the tangent bundle of the connected
    sum of k copies of CP^2 and l copies of CP^2 with reversed orientation.

    Generators a_1..a_k and b_1..b_l in degree 2, cutoff 4, with the
    relations a_i^2 -> a_1^2, b_j^2 -> -a_1^2 and every mixed product -> 0,
    so that a_1^2 is the top class and the intersection form is
    diag(1, ..., 1, -1, ..., -1).  w2 is the sum of the generators (every
    square is odd), e = chi = 2 + k + l and p1 = 3 sigma = 3 (k - l) times
    a_1^2, w4 = chi mod 2, and the pairing is 1 on a_1^2.  By Hirzebruch
    and Hopf, an almost complex structure exists iff k is odd.
    `bench/algebra.Ring` cannot express a_i^2 = a_1^2, so the generator
    lives here.  k >= 1.
    """
    gens = ["a%d" % i for i in range(1, k + 1)] + \
        ["b%d" % j for j in range(1, l + 1)]
    top = "a1^2"
    relations = [{"lhs": "%s^2" % g,
                  "rhs": {top: "-1" if g[0] == "b" else "1"}}
                 for g in gens[1:]]
    relations += [{"lhs": "%s*%s" % (g, h), "rhs": {}}
                  for i, g in enumerate(gens) for h in gens[i + 1:]]
    chi, sigma = 2 + k + l, k - l
    w = {"2": {g: "1" for g in gens}}
    if chi % 2:
        w["4"] = {top: "1"}
    bundle = {"rank": 4, "base_dimension": 4, "w": w,
              "euler": {top: str(chi)},
              "pairing": {"degree": 4, "values": {top: "1"}}}
    if sigma:
        bundle["p"] = {"1": {top: str(3 * sigma)}}
    return {"schema_version": 1, "name": "cp2_sum_%d_%d" % (k, l),
            "rings": {"shared": {
                "cutoff": 4,
                "generators": [{"name": g, "degree": 2} for g in gens],
                "relations": relations}},
            "bundle": bundle}


def empty_chain_doc(n: int, descending: bool) -> dict:
    """The shared-form space file of n degree-2 generators g_0..g_{n-1}
    with the rules g_{i+1} -> g_i and g_0 -> 0, cutoff 2, and a rank-2
    bundle with Euler class 0.

    Every generator rewrites to 0, so degree 2 has no basis.  Listed from
    g_0, no rule lowers the exponent tuple in lex or in reverse lex, and
    the confluence check follows g_{n-1} through every rule.  Listed
    from g_{n-1} (descending), each rule lowers it in lex, which proves
    termination, and no normal form is computed.  n >= 1.
    """
    names = ["g%d" % i for i in range(n)]
    relations = [{"lhs": names[i + 1], "rhs": {names[i]: "1"}}
                 for i in range(n - 1)]
    return {"schema_version": 1,
            "name": "chain%d%s" % (n, "_descending" if descending else ""),
            "rings": {"shared": {
                "cutoff": 2,
                "generators": [{"name": g, "degree": 2} for g in
                               (names[::-1] if descending else names)],
                "relations": relations + [{"lhs": "g0", "rhs": {}}]}},
            "bundle": {"rank": 2, "euler": {}}}


@pytest.fixture(scope="session")
def cp2_sums():
    """`cp2_sum_doc`: k CP^2 # l reversed CP^2 space files by (k, l)."""
    return cp2_sum_doc
