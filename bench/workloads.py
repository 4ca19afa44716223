"""The four workloads: the operations of one round and the check on each.

An operation is one `acso` command line.  Its check receives the exit
code and the captured output and raises `CheckFailure` when the answer is
wrong.  Every check computes what it compares against with `algebra`,
from closed forms or from the input file itself, never from stored output
of the program, and none depends on how many candidates the program
enumerates.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import families as F
from algebra import Ring

EXIT_BY_STATUS = {"clear": 0, "obstructed": 2, "inconclusive": 3}

# An operation that fails on every run because of this fault in acso is
# counted as failed instead of making the whole run incorrect.
FAULT_FALSE_EXCLUDED = ("obstruct._aggregate_final reports NonZero for a "
                        "search that was bounded, not complete")


class CheckFailure(Exception):
    """The program's answer to one operation is wrong."""


def require(condition: bool, message: str, *args) -> None:
    if not condition:
        raise CheckFailure(message % args if args else message)


@dataclass
class Op:
    key: str
    argv: list
    check: Callable[[int, str], None]  # (exit code, stdout)
    known_fault: str = ""


@dataclass
class Workload:
    ops: list
    # checks that need the program as a library; run once at set-up
    setup_checks: list = field(default_factory=list)


def _write(outdir: Path, name: str, doc: dict) -> str:
    path = outdir / (name + ".json")
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return str(path)


def _exit_matches(code: int, status: str, doc_code=None) -> None:
    require(status in EXIT_BY_STATUS, "unknown status %r", status)
    require(code == EXIT_BY_STATUS[status],
            "exit code %d does not match status %s", code, status)
    require(doc_code is None or doc_code == code,
            "report says exit_code %s but the command exited %d",
            doc_code, code)


# -- corpus -------------------------------------------------------------

# Classical answers: S^4 and S^8 admit no almost complex structure
# (Borel-Serre), S^6 and CP^2 do, reversed CP^2 does not, and on S^1 x
# SU(3)/SO(3) w2 has no integral lift, so W3 != 0.
_OBSTRUCTED = {"s4", "s8", "cp2bar"}
_NOT_OBSTRUCTED = {"s6", "cp2"}


def _check_corpus(name: str, spec: dict, first_output: dict,
                  code: int, out: str) -> None:
    doc = json.loads(out)
    status = doc["status"]
    _exit_matches(code, status, doc["exit_code"])
    if name in _OBSTRUCTED:
        require(status == "obstructed", "%s must be obstructed", name)
    if name in _NOT_OBSTRUCTED:
        require(status != "obstructed", "%s must not be obstructed", name)
    search = doc["search"]
    if name == "cp2":
        for c1 in ("3", "-3"):
            require({"c1": {"a": c1}} in search["vanishing"],
                    "cp2 lacks c1 = %s*a among its vanishing candidates", c1)
    if name == "s1xwu":
        require(doc["first"]["status"] == "NonZero",
                "s1xwu must have a nonzero first obstruction")
    _check_expectations(name, spec.get("expectations", {}), doc)
    if name in first_output:
        require(out == first_output[name],
                "%s: repeated run printed different JSON", name)
    else:
        first_output[name] = out


def _check_expectations(name: str, exp: dict, doc: dict) -> None:
    final = doc["final"]
    actual = {
        "status": doc["status"],
        "existence": doc["existence"],
        "exit_code": doc["exit_code"],
        "first": doc["first"]["status"],
        "final": final["status"] if final else "absent",
    }
    for key, value in actual.items():
        if key in exp:
            require(str(exp[key]) == str(value),
                    "%s: %s expected %s, got %s", name, key, exp[key], value)
    if "final_note_contains" in exp:
        note = final["note"] if final else ""
        require(exp["final_note_contains"] in note,
                "%s: final note %r lacks %r", name, note,
                exp["final_note_contains"])
    search = doc["search"]
    if "vanishing_candidates" in exp:
        require(search is not None
                and search["vanishing"] == exp["vanishing_candidates"],
                "%s: vanishing candidates differ from the expectations", name)
    if "wu_pairings" in exp:
        table = {}
        for r in search["records"]:
            coeffs = list(r["candidate"]["c1"].values()) or ["0"]
            table[coeffs[0]] = r["pairing"]
        require(table == exp["wu_pairings"],
                "%s: Wu pairings differ from the expectations", name)


def _check_euler_pairing(name: str, spec: dict) -> None:
    exp = spec.get("expectations", {})
    if "euler_pairing" not in exp:
        return
    bundle = spec["bundle"]
    values = bundle["pairing"]["values"]
    paired = sum(int(c) * int(values.get(mon, 0))
                 for mon, c in bundle["euler"].items())
    require(str(paired) == str(exp["euler_pairing"]),
            "%s: e pairs to %d, not %s", name, paired, exp["euler_pairing"])


def corpus(seed: int, root: Path, outdir: Path) -> Workload:
    # the bundled files are used as they are; the seed changes nothing
    first_output: dict = {}
    ops = []
    checks = []
    for path in sorted((root / "src" / "acso" / "corpus").glob("*.json")):
        spec = json.loads(path.read_text())
        ops.append(Op(path.stem, ["check", str(path), "--format", "json"],
                      partial(_check_corpus, path.stem, spec, first_output)))
        checks.append(partial(_check_euler_pairing, path.stem, spec))
    return Workload(ops, checks)


# -- search -------------------------------------------------------------


def final_q(bundle: F.ComplexBundle, classes) -> dict:
    """q = sum_i (-1)^i c_i c_(2k-i) - (-1)^k p_k, c_0 = 1, c_n = e.

    Rank 4k uses k; rank 6 uses k = 2, where c_4 = 0 and c_3 = e give
    Massey's rank-6 class c_2^2 - 2 c_1 e - p_2.
    """
    ring = bundle.ring
    n = bundle.crank
    k = n // 2 if n % 2 == 0 else 2
    c = [ring.one()] + list(classes) + [bundle.euler] + [{}] * (2 * k - n)
    return ring.add(*[ring.scale(ring.mul(c[i], c[2 * k - i]), (-1) ** i)
                      for i in range(2 * k + 1)],
                    ring.scale(bundle.pontryagin(k), -(-1) ** k))


def _within(x: dict, bound: int) -> bool:
    return all(abs(c) <= bound for c in x.values())


def _check_search(bundle: F.ComplexBundle, structures, bound: int,
                  code: int, out: str) -> None:
    ring = bundle.ring
    n = bundle.crank
    doc = json.loads(out)
    require(doc["status"] != "obstructed",
            "a complex bundle is reported obstructed (%s)",
            doc["final"]["note"] if doc["final"] else "")
    _exit_matches(code, doc["status"], doc["exit_code"])
    search = doc["search"]
    require(search is not None and search["no_lift_degree"] is None,
            "the candidate search did not run")

    def classes(cand: dict):
        return tuple(ring.from_terms(cand["c%d" % i]) for i in range(1, n))

    for record in search["records"]:
        cand = classes(record["candidate"])
        for i, ci in enumerate(cand, start=1):
            require(ring.mod2(ci) == bundle.w(2 * i),
                    "candidate c%d = %s does not reduce to w%d",
                    i, record["candidate"]["c%d" % i], 2 * i)
            require(_within(ci, bound), "candidate outside the bound %d",
                    bound)
        q = final_q(bundle, cand)
        require(q == ring.from_terms(record["q"]["terms"]),
                "q of a candidate differs from its recomputation")
        require((record["status"] == "Zero") == (not q),
                "verdict %s for a q that is %szero", record["status"],
                "" if not q else "non")
    vanishing = [classes(v) for v in search["vanishing"]]
    for cand in vanishing:
        require(not final_q(bundle, cand), "a vanishing candidate has q != 0")
    for own in structures:
        if all(_within(ci, bound) for ci in own):
            require(tuple(own) in vanishing,
                    "the Chern classes of a complex structure are missing "
                    "from the vanishing candidates")


# (name, CP^n factors, bound, known fault)
_TANGENT = [
    ("t_cp2xcp2", [2, 2], 3, ""),
    ("t_cp4", [4], 10, ""),
    ("t_cp6", [6], 6, FAULT_FALSE_EXCLUDED),
    ("t_cp1xcp3", [1, 3], 3, FAULT_FALSE_EXCLUDED),
]
# (name, degree vectors of line bundles over CP^2 x CP^2, bound)
_LINE_SUMS = [
    ("o10_o01_o11", [(1, 0), (0, 1), (1, 1)], 5),
    ("lines_rank6", [(1, 1), (1, -1), (2, 1)], 4),
    ("lines_rank8", [(1, 0), (0, 1), (1, -1), (0, 2)], 3),
]


def _structures(bundle: F.ComplexBundle, own_classes):
    """The given complex structure and, for even n, its conjugate.

    The conjugate of a rank-2n complex bundle induces the orientation
    (-1)^n times the original, so for odd n it belongs to the other
    orientation and is not a candidate here.
    """
    ring = bundle.ring
    n = bundle.crank
    out = [own_classes]
    if n % 2 == 0:
        out.append([ring.scale(ci, (-1) ** i)
                    for i, ci in enumerate(own_classes, start=1)])
    return out


def search(seed: int, root: Path, outdir: Path) -> Workload:
    rng = random.Random(seed)
    ops = []

    def add(name, bundle, own, bound, fault=""):
        doc = F.space_doc(name, bundle)
        path = _write(outdir, name, doc)
        n = bundle.crank
        own_classes = [own.chern(i) for i in range(1, n)]
        ops.append(Op(name, ["check", path, "--bound", str(bound),
                             "--format", "json"],
                      partial(_check_search, bundle,
                              _structures(bundle, own_classes), bound),
                      fault))

    for name, ns, bound, fault in _TANGENT:
        sym = F.symmetry(F.cp_product(ns), rng)
        bundle = F.tangent_cp_product(ns, sym)
        add(name, bundle, bundle, bound, fault)
    base = F.cp_product([2, 2])
    for name, vectors, bound in _LINE_SUMS:
        sym = F.symmetry(base, rng)
        bundle = F.line_sum(base, vectors, sym)
        # Conjugating an even number of summands keeps w, p and e, so the
        # input is unchanged, but it is another complex structure whose
        # Chern classes must vanish too.
        flips = [rng.choice((1, -1)) for _ in vectors]
        if flips.count(-1) % 2:
            flips[0] = -flips[0]
        own = F.line_sum(base, [tuple(s * x for x in v)
                                for s, v in zip(flips, vectors)], sym)
        assert (own.euler, own.p) == (bundle.euler, bundle.p)
        add(name, bundle, own, bound)
    return Workload(ops)


# -- rings --------------------------------------------------------------

_STATUS_LINE = re.compile(r"status: (\w+) \(exit (\d+)\), existence: (\w+)$",
                          re.M)


def _check_rings(rank: int, code: int, out: str) -> None:
    match = _STATUS_LINE.search(out)
    require(match is not None, "no status line in the report")
    status, printed, existence = match.group(1), int(match.group(2)), \
        match.group(3)
    _exit_matches(code, status, printed)
    if rank == 2:
        require((status, existence) == ("clear", "admits"),
                "a complex line bundle came out %s/%s", status, existence)
    else:
        require(status != "obstructed", "a trivial bundle came out obstructed")


def _basis_size(kind: str, ring: Ring, d: int) -> int:
    if kind == "torus":
        return math.comb(len(ring.names), d)
    if kind == "spheres":
        return math.comb(len(ring.names), d // 2) if d % 2 == 0 else 0
    # products of CP^n: exponent tuples e_i <= n_i with sum 2 e_i = d
    return len(ring.basis(d))


def _check_basis_sizes(name: str, kind: str, ring: Ring,
                       path: str) -> None:
    from acso.spacefile import load_space_file

    rings = load_space_file(path).bundle.rings
    for d in range(rings.integral.cutoff + 1):
        want = _basis_size(kind, ring, d)
        for label in ("integral", "mod2", "mod4"):
            got = len(getattr(rings, label).basis(d))
            require(got == want, "%s: %s basis in degree %d has %d elements, "
                    "the closed form gives %d", name, label, d, got, want)


def _line_class(ring: Ring, rng: random.Random) -> dict:
    """A seeded degree-2 class whose coefficients have a fixed parity."""
    basis = ring.basis(2)
    coeffs = F.even_offsets(rng, [(i + 1) % 2 for i in range(len(basis))])
    return {m: c for m, c in zip(basis, coeffs) if c}


# (name, base kind, base, complex rank of the bundle)
_RING_SPECS = [
    ("t5_line", "torus", F.torus(5), 1),
    ("t5_trivial6", "torus", F.torus(5), 3),
    ("t6_line", "torus", F.torus(6), 1),
    ("t6_trivial6", "torus", F.torus(6), 3),
    ("s2x4_line", "spheres", F.sphere_product(4), 1),
    ("cp2x3_line", "cp", F.cp_product([2, 2, 2]), 1),
    ("cp1xcp2_trivial6", "cp", F.cp_product([1, 2]), 3),
]


def rings(seed: int, root: Path, outdir: Path) -> Workload:
    rng = random.Random(seed)
    ops = []
    checks = []
    for name, kind, ring, crank in _RING_SPECS:
        summands = [(1, _line_class(ring, rng))] if crank == 1 else []
        bundle = F.ComplexBundle(ring, summands, crank)
        path = _write(outdir, name, F.space_doc(name, bundle))
        ops.append(Op(name, ["check", path], partial(_check_rings,
                                                     2 * crank)))
        checks.append(partial(_check_basis_sizes, name, kind, ring, path))
    return Workload(ops, checks)


# -- lifts --------------------------------------------------------------


class _Shared:
    """A generated torsion-free space, where rho2 is reduction mod 2."""

    def __init__(self, bundle: F.ComplexBundle):
        self.ring = bundle.ring
        self.bundle = bundle

    def basis(self, degree: int):
        return self.ring.basis(degree)

    def order(self, mono) -> int:
        return 0

    def rho2(self, x: dict, degree: int) -> dict:
        return self.ring.mod2(x)

    def w(self, degree: int) -> dict:
        return self.bundle.w(degree)

    def lift_count(self, degree: int, bound: int) -> int:
        """Integers in [-bound, bound] with the parity of w, per coordinate."""
        w = self.w(degree)
        return math.prod(_parity_count(bound, w.get(m, 0))
                         for m in self.basis(degree))


class _Explicit:
    """An explicit-form space file whose relations are all monomials."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.rings = {}
        for label in ("integral", "mod2"):
            section = doc["rings"][label]
            gens = section["generators"]
            ring = Ring([g["name"] for g in gens], [g["degree"] for g in gens],
                        [section["cutoff"] // g["degree"] for g in gens])
            for rel in section.get("relations", ()):
                require(not rel["rhs"], "only monomial relations are handled")
            lhs = [ring.parse_mono(rel["lhs"])
                   for rel in section.get("relations", ())]
            orders = [g.get("order", 0) for g in gens]
            self.rings[label] = (ring, lhs, orders)
        self.ring = self.rings["integral"][0]

    def basis(self, degree: int, label: str = "integral"):
        ring, lhs, _ = self.rings[label]
        return [m for m in ring.basis(degree)
                if not any(all(l <= e for l, e in zip(rule, m))
                           for rule in lhs)]

    def order(self, mono) -> int:
        g = 0
        for e, o in zip(mono, self.rings["integral"][2]):
            if e:
                g = math.gcd(g, o)
        return g

    def rho2(self, x: dict, degree: int) -> dict:
        rows = self.doc["maps"]["rho2"].get(str(degree), [])
        target = self.basis(degree, "mod2")
        vec = [x.get(m, 0) for m in self.basis(degree)]
        out = {}
        for i, row in enumerate(rows):
            v = sum(int(a) * b for a, b in zip(row, vec)) % 2
            if v:
                out[target[i]] = v
        return out

    def w(self, degree: int) -> dict:
        ring = self.rings["mod2"][0]
        return ring.from_terms(self.doc["bundle"]["w"].get(str(degree), {}))

    def lift_count(self, degree: int, bound: int):
        """The closed form for a zero class on a free piece, else None."""
        basis = self.basis(degree)
        if self.w(degree) or any(self.order(m) for m in basis):
            return None
        return _parity_count(bound, 0) ** len(basis)


def _parity_count(bound: int, parity: int) -> int:
    return sum(1 for v in range(-bound, bound + 1) if v % 2 == parity)


def _check_lifts(space, degree: int, bound: int, code: int,
                 out: str) -> None:
    require(code == 0, "lifts exited %d", code)
    lines = out.splitlines()
    expected = space.lift_count(degree, bound)
    if expected is not None:
        require(len(lines) == expected, "%d lifts printed, the closed form "
                "gives %d", len(lines), expected)
    basis = set(space.basis(degree))
    w = space.w(degree)
    seen = set()
    for line in lines:
        x = space.ring.parse_element(line)
        require(set(x) <= basis, "lift %r leaves the degree-%d basis", line,
                degree)
        for m, c in x.items():
            order = space.order(m)
            require(0 <= c < order if order else abs(c) <= bound,
                    "coefficient of lift %r out of range", line)
        require(space.rho2(x, degree) == w, "lift %r does not reduce to w%d",
                line, degree)
        key = tuple(sorted(x.items()))
        require(key not in seen, "lift %r printed twice", line)
        seen.add(key)


def _check_no_lift(code: int, out: str) -> None:
    require(code == 0, "lifts exited %d", code)
    require(out.strip() == "no integral lift (W3 != 0)",
            "w2 of S^1 x SU(3)/SO(3) must have no integral lift, got %r",
            out.strip())


def lifts(seed: int, root: Path, outdir: Path) -> Workload:
    rng = random.Random(seed)
    ops = []
    # even degree vectors: w = 0, so every lift count is a closed form
    vectors = [F.even_offsets(rng, [0, 0, 0, 0], 1) for _ in range(4)]
    spheres = F.line_sum(F.sphere_product(4), vectors)
    ns = [2, 2]
    tangent = F.tangent_cp_product(ns, F.symmetry(F.cp_product(ns), rng))
    s1xwu = root / "src" / "acso" / "corpus" / "s1xwu.json"
    explicit = _Explicit(json.loads(s1xwu.read_text()))
    # (name, path, space, class, bound); t_cp2xcp2 w2 at bound 25 sits
    # apart from the others in time, so latency_s.p50 is its median
    plan = [("s2x4", _write(outdir, "s2x4_rank8",
                            F.space_doc("s2x4_rank8", spheres)),
             _Shared(spheres), [("w4", 2), ("w2", 4)]),
            ("t_cp2xcp2", _write(outdir, "t_cp2xcp2",
                                 F.space_doc("t_cp2xcp2", tangent)),
             _Shared(tangent), [("w2", 25), ("w4", 10)]),
            ("s1xwu", str(s1xwu), explicit, [("w3", 3), ("w5", 3)])]
    for name, path, space, classes in plan:
        for klass, bound in classes:
            ops.append(Op("%s_%s" % (name, klass),
                          ["lifts", path, "--class", klass, "--bound",
                           str(bound)],
                          partial(_check_lifts, space, int(klass[1:]), bound)))
    ops.append(Op("s1xwu_w2", ["lifts", str(s1xwu), "--class", "w2"],
                  _check_no_lift))
    return Workload(ops)


WORKLOADS = {"corpus": corpus, "search": search, "rings": rings,
             "lifts": lifts}
