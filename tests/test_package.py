"""The package's public surface, its import cost and its value classes."""

import os
import pathlib
import subprocess
import sys

import pytest

import acso
from acso.gradedring import (
    Generator,
    GradedRing,
    LiftSearch,
    RewriteRule,
    RingPresentation,
)
from acso.intlin import AbelianGroupDescriptor, IntMatrix, SmithDecomposition
from acso.obstruct import (
    CandidateRecord,
    ChernCandidate,
    ObstructionReport,
    Pairing,
    SearchOutcome,
    Verdict,
    WuCheck,
)
from acso.spacefile import SpaceFile

from conftest import replace

SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"

# modules whose import would dominate the start of every `acso` command
HEAVY = ("dataclasses", "inspect", "typing", "pathlib", "importlib.resources")


def test_every_export_resolves():
    for name in acso.__all__:
        assert hasattr(acso, name), name


def test_cli_import_leaves_out_heavy_modules():
    # -S: without site, whose .pth files may import these modules first
    code = ("import sys, acso.cli; "
            "print(*[m for m in %r if m in sys.modules])" % (HEAVY,))
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(SRC_DIR)))
    assert (result.returncode, result.stdout, result.stderr) == (0, "\n", "")


A = Generator("a", 2)
RING = GradedRing(RingPresentation(0, 4, (A,)))
X = RING.element(2, [3])
VERDICT = Verdict("NonZero", X, 4, "q != 0")
SEARCH = SearchOutcome(3, "rule", 1, (), None, True)
EYE = IntMatrix.from_rows([[1]])
# the fields of an ObstructionReport, in order
REPORT = dict(rank=4, base_dimension=4, first=VERDICT, theorem1=(),
              final=None, final_rule=None, search=SEARCH,
              sole_obstruction=False, wu_checks=(), gaps=(), notes=(),
              status="obstructed", existence="excluded")


# (class, positional arguments, the same fields by keyword, one other value)
VALUES = [
    (Generator, ("a", 2, 0), dict(name="a", degree=2, order=0),
     Generator("a", 2, 4)),
    (RewriteRule, ((3,), ()), dict(lhs=(3,), rhs=()),
     RewriteRule((3,), ((1, (3,)),))),
    (RingPresentation, (0, 4, (A,), ()),
     dict(modulus=0, cutoff=4, generators=(A,), rules=()),
     RingPresentation(2, 4, (A,))),
    (LiftSearch, ((X,), False), dict(lifts=(X,), no_lift_proven=False),
     LiftSearch((), True)),
    (SmithDecomposition, (EYE, EYE, EYE), dict(U=EYE, D=EYE, V=EYE),
     SmithDecomposition(EYE, EYE.zero(1, 1), EYE)),
    (AbelianGroupDescriptor, (1, (2,)),
     dict(free_rank=1, torsion_factors=(2,)), AbelianGroupDescriptor(1)),
    (Verdict, ("NonZero", X, 4, "q != 0"),
     dict(status="NonZero", witness=X, denominator=4, note="q != 0"),
     Verdict("Zero")),
    (WuCheck, (1, "failed", X, ""),
     dict(m=1, status="failed", discrepancy=X, note=""), WuCheck(1, "ok")),
    (Pairing, (2, [1]), dict(degree=2, values=(1,)), Pairing(2, [2])),
    (ChernCandidate, ([X],), dict(classes=(X,)), ChernCandidate([-X])),
    (CandidateRecord, (ChernCandidate([X]), X, VERDICT, 3),
     dict(candidate=ChernCandidate([X]), q=X, verdict=VERDICT, pairing=3),
     CandidateRecord(ChernCandidate([X]), X, VERDICT, None)),
    (SearchOutcome, (3, "rule", 1, (), None, True),
     dict(bound=3, rule="rule", enumerated=1, records=(), no_lift_degree=None,
          complete=True), SearchOutcome(3, "rule")),
    (ObstructionReport, tuple(REPORT.values()), REPORT,
     ObstructionReport(**dict(REPORT, gaps=("gap",)))),
    (SpaceFile, ("cp2", None, "", {"status": "clear"}, None),
     dict(name="cp2", bundle=None, description="",
          expectations={"status": "clear"}, path=None),
     SpaceFile("cp2", None)),
]


@pytest.mark.parametrize("cls, args, kwargs, other", VALUES,
                         ids=[v[0].__name__ for v in VALUES])
def test_value_classes_compare_and_hash_field_by_field(cls, args, kwargs,
                                                       other):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    assert a != other and b != other
    assert a != args and a.__eq__(args) is NotImplemented
    fields = tuple(getattr(a, name) for name in cls.__slots__)
    assert repr(a) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % (name, getattr(a, name)) for name in cls.__slots__))
    if cls is SpaceFile:  # its expectations are a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(fields)
        assert len({a, b, other}) == 2
    assert replace(a) == a
    name = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = None


def test_value_classes_keep_their_defaults():
    assert Generator("a", 2) == Generator("a", 2, 0)
    assert RewriteRule((3,)).rhs == ()
    assert RingPresentation(0, 4, [A]).rules == ()
    assert RingPresentation(0, 4, [A]).generators == (A,)
    assert LiftSearch(()).no_lift_proven is False
    assert AbelianGroupDescriptor(2).torsion_factors == ()
    assert AbelianGroupDescriptor(0, [2, "4"]).torsion_factors == (2, 4)
    assert Verdict("Zero") == Verdict("Zero", None, None, "")
    assert WuCheck(1, "ok") == WuCheck(1, "ok", None, "")
    assert Pairing("2", ["1"]) == Pairing(2, (1,))
    assert SearchOutcome(3, "r") == SearchOutcome(3, "r", 0, (), None, False)
    empty = SpaceFile("cp2", None)
    assert (empty.description, empty.expectations, empty.path) == \
        ("", {}, None)
    assert SpaceFile("cp2", None).expectations is not empty.expectations
    assert RewriteRule([2], [("1", ["2"])]) == RewriteRule((2,), ((1, (2,)),))


@pytest.mark.parametrize("build, message", [
    (lambda: Generator("2a", 2), "bad generator name '2a'"),
    (lambda: Generator("a", 0), "generator degree must be positive"),
    (lambda: Generator("a", 2, 1), "generator order must be 0 or >= 2"),
    (lambda: RewriteRule((0, 0)), "rewrite rule with trivial left-hand side"),
    (lambda: RingPresentation(3, 4, (A,)), "modulus must be 0, 2, or 4"),
    (lambda: RingPresentation(0, -1, (A,)), "negative cutoff"),
    (lambda: RingPresentation(0, 4, (A, A)), "duplicate generator names"),
    (lambda: RingPresentation(0, 4, (A,), (RewriteRule((1, 1)),)),
     "rule arity differs from generator count"),
    (lambda: RingPresentation(0, 4, (A,), [RewriteRule([2], [(1, (1, 1))])]),
     "rule arity differs from generator count"),
    (lambda: RingPresentation(0, 4, (A,), [RewriteRule([2], [(1, (1,))])]),
     "rewrite rule is not homogeneous"),
    (lambda: AbelianGroupDescriptor(-1), "negative free rank"),
    (lambda: AbelianGroupDescriptor(0, (1,)),
     "torsion factors must be at least 2"),
    (lambda: AbelianGroupDescriptor(0, (2, 3)),
     "torsion factors must form a divisibility chain"),
    (lambda: Verdict("Maybe"), "unknown verdict status 'Maybe'"),
    (lambda: Verdict("NonZero"), "NonZero verdict requires a nonzero witness"),
    (lambda: Verdict("NonZero", RING.zero(2)),
     "NonZero verdict requires a nonzero witness"),
])
def test_value_classes_check_their_fields(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_replace_runs_the_constructor_checks():
    pres = RingPresentation(0, 4, (A,))
    assert replace(pres, modulus=2) == RingPresentation(2, 4, (A,))
    with pytest.raises(ValueError, match="modulus must be 0, 2, or 4"):
        replace(pres, modulus=3)
    with pytest.raises(TypeError):
        replace(pres, width=1)
