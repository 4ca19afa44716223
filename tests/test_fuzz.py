"""Mutated corpus files: every outcome is an exit code, never a traceback.

Each example rewrites, inserts or deletes up to three values anywhere in
one corpus file, with integers up to 10^30 aimed at the sizes that drive
the work (cutoff, degree, rank, base_dimension), and runs `check` and
`lifts` on it in process.  Exit 1 must come with exactly one error line.
"""

import contextlib
import io
import json

import pytest

from acso.cli import main

from conftest import CORPUS_DIR

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

CORPUS = {p.stem: json.loads(p.read_text())
          for p in sorted(CORPUS_DIR.glob("*.json"))}
SIZE_KEYS = ("cutoff", "degree", "rank", "base_dimension")

big_ints = st.one_of(st.integers(-3, 40),
                     st.integers(0, 30).map(lambda k: 10 ** k),
                     st.integers(-10 ** 30, 10 ** 30))
values = st.one_of(
    big_ints, st.none(), st.booleans(), st.floats(allow_nan=False),
    st.text(max_size=6), big_ints.map(str),
    st.sampled_from(["a", "a^2", "x*y", "1", "-1", "w2", "a^99"]),
    st.just([]), st.just({}), st.lists(big_ints, max_size=2),
    st.dictionaries(st.sampled_from(["a", "a^2", "1"]), big_ints.map(str),
                    max_size=2))


def _paths(obj, prefix=()):
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_docs(draw):
    doc = json.loads(json.dumps(CORPUS[draw(st.sampled_from(sorted(CORPUS)))]))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        sizes = [p for p in paths if p[-1] in SIZE_KEYS]
        if sizes and draw(st.booleans()):
            path, value = draw(st.sampled_from(sizes)), draw(big_ints)
        else:
            path, value = draw(st.sampled_from(paths)), draw(values)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["set", "set", "delete", "insert"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "insert" and isinstance(parent, dict):
            parent[draw(st.sampled_from(["extra", "order", "rhs", "pairing"]))] \
                = value
        else:
            parent[path[-1]] = value
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_docs())
def test_mutated_space_files_exit_cleanly(doc, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    for argv in (["check", str(path), "--bound", "2"],
                 ["lifts", str(path), "--class", "w2", "--bound", "1"]):
        code, err = _run(argv)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
