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
