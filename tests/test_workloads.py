"""One checked round of every benchmark workload.

`bench/workloads.py` builds each workload's operations (`acso` command
lines) and a check on each answer, which it computes independently with
`bench/algebra.py`.  This runs a workload's set-up checks, then every
operation once through acso.cli.main, unmeasured, and calls its check.
A known-fault marker on an operation is not honoured here: every answer
must pass its check, so a regression that a marker would hide fails.
"""

import contextlib
import importlib
import io
import sys

import pytest

from acso import cli
from acso.cli import main

from conftest import BENCH_DIR

NAMES = ["corpus", "search", "rings", "lifts"]
SEED = 7


def test_every_workload_is_run(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_workload_round_passes_its_checks(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](SEED, BENCH_DIR.parent, tmp_path)
    for check in workload.setup_checks:
        check()
    assert workload.ops
    for op in workload.ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
        assert err.getvalue() == "", op.key
        op.check(code, out.getvalue())


def test_every_traced_layer_resolves_in_acso():
    # bench/tracing.py binds its layers by name, so a renamed function or
    # method must show here, not only in a traced benchmark run
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH_DIR))
    for layer, targets in tracing.LAYERS.items():
        for target in targets:
            owner = importlib.import_module(target[0])
            if len(target) == 3:
                owner = vars(getattr(owner, target[1]))
                assert callable(owner.get(target[2])), (layer, target)
            else:
                assert callable(getattr(owner, target[1], None)), \
                    (layer, target)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(tracer.bindings[layer] for layer in tracing.LAYERS), \
            tracer.bindings
    finally:
        tracer.uninstall()
    assert cli.main is main  # the originals are back
