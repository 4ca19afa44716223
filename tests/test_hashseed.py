"""Output that must not depend on the interpreter's hash seed or buffering.

Rings key dicts and sets by exponent tuples and fill their product memos
on demand, maps keep sparse columns as dicts, and every mod-2 equation is
solved over F2 from them; no iteration order may reach stdout, stderr or
the exit code.  This runs a fixed command list under PYTHONHASHSEED 0 and
1, one process per seed with every command run through acso.cli.main,
and compares the results; the second-to-last command lists lifts of w2
from two parity spreads, merged on their coefficient tuples, the one
command with more than one spread, and the last writes a JSON report of
4,096 records in 16 blocks.  It also runs the block writer of `acso lifts`
as two processes, one with PYTHONUNBUFFERED=1 and one without.  The CI
step "Reports are byte-identical across hash seeds" runs this module.
"""

import json
import os
import pathlib
import subprocess
import sys

from conftest import CORPUS_DIR, cp2_sum_doc, kernel_space

SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"

# the runs, one per space file each; the last two are usage errors,
# which acso.cli.main leaves to argparse
RUNS = ("check --format json", "check --format json --bound 3",
        "check --format json --bound 0", "check --format text --bound 0",
        "lifts --class w2 --bound 2", "lifts --class w4 --bound 1",
        "check --format yaml", "lifts --bound 2")

# reads a JSON list of argument lists on stdin and writes, per command,
# [exit code, stdout, stderr] as a JSON list
RUNNER = """
import contextlib, io, json, sys
from acso.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def family_spaces(F, directory):
    """The seven generated space files of the command list, by name."""
    bundles = {
        "t8_rank2": F.line_sum(F.torus(8), [[0] * 8]),
        "cp2x3_line": F.line_sum(F.cp_product([2, 2, 2]), [[1, 1, 1]]),
        # rank 4 over an H^2 of rank 2: a survey of two-coordinate c1
        "lines_rank4": F.line_sum(F.cp_product([2, 2]), [(1, 0), (1, 1)]),
        "t_cp2xcp2": F.tangent_cp_product([2, 2]),
        "t_cp6": F.tangent_cp_product([6]),
        # rank 10: its report lists two gaps, so their order is seen
        "t_cp5": F.tangent_cp_product([5]),
        "lines_rank8": F.line_sum(F.cp_product([2, 2]),
                                  [(1, 0), (0, 1), (1, -1), (0, 2)]),
    }
    paths = {}
    for name, bundle in bundles.items():
        paths[name] = directory / ("%s.json" % name)
        paths[name].write_text(json.dumps(F.space_doc(name, bundle)))
    return paths


def test_outputs_do_not_depend_on_the_hash_seed(families, tmp_path):
    spaces = family_spaces(families, tmp_path)
    files = sorted(CORPUS_DIR.glob("*.json")) + sorted(spaces.values())
    commands = [run.split() + [str(f)] for f in files for run in RUNS]
    # 8,000 lifts take several blocks of `acso lifts` output
    commands.append(["lifts", "--class", "w4", "--bound", "20",
                     str(spaces["lines_rank8"])])
    # lifts from two spreads, merged on their coefficient tuples
    commands.append(["lifts", "--class", "w2", "--bound", "3",
                     str(kernel_space(tmp_path))])
    # 3 CP^2 # 3 reversed CP^2 at bound 3: 4,096 records, in 16 blocks
    cp2_sum = tmp_path / "cp2_sum.json"
    cp2_sum.write_text(json.dumps(cp2_sum_doc(3, 3)))
    commands.append(["check", "--format", "json", "--bound", "3",
                     str(cp2_sum)])
    assert len(commands) == 131
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    procs = [subprocess.Popen([sys.executable, "-c", RUNNER],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True, env=dict(env, PYTHONHASHSEED=seed))
             for seed in ("0", "1")]
    outputs = [p.communicate(json.dumps(commands))[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    first, second = (json.loads(out) for out in outputs)
    assert len(first) == len(commands)
    for argv, a, b in zip(commands, first, second):
        assert a == b, argv
    # the two usage errors of every space file went through argparse
    usage = [code for code, out, err in first if err.startswith("usage: acso")]
    assert usage == [1] * 32
    code, out, err = first[-3]
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 8000
    assert first[-2][0] == 0 and len(first[-2][1].splitlines()) == 84
    code, out, err = first[-1]
    assert (code, err) == (0, "")
    assert len(json.loads(out)["search"]["records"]) == 4096


def test_lifts_output_does_not_depend_on_buffering(families, tmp_path):
    # 8,000 lifts written in blocks, by processes whose stdout is a pipe,
    # once block-buffered and once unbuffered
    space = family_spaces(families, tmp_path)["lines_rank8"]
    argv = [sys.executable, "-m", "acso", "lifts", "--class", "w4",
            "--bound", "20", str(space)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC_DIR)
    runs = [subprocess.run(argv, capture_output=True, text=True, env=e)
            for e in (env, dict(env, PYTHONUNBUFFERED="1"))]
    assert [(r.returncode, r.stderr) for r in runs] == [(0, "")] * 2
    assert runs[0].stdout == runs[1].stdout
    assert len(runs[0].stdout.splitlines()) == 8000
