"""Print a digest of the outputs of a fixed set of `acso` command lines.

Every command runs in this process through `acso.cli.main`, imported
from the src/ beside this script.  The script prints one line per
command: its argv, each input path cut to its directory label and file
name (corpus/, data/, or the workload's name), and the sha256 of its
exit code, stdout and stderr.  The last line holds the number of
commands and the sha256 of all the lines before it.  A change that must
keep every output byte-identical is checked by running the script in an
export of the parent tree and in the change, and comparing the lines:

    python scripts/outputs.py

The commands are:

- for each of the bundled corpus files, tests/data/*.json and the seed-7
  inputs that bench/workloads.py writes for each workload: `check` at
  bounds 0, 2, 3 and 10 in text and in JSON, and `lifts --class w2`,
  `w4` and `w6` at `--bound 2`;
- the command line of every seed-7 workload operation;
- `corpus --run`, `table --pi N Q` for 1 <= Q < 2N <= 16, and
  `table --denominator K` for K from 1 to 5;
- for each of the corpus files and the seed-7 inputs, `lifts --class w2`
  and `w4` at `--bound 0`, where the free parities are fixed to 0;
- `check` at bounds 0 and 3 in text and in JSON on the shared-form
  presentations that rewrite: the kCP^2 # l(reversed CP^2) files of
  `cp2_sum_doc` for the eleven (k, l) of `CP2_SUM_EXITS`
  (tests/test_survey.py), and the rewriting chains of `empty_chain_doc`
  into a degree without a basis, of 10 and 500 generators, listed both
  ways (tests/conftest.py).

Each group of commands comes after the groups above it, which were
there first, so their lines keep their places.

The workload inputs are written into a temporary directory, which is
removed at the end, and no bytecode is written, so the script leaves
nothing in the checkout; bench/ is only imported.  In the outputs, the
path of the checkout and that of the temporary directory are replaced by
fixed markers before hashing, so two trees in different places compare
equal.  A command that raises is hashed by its exception and marked
"raised"; the script then exits 1, and 0 otherwise.
"""

import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import acso.cli as cli  # noqa: E402
from conftest import cp2_sum_doc, empty_chain_doc  # noqa: E402
from test_survey import CP2_SUM_EXITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BOUNDS = (0, 2, 3, 10)
CLASSES = ("w2", "w4", "w6")
# the classes lifted at bound 0 from the corpus files and the seed-7 inputs
FIXED_CLASSES = ("w2", "w4")


def run(argv: list) -> tuple:
    """(exit code, stdout, stderr, whether it raised) of one command."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    raised = False
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an acso traceback: hashed, and exit 1
        code, raised = "raised %s: %s" % (type(exc).__name__, exc), True
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue(), raised


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        labels = {}  # the path of every input -> its label

        def label(path: Path, group: str) -> str:
            labels[str(path)] = "%s/%s" % (group, path.name)
            return str(path)

        corpus = [label(p, "corpus") for p in
                  sorted((ROOT / "src" / "acso" / "corpus").glob("*.json"))]
        data = [label(p, "data") for p in
                sorted((ROOT / "tests" / "data").glob("*.json"))]
        ops, inputs = [], []
        for name, workload in WORKLOADS.items():
            outdir = tmp / name
            outdir.mkdir()
            ops += [op.argv for op in workload(7, ROOT, outdir).ops]
            inputs += [label(p, name) for p in sorted(outdir.glob("*.json"))]
        files = corpus + data + inputs

        commands = []
        for path in files:
            commands += [["check", path, "--bound", str(bound), "--format",
                          form] for bound in BOUNDS
                         for form in ("text", "json")]
            commands += [["lifts", path, "--class", klass, "--bound", "2"]
                         for klass in CLASSES]
        commands += ops
        commands.append(["corpus", "--run"])
        commands += [["table", "--pi", str(n), str(q)]
                     for n in range(1, 9) for q in range(1, 2 * n)]
        commands += [["table", "--denominator", str(k)] for k in range(1, 6)]
        commands += [["lifts", path, "--class", klass, "--bound", "0"]
                     for path in corpus + inputs for klass in FIXED_CLASSES]
        docs = [cp2_sum_doc(k, l) for k, l in CP2_SUM_EXITS]
        docs += [empty_chain_doc(n, descending) for n in (10, 500)
                 for descending in (False, True)]
        for doc in docs:
            path = tmp / ("%s.json" % doc["name"])
            path.write_text(json.dumps(doc))
            commands += [["check", label(path, "rewriting"), "--bound",
                          str(bound), "--format", form]
                         for bound in (0, 3) for form in ("text", "json")]

        lines, failed = [], 0
        for argv in commands:
            code, out, err, raised = run(argv)
            failed += raised
            text = "%s\n%s\0%s" % (code, out, err)
            text = text.replace(str(tmp), "<inputs>")
            text = text.replace(str(ROOT), "<root>")
            digest = hashlib.sha256(text.encode()).hexdigest()
            shown = " ".join(labels.get(a, a) for a in argv)
            lines.append("%s  %s%s" % (digest, shown,
                                       "  raised" if raised else ""))
            print(lines[-1])
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print("%d commands, total %s" % (len(lines), total))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
