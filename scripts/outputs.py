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
  `table --denominator K` for K from 1 to 5.

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
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import acso.cli as cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BOUNDS = (0, 2, 3, 10)
CLASSES = ("w2", "w4", "w6")


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

        files = [label(p, "corpus") for p in
                 sorted((ROOT / "src" / "acso" / "corpus").glob("*.json"))]
        files += [label(p, "data") for p in
                  sorted((ROOT / "tests" / "data").glob("*.json"))]
        ops = []
        for name, workload in WORKLOADS.items():
            outdir = tmp / name
            outdir.mkdir()
            ops += [op.argv for op in workload(7, ROOT, outdir).ops]
            files += [label(p, name) for p in sorted(outdir.glob("*.json"))]

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
