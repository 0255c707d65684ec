"""Re-record named cases of pinned_reports.json from the current code.

    python tests/data/record_pinned.py "chsh-verify --samples 200 --seed 7" ...
    python tests/data/record_pinned.py --all
    python tests/data/record_pinned.py --add "chsh-verify --samples 1 --seed 7" ...

A case is named by its argv joined with spaces, as test_report_matches_pinned
prints it; --all names every case, as a version change needs, and --add
appends a new case for each name, its argv the name split at spaces.  Each
named case gets the exit code and the report (elapsed_ms removed; CSV as
rows) that qlhv.cli.main prints now; every other case is written back byte
for byte as it was.  Exits 2, writing nothing, when a name matches no case
(with --add, when it matches one) or the file is not in the layout this
script writes.
"""

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

PINNED = Path(__file__).resolve().parent / "pinned_reports.json"
sys.path.insert(0, str(PINNED.parents[2] / "src"))

from qlhv import cli  # noqa: E402


def _dump(cases) -> str:
    return json.dumps(cases, indent=1)


def record(argv: list) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if "csv" in argv:
        output = list(csv.reader(io.StringIO(out.getvalue())))
    else:
        output = json.loads(out.getvalue())
        output.pop("elapsed_ms")
    return {"argv": argv, "exit": code, "output": output}


def main(names: list) -> int:
    text = PINNED.read_text()
    cases = json.loads(text)
    if _dump(cases) != text:
        print(f"error: {PINNED.name} is not in the layout this script writes", file=sys.stderr)
        return 2
    index = {" ".join(case["argv"]): number for number, case in enumerate(cases)}
    if names[:1] == ["--add"]:
        names = names[1:]
        if not names or any(name in index for name in names):
            print("error: name one or more cases that are not yet pinned", file=sys.stderr)
            return 2
        cases += [record(name.split(" ")) for name in names]
        PINNED.write_text(_dump(cases))
        return 0
    if names == ["--all"]:
        names = list(index)
    unknown = [name for name in names if name not in index]
    if unknown or not names:
        print("error: name one or more of these cases", *index, sep="\n  ", file=sys.stderr)
        if unknown:
            print("not found:", *unknown, sep="\n  ", file=sys.stderr)
        return 2
    for name in names:
        cases[index[name]] = record(cases[index[name]]["argv"])
    PINNED.write_text(_dump(cases))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
