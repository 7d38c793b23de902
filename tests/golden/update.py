"""Golden artifacts of the six reference commands, and their comparator.

Each case runs one `g2cone` command in process through `cli.main` and is
recorded under ``tests/golden/<case>/``: the JSON report verbatim, and
``artifacts.json`` with the exit code, the names of the files written
and, for every CSV, its header, row count and per-column first, last,
min, max and sum.  The CSVs themselves are not committed.

    PYTHONPATH=src python tests/golden/update.py     # regenerate the set

A change that moves an output regenerates the set in the same commit,
so the move shows up as a diff.
"""

from __future__ import annotations

import json
import math
import re
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent

CASES = {
    "verify_torsion": ["verify-torsion"],
    "verify_torsion_flip": ["verify-torsion", "--debug-flip-psi", "--samples", "20"],
    "oracle": ["oracle"],
    "shoot": ["shoot", "--mu", "0.3", "--format", "csv,json,svg"],
    "stationary": ["stationary"],
    "sweep": ["sweep"],
}

REL_TOL = 1e-12
# rounding noise by nature: residuals, mismatches and drifts
NOISE_ABS = 1e-13
_NOISE = re.compile(r"max_relative_mismatch|max_residual_at_analytic_derivs|max_torsion_"
                    r"|drift|max_mismatch")


def run_case(argv: list, out: Path) -> int:
    from g2cone import cli

    return cli.main(argv + ["--out", str(out)])


def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return int(text == "true")
    return float(text)


def summarize_csv(path: Path) -> dict:
    """Header, row count and first/last/min/max/sum of every column."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[_cell(c) for c in line.split(",")] for line in lines[1:]]
    columns = {}
    for j, name in enumerate(header):
        col = [r[j] for r in rows]
        defined = [v for v in col if v is not None]
        columns[name] = {"first": col[0] if col else None, "last": col[-1] if col else None,
                         "min": min(defined, default=None), "max": max(defined, default=None),
                         "sum": sum(defined) if defined else None, "defined": len(defined)}
    return {"header": header, "rows": len(rows), "columns": columns}


def collect(argv: list, out: Path, code: int) -> dict:
    """The golden record of one finished run: {file name: parsed content}."""
    files = sorted(p.name for p in out.iterdir())
    reports = {name: json.loads((out / name).read_text()) for name in files
               if name.endswith(".json")}
    record = {"argv": argv, "exit_code": code, "files": files,
              "csv": {name: summarize_csv(out / name) for name in files
                      if name.endswith(".csv")}}
    return {"artifacts.json": record, **reports}


def load_golden(case: str) -> dict:
    return {p.name: json.loads(p.read_text()) for p in sorted((GOLDEN / case).glob("*.json"))}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _close(path: str, want: float, got: float) -> bool:
    if not (math.isfinite(want) and math.isfinite(got)):
        return False
    if want == got or abs(got - want) <= REL_TOL * abs(want):
        return True
    return bool(_NOISE.search(path)) and abs(got - want) <= NOISE_ABS


def compare(want, got, path: str = "") -> list:
    """Differences between two parsed records, as readable lines.

    Keys, strings, integers, booleans and nulls must match exactly,
    floats to 1e-12 relative; fields that are rounding noise by nature
    (residuals, mismatches, drifts) may also move by 1e-13 absolute.
    """
    if isinstance(want, dict) and isinstance(got, dict):
        out = [f"{path}: key {k!r} missing" for k in want if k not in got]
        out += [f"{path}: key {k!r} unexpected" for k in got if k not in want]
        for k in want:
            if k in got:
                out += compare(want[k], got[k], f"{path}/{k}")
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (a, b) in enumerate(zip(want, got))
                for d in compare(a, b, f"{path}[{i}]")]
    # the reports write 2.0 as 2, so a float may parse as an int
    if _is_number(want) and _is_number(got) and float in (type(want), type(got)):
        return [] if _close(path, float(want), float(got)) else [f"{path}: {got!r} != {want!r}"]
    if type(want) is not type(got) or want != got:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in CASES.items():
            out = Path(tmp) / case
            record = collect(argv, out, run_case(argv, out))
            dest = GOLDEN / case
            dest.mkdir(exist_ok=True)
            for old in dest.glob("*.json"):
                old.unlink()
            for name in record:  # the reports verbatim, the summary as JSON
                src = out / name
                text = (src.read_text() if src.exists()
                        else json.dumps(record[name], indent=1) + "\n")
                (dest / name).write_text(text)
            print(f"{case}: exit {record['artifacts.json']['exit_code']}, "
                  f"{len(record['artifacts.json']['files'])} files")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    sys.exit(main())
