"""The exit code and per-check verdicts of every fixture under each CLI verb.

``fixture_verdicts.json`` maps "<verb> <fixture>" to the exit code of
``cstarcat <verb> <fixture> --format json`` and the sorted (check name,
pass) pairs it reports.  A run that exits 2 (unreadable input) reports no
checks.  An entry that changes is a declared change of the CLI contract,
like a changed gate.

Regenerate the table with ``PYTHONPATH=src python3 tests/test_fixture_verdicts.py``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from cstarcat.cli import main

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
TABLE = HERE / "fixture_verdicts.json"
VERBS = ("verify", "morita", "ew")


def verdict(verb: str, path: Path) -> dict:
    """Exit code and sorted (check name, pass) pairs of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([verb, str(path), "--format", "json"])
    text = out.getvalue().strip()
    checks = json.loads(text)["checks"] if text else []
    return {"exit": code, "checks": sorted([c["name"], c["pass"]] for c in checks)}


def verdict_table() -> dict:
    return {f"{verb} {path.name}": verdict(verb, path)
            for path in sorted(FIXTURES.glob("*.cstar.json")) for verb in VERBS}


def test_fixture_verdicts_match_the_table():
    expected = json.loads(TABLE.read_text())
    got = verdict_table()
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, changed


if __name__ == "__main__":
    rows = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(verdict_table().items())]
    TABLE.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    sys.exit(0)
