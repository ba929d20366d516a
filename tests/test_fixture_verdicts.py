"""The exit code and per-check verdicts of every fixture under each CLI verb.

``fixture_verdicts.json`` maps "<verb> <fixture>" to the exit code of
``cstarcat <verb> <fixture> --format json`` and the sorted (check name,
pass) pairs it reports.  A run that exits 2 (unreadable input) reports no
checks.  An entry that changes is a declared change of the CLI contract,
like a changed gate.

Regenerate the table with ``PYTHONPATH=src python3 tests/test_fixture_verdicts.py``.

The corpus itself is checked against its generator: ``tests/make_fixtures.py``
writes it afresh, and each regenerated file must give the table's verdicts
and decode to matrices within 1e-12 of the checked-in file (regeneration can
move the last bits, so the corpus is compared, not rewritten).
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


def verdict_table(fixtures: Path = FIXTURES) -> dict:
    return {f"{verb} {path.name}": verdict(verb, path)
            for path in sorted(fixtures.glob("*.cstar.json")) for verb in VERBS}


def test_fixture_verdicts_match_the_table():
    expected = json.loads(TABLE.read_text())
    got = verdict_table()
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, changed


def _deviation(a, b) -> float:
    """Largest difference of two decoded JSON trees that share their
    structure, keys and non-numeric values; ``inf`` where they do not."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return max((_deviation(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((_deviation(u, v) for u, v in zip(a, b)), default=0.0)
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b)
    return 0.0 if type(a) is type(b) and a == b else float("inf")


def test_regenerated_corpus_matches_the_checked_in_one(tmp_path, capsys):
    sys.path.insert(0, str(HERE))
    try:
        import make_fixtures
    finally:
        sys.path.remove(str(HERE))
    make_fixtures.main(tmp_path)
    capsys.readouterr()
    names = sorted(path.name for path in FIXTURES.glob("*.cstar.json"))
    assert sorted(path.name for path in tmp_path.glob("*.cstar.json")) == names
    assert verdict_table(tmp_path) == json.loads(TABLE.read_text())
    far = {name: dev for name in names
           if (dev := _deviation(json.loads((FIXTURES / name).read_text()),
                                 json.loads((tmp_path / name).read_text()))) > 1e-12}
    assert not far, far


if __name__ == "__main__":
    rows = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(verdict_table().items())]
    TABLE.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    sys.exit(0)
