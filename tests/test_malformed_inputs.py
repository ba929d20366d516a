"""Malformed copies of every fixture keep the CLI's exit-code contract.

Each fixture's payload is walked in a fixed order.  Its positions are grouped
by their shape, the path with every list index replaced by ``*`` (so a hom's
``src``, a basis entry or a module's base entry is one shape each), and each
mutation alters the first position of every shape it applies to:

- ``delete``: a key removed from an object;
- ``string``: a number written as a string;
- ``inf`` / ``nan``: a number replaced by ``Infinity`` / ``NaN``;
- ``fraction``: an integer (an index or a dimension) replaced by 1.5;
- ``empty``: a non-empty list replaced by ``[]``.

``verify`` runs on every copy and ``morita`` on the bimodule copies; each run
must exit 0, 1 or 2 and write no traceback.  Every number in the format is a
matrix entry or an integer, so the four mutations of a number make the file
unreadable: those runs must exit 2 with one ``error:`` line.

The ``--projections`` file of ``construct idem`` (a list of ``{object,
mat}``) takes the same mutations, walked from its top-level list, plus an
object out of range and a matrix of the wrong shape.  Each of them makes the
file unreadable.
"""

import contextlib
import io
import json
import pathlib

import pytest

from cstarcat.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
ALL_FIXTURES = sorted(FIXTURES.glob("*.cstar.json"))


def _positions(node, path=()):
    """(path, value) of every key and list item under ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _positions(value, path + (key,))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


UNREADABLE = ("string", "inf", "nan", "fraction")
MUTATIONS = {
    "delete": (lambda path, v: isinstance(path[-1], str), None),
    "string": (lambda path, v: _is_number(v), lambda v: str(v)),
    "inf": (lambda path, v: _is_number(v), lambda v: float("inf")),
    "nan": (lambda path, v: _is_number(v), lambda v: float("nan")),
    "fraction": (lambda path, v: _is_number(v) and isinstance(v, int), lambda v: 1.5),
    "empty": (lambda path, v: isinstance(v, list) and len(v) > 0, lambda v: []),
}


def malformed_copies(root):
    """(label, mutated copy) of one decoded JSON value, in a fixed order."""
    for name, (applies, replace) in MUTATIONS.items():
        seen = set()
        for path, value in _positions(root):
            shape = tuple("*" if isinstance(k, int) else k for k in path)
            if shape in seen or not applies(path, value):
                continue
            seen.add(shape)
            copy = parent = json.loads(json.dumps(root))
            for key in path[:-1]:
                parent = parent[key]
            if replace is None:
                del parent[path[-1]]
            else:
                parent[path[-1]] = replace(value)
            yield f"{name} {'.'.join(map(str, path))}", copy


def _run(args) -> tuple[int | None, str]:
    """Exit code and stderr of one in-process run; an exception that escapes
    ``main`` (a traceback from the command line) gives code None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except Exception as exc:
            return None, f"{type(exc).__name__}: {exc}"
    return code, err.getvalue()


@pytest.mark.parametrize("fixture", ALL_FIXTURES, ids=lambda p: p.stem)
def test_malformed_copies_keep_the_exit_code_contract(fixture, tmp_path):
    obj = json.loads(fixture.read_text())
    verbs = ("verify", "morita") if obj["kind"] == "bimodule" else ("verify",)
    path, broken, count = tmp_path / fixture.name, [], 0
    for label, payload in malformed_copies(obj["payload"]):
        # NaN and Infinity as Python's json writes them
        path.write_text(json.dumps(dict(obj, payload=payload)))
        for verb in verbs:
            code, err = _run([verb, str(path)])
            count += 1
            if label.split()[0] in UNREADABLE:
                ok = code == 2 and len(err.splitlines()) == 1 and err.startswith("error:")
            else:
                ok = code in (0, 1, 2) and "Traceback" not in err
            if not ok:
                broken.append((verb, label, code, err.strip()[-200:]))
    assert count >= 10
    assert not broken, broken


def test_malformed_projections_files_are_unreadable(tmp_path):
    category = FIXTURES / "category_block_0.cstar.json"
    good = [{"object": x, "mat": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
            for x in (0, 1)]
    path = tmp_path / "projections.json"
    args = ["construct", "idem", str(category), "--projections", str(path)]
    path.write_text(json.dumps(good))
    assert _run(args)[0] == 0
    copies = list(malformed_copies(good))
    assert {label.split()[0] for label, _ in copies} == set(MUTATIONS)
    copies += [("range object", [dict(good[0], object=2)]),
               ("shape mat", [dict(good[0], mat=good[0]["mat"] + [good[0]["mat"][0]])])]
    broken = []
    for label, copy in copies:
        path.write_text(json.dumps(copy))
        code, err = _run(args)
        if not (code == 2 and len(err.splitlines()) == 1 and err.startswith("error:")):
            broken.append((label, code, err.strip()[-200:]))
    assert not broken, broken
