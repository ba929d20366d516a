"""File format round-trips, fixture corpus, CLI verbs and exit codes."""

import json
import pathlib

import numpy as np
import pytest

from cstarcat.cli import main
from cstarcat.errors import ParseError
from cstarcat.io import (
    dumps_canonical,
    encode_matrix,
    load_specfile,
    realize,
    save_specfile,
    specfile_for,
)

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
ALL_FIXTURES = sorted(FIXTURES.glob("*.cstar.json"))


def test_fixture_corpus_is_large_enough():
    assert len(ALL_FIXTURES) >= 20


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
def test_round_trip_is_byte_identical(path):
    original = path.read_bytes()
    spec = load_specfile(path)
    again = dumps_canonical(spec.to_obj()).encode("utf-8")
    assert again == original


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
def test_fixtures_realize(path):
    spec = load_specfile(path)
    obj = realize(spec)
    # a second serialization of the realized object is stable too
    assert dumps_canonical(specfile_for(obj).to_obj()).encode() == path.read_bytes()


def test_verify_exit_codes(tmp_path):
    good = FIXTURES / "category_block_0.cstar.json"
    assert main(["verify", str(good)]) == 0

    truncated = tmp_path / "broken.cstar.json"
    truncated.write_text(good.read_text()[:100])
    assert main(["verify", str(truncated)]) == 2

    # mutate one basis entry: mathematical failure, named check
    spec = load_specfile(good)
    spec.payload["homs"][0]["basis"][0][0][0][0] += 1e-4
    mutated = tmp_path / "mutated.cstar.json"
    save_specfile(mutated, spec)
    assert main(["verify", str(mutated)]) == 1


def test_verify_all_kinds(capsys):
    for name in ("category_block_1", "groupoid_cyclic_2", "module_1", "bimodule_twist_1"):
        code = main(["verify", str(FIXTURES / f"{name}.cstar.json"), "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"] == "pass"
        assert out["checks"] and all("residual" in c for c in out["checks"])
        assert out["inputs"]


def test_tolerance_env_and_flag(tmp_path, monkeypatch, capsys):
    good = FIXTURES / "category_block_0.cstar.json"
    spec = load_specfile(good)
    spec.payload["homs"][0]["basis"][0][0][0][0] += 1e-6
    mutated = tmp_path / "mutated.cstar.json"
    save_specfile(mutated, spec)
    assert main(["verify", str(mutated)]) == 1
    monkeypatch.setenv("CSTARCAT_TOL_ABS", "1e-3")
    assert main(["verify", str(mutated)]) == 0
    # the flag wins over the environment
    assert main(["verify", str(mutated), "--tol-abs", "1e-9"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("env, flags", [
    ("abc", []),
    (None, ["--tol-abs", "nan"]),
    (None, ["--tol-abs", "inf"]),
    (None, ["--tol-abs", "-1"]),
    (None, ["--tol-rel", "-1"]),
], ids=["env-abc", "abs-nan", "abs-inf", "abs-negative", "rel-negative"])
def test_bad_tolerance_is_input_error(monkeypatch, capsys, env, flags):
    if env is None:
        monkeypatch.delenv("CSTARCAT_TOL_ABS", raising=False)
    else:
        monkeypatch.setenv("CSTARCAT_TOL_ABS", env)
    assert main(["verify", str(FIXTURES / "category_block_0.cstar.json"), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "tolerance" in captured.err


def test_gen_is_deterministic(tmp_path):
    a = tmp_path / "a.cstar.json"
    b = tmp_path / "b.cstar.json"
    args = ["gen", "category", "--seed", "11", "--objects", "2"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_is_idempotent(tmp_path):
    src = FIXTURES / "category_block_0.cstar.json"
    out1 = tmp_path / "hull1.cstar.json"
    out2 = tmp_path / "hull2.cstar.json"
    assert main(["construct", "hull", str(src), "--out", str(out1)]) == 0
    assert main(["construct", "hull", str(src), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert main(["verify", str(out1)]) == 0


def test_construct_multiplier_realization(tmp_path):
    src = FIXTURES / "category_block_2.cstar.json"
    out = tmp_path / "mult.cstar.json"
    assert main(["construct", "multiplier", str(src), "--out", str(out)]) == 0
    spec = load_specfile(out)
    cat = realize(spec)
    original = realize(load_specfile(src))
    for x in range(cat.n_objects):
        for y in range(cat.n_objects):
            assert cat.hom_dim(x, y) == original.hom_dim(x, y)


def test_construct_conjugate_and_morita(tmp_path, capsys):
    src = FIXTURES / "bimodule_twist_0.cstar.json"
    out = tmp_path / "conj.cstar.json"
    assert main(["construct", "conjugate", str(src), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    assert main(["morita", str(src), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    names = [c["name"] for c in payload["checks"]]
    assert any(name.startswith("target-map:") for name in names)
    assert any(name.startswith("source-map:") for name in names)


def test_tensor_with_oracle(tmp_path, capsys):
    mod = FIXTURES / "module_0.cstar.json"
    bim = FIXTURES / "bimodule_twist_0.cstar.json"
    out = tmp_path / "tensored.cstar.json"
    assert main(["tensor", str(mod), str(bim), "--oracle", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0


def test_tensor_mismatch_is_input_error(capsys):
    mod = FIXTURES / "module_1.cstar.json"  # over category seed 1
    bim = FIXTURES / "bimodule_twist_0.cstar.json"  # over category seed 0
    assert main(["tensor", str(mod), str(bim)]) == 2
    capsys.readouterr()


def test_ew_command(capsys):
    bim = FIXTURES / "bimodule_twist_2.cstar.json"
    assert main(["ew", str(bim), "--count", "2", "--seed", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["verdict"] == "pass"


def test_load_rejects_bad_kind(tmp_path):
    path = tmp_path / "weird.cstar.json"
    path.write_text('{"kind": "sandwich", "version": "1", "payload": {}}')
    with pytest.raises(ParseError):
        load_specfile(path)


def test_matrix_codec_round_trip():
    from cstarcat.io import decode_matrix, encode_matrix

    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    assert np.array_equal(decode_matrix(encode_matrix(m)), m)


@pytest.mark.parametrize("data, message", [
    ([[["0.5", 0.0]]], "pairs of numbers"),
    ([[[True, False]]], "pairs of numbers"),
    ([[[None, 0.0]]], "pairs of numbers"),
    ([[[float("nan"), 0.0]]], "non-finite"),
    ([[[0.0, float("-inf")]]], "non-finite"),
], ids=["string", "bool", "null", "nan", "infinite"])
def test_decode_matrix_takes_finite_numbers_only(data, message):
    from cstarcat.io import decode_matrix

    with pytest.raises(ParseError, match=message):
        decode_matrix(data)


def _reference_encode(mat):
    arr = np.asarray(mat, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def test_encode_matrix_matches_elementwise_form():
    from cstarcat.io import encode_matrix

    tiny = 5e-324  # smallest subnormal
    m = np.array([
        [complex(-0.0, 0.0), complex(0.0, -0.0), complex(tiny, -tiny)],
        [complex(-2.5e-310, 1e-308), complex(1.0, -0.0), complex(-0.0, -0.0)],
    ])
    ref = _reference_encode(m)
    assert json.dumps(encode_matrix(m)) == json.dumps(ref)
    assert json.dumps(encode_matrix(np.stack([m, -m]))) == json.dumps([ref, _reference_encode(-m)])
    assert all(type(v) is float for row in encode_matrix(m) for z in row for v in z)


@pytest.mark.parametrize("mutate", [
    lambda p: p.pop("base"),
    lambda p: p.update(base="01"),
    lambda p: p.update(base=[0, 7]),
    lambda p: p.pop("proj"),
    lambda p: p.update(generators=[{"col": p.pop("proj")}]),
    lambda p: p["category"]["objects"][0].pop("dim"),
    lambda p: p["proj"][0][0].__setitem__(0, "0.5"),
], ids=["no-base", "string-base", "base-out-of-range", "no-proj", "generators-no-proj", "no-dim",
        "string-entry"])
def test_malformed_module_payload_is_input_error(tmp_path, capsys, mutate):
    """A module payload is (base, proj) only: a generating-element form
    without ``"proj"`` is unreadable like any other malformed payload."""
    spec = load_specfile(FIXTURES / "module_1.cstar.json")
    mutate(spec.payload)
    path = tmp_path / "module.cstar.json"
    save_specfile(path, spec)
    assert main(["verify", str(path)]) == 2
    with pytest.raises(ParseError):
        realize(spec)
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_non_finite_action_entry_is_named_as_such(tmp_path, capsys):
    """A NaN in an action block is reported as non-finite, not as a shape
    error, and the file is unreadable input."""
    spec = load_specfile(FIXTURES / "bimodule_twist_0.cstar.json")
    spec.payload["mor_map"][0]["blocks"][0][0][0][0] = float("nan")
    path = tmp_path / "bimodule.cstar.json"
    path.write_text(json.dumps(spec.to_obj()))  # canonical dumps refuses NaN
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "non-finite" in err and "shape" not in err


@pytest.mark.parametrize("entry", [
    {"src": 7, "dst": 0},
    {"src": 0, "dst": -1},
    {"src": "0", "dst": 0},
    {"src": 0, "dst": 0},
], ids=["src-out-of-range", "negative-dst", "string-src", "repeated-pair"])
def test_bad_hom_key_is_input_error(tmp_path, capsys, entry):
    spec = load_specfile(FIXTURES / "category_block_0.cstar.json")
    assert spec.payload["homs"][0]["src"] == 0 and spec.payload["homs"][0]["dst"] == 0
    spec.payload["homs"].append(dict(spec.payload["homs"][0], **entry))
    path = tmp_path / "category.cstar.json"
    save_specfile(path, spec)
    assert main(["verify", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("mutate", [
    lambda p: p["comp"][0].__setitem__(1, 1.5),
    lambda p: p["inv"].__setitem__(1, "1"),
    lambda p: p["identity"].__setitem__(0, False),
    lambda p: p["morphisms"][1].__setitem__("src", 0.9),
    lambda p: p["comp"][0].__setitem__(1, float("inf")),
], ids=["fractional-comp", "string-inv", "bool-identity", "fractional-src", "infinite-comp"])
def test_groupoid_index_of_wrong_type_is_input_error(tmp_path, capsys, mutate):
    """Every groupoid index is a JSON integer: none is rounded or cast."""
    spec = load_specfile(FIXTURES / "groupoid_cyclic_2.cstar.json")
    mutate(spec.payload)
    path = tmp_path / "groupoid.cstar.json"
    path.write_text(json.dumps(spec.to_obj()))  # canonical dumps refuses Infinity
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("obj", [0.9, "0", True], ids=["fractional", "string", "bool"])
def test_idem_projection_object_of_wrong_type_is_input_error(tmp_path, capsys, obj):
    """``construct idem --projections`` takes each object index as a JSON
    integer, as the file format does: none is rounded or cast."""
    src = FIXTURES / "category_block_0.cstar.json"
    eye = encode_matrix(np.eye(realize(load_specfile(src)).dim(0)))
    path = tmp_path / "projections.json"
    args = ["construct", "idem", str(src), "--projections", str(path)]
    path.write_text(json.dumps([{"object": 0, "mat": eye}]))
    assert main(args) == 0
    capsys.readouterr()
    path.write_text(json.dumps([{"object": obj, "mat": eye}]))
    assert main(args) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("obj, size", [(7, 2), (0, 5)], ids=["out-of-range", "wrong-shape"])
def test_idem_projection_out_of_range_or_misshapen_is_input_error(tmp_path, capsys, obj, size):
    """The projections file is checked as it is read: an object the
    category lacks, or a matrix of the wrong size for its object, makes the
    file unreadable (exit 2, one ``error:`` line), not a failed construction."""
    src = FIXTURES / "category_block_0.cstar.json"
    assert [d for _, d in realize(load_specfile(src)).objects] == [2, 2]
    path = tmp_path / "projections.json"
    path.write_text(json.dumps([{"object": obj, "mat": encode_matrix(np.eye(size))}]))
    assert main(["construct", "idem", str(src), "--projections", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: bad projections file")


def test_verify_module_checks_its_category(tmp_path, capsys):
    """``verify`` on a module also verifies its category: with an empty
    basis for hom(0, 0), object 0 has no identity and the module fails."""
    spec = load_specfile(FIXTURES / "module_0.cstar.json")
    homs = spec.payload["category"]["homs"]
    next(h for h in homs if (h["src"], h["dst"]) == (0, 0))["basis"] = []
    path = tmp_path / "module.cstar.json"
    save_specfile(path, spec)
    assert main(["verify", str(path), "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    failed = [c["name"] for c in checks if not c["pass"]]
    assert failed and all(name.startswith("category:") for name in failed)


def test_bad_action_key_is_input_error(tmp_path, capsys):
    spec = load_specfile(FIXTURES / "bimodule_twist_0.cstar.json")
    n = len(spec.payload["source"]["objects"])
    spec.payload["mor_map"].append(dict(spec.payload["mor_map"][0], src=n))
    path = tmp_path / "bimodule.cstar.json"
    save_specfile(path, spec)
    assert main(["verify", str(path)]) == 2
    capsys.readouterr()


def test_failed_construction_is_a_failure_not_an_input_error(tmp_path, capsys):
    # doubled action blocks on hom(0,0): the file parses and realizes, but
    # the conjugate's Gram is not positive, so `morita` fails (exit 1)
    spec = load_specfile(FIXTURES / "bimodule_twist_0.cstar.json")
    for entry in spec.payload["mor_map"]:
        if (entry["src"], entry["dst"]) == (0, 0):
            entry["blocks"] = (2 * np.asarray(entry["blocks"])).tolist()
    path = tmp_path / "doubled.cstar.json"
    save_specfile(path, spec)
    realize(load_specfile(path))
    assert main(["morita", str(path)]) == 1
    err = capsys.readouterr().err
    assert "positive semidefinite" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["gen", "category", "--objects", "0"],
    ["gen", "groupoid", "--family", "cyclic", "--n", "0"],
    ["gen", "module"],
    ["gen", "bimodule", "--seed", "1"],
], ids=["no-objects", "empty-group", "module-without-category", "bimodule-without-category"])
def test_bad_generation_parameter_is_input_error(capsys, args):
    # argparse reports a bad argument by raising SystemExit(2)
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
