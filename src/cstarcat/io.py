"""Serialization: one self-describing JSON format for every object kind.

Complex scalars are stored as two-element [re, im] arrays; files carry an
explicit kind and format version and use the extension ``.cstar.json``.
Serialization is canonical (sorted keys, fixed separators), so identical
inputs produce byte-identical files and serialize/deserialize round-trips
exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ParseError
from .linalg import Tolerance, resolve_tol
from .category import CStarCategory
from .modules import HilbertModule
from .bimodules import Bimodule
from .generators import FiniteGroupoid

__all__ = [
    "FORMAT_VERSION",
    "FILE_EXTENSION",
    "SpecFile",
    "encode_matrix",
    "decode_matrix",
    "category_payload",
    "category_from_payload",
    "module_payload",
    "decode_module_payload",
    "module_from_payload",
    "bimodule_payload",
    "bimodule_from_payload",
    "groupoid_payload",
    "groupoid_from_payload",
    "specfile_for",
    "realize",
    "dumps_canonical",
    "save_specfile",
    "load_specfile",
    "digest_bytes",
    "digest_file",
]

FORMAT_VERSION = "1"
FILE_EXTENSION = ".cstar.json"


@dataclass
class SpecFile:
    kind: str
    version: str
    payload: dict

    def to_obj(self) -> dict:
        return {"kind": self.kind, "version": self.version, "payload": self.payload}


def encode_matrix(mat) -> list:
    """Nested ``[re, im]`` lists of a matrix, or of each matrix of a stack."""
    arr = np.asarray(mat, dtype=np.complex128)
    return np.stack([arr.real, arr.imag], -1).tolist()


def decode_matrix(data) -> np.ndarray:
    """The matrix, or stack, of nested ``[re, im]`` pairs of finite numbers."""
    try:
        arr = np.asarray(data)
        if arr.dtype.kind not in "iuf" or arr.ndim != 3 or arr.shape[2] != 2:
            raise ValueError("matrix entries must be [re, im] pairs of numbers")
        if not np.isfinite(arr).all():
            raise ValueError("matrix has non-finite entries")
        return arr[..., 0] + 1j * arr[..., 1]
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad matrix data: {exc}") from exc


# what indexing a malformed payload raises: a missing key, a value of the
# wrong JSON type, or a string where a number belongs
_PAYLOAD_ERRORS = (KeyError, IndexError, TypeError, ValueError, AttributeError)


def _build(kind, *args, **kwargs):
    """``kind(*args)``; data that the constructor rejects is unreadable input."""
    try:
        return kind(*args, **kwargs)
    except InvalidInput as exc:
        raise ParseError(f"bad {kind.__name__} data: {exc}") from exc


def _index(value, what: str) -> int:
    """A JSON integer (not a bool, float or string)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _pair_entries(entries, field: str, decode, what: str) -> dict:
    """Map (src, dst) -> decoded list of ``field``, rejecting repeated pairs."""
    out = {}
    for entry in entries:
        key = (_index(entry["src"], f"{what} src"), _index(entry["dst"], f"{what} dst"))
        if key in out:
            raise ParseError(f"{what} entry {key} appears twice")
        out[key] = decode(entry[field])
    return out


def _pair_payload(n: int, stack, field: str) -> list:
    """The entries ``_pair_entries`` reads: one per pair (src, dst) of the
    n objects whose ``stack(src, dst)`` is not empty, encoded as ``field``."""
    return [{"src": x, "dst": y, field: encode_matrix(s)}
            for x in range(n) for y in range(n) if len(s := stack(x, y))]


def category_payload(cat: CStarCategory) -> dict:
    return {
        "objects": [{"label": l, "dim": d} for l, d in cat.objects],
        "homs": _pair_payload(cat.n_objects, cat.hom_basis, "basis"),
    }


def category_from_payload(payload: dict, tol: Tolerance | None = None) -> CStarCategory:
    try:
        objects = [(o["label"], _index(o["dim"], "object dim")) for o in payload["objects"]]
        homs = _pair_entries(payload["homs"], "basis",
                             lambda basis: [decode_matrix(b) for b in basis], "hom")
    except _PAYLOAD_ERRORS as exc:
        raise ParseError(f"bad category payload: {exc!r}") from exc
    # files always carry orthonormal bases; keeping them verbatim preserves
    # the alignment of any coordinates stored alongside (bimodule actions)
    return _build(CStarCategory, objects, homs, tol=resolve_tol(tol), assume_orthonormal=True)


def module_payload(module: HilbertModule) -> dict:
    return {
        "category": category_payload(module.cat),
        "base": list(module.base),
        "proj": encode_matrix(module.proj),
    }


def decode_module_payload(payload: dict, tol: Tolerance | None = None,
                          cat: CStarCategory | None = None):
    """The (category, base, projection) a module payload describes.

    A payload is a (base, projection) presentation; one without ``"proj"``
    is unreadable.  Checks shapes and object indices only; whether the
    matrix is a projection in the block hom-space is left to the caller.
    """
    tol = resolve_tol(tol)
    try:
        if cat is None:
            cat = category_from_payload(payload["category"], tol)
        base = tuple(_index(x, "base entry") for x in payload["base"])
        if not all(0 <= x < cat.n_objects for x in base):
            raise ParseError(f"base {base} names an object outside the category")
        proj = decode_matrix(payload["proj"])
    except _PAYLOAD_ERRORS as exc:
        raise ParseError(f"bad module payload: {exc!r}") from exc
    expected = sum(cat.dim(x) for x in base)
    if proj.shape != (expected, expected):
        raise ParseError(f"projection has shape {proj.shape}, expected {expected}")
    return cat, base, proj


def module_from_payload(payload: dict, tol: Tolerance | None = None,
                        cat: CStarCategory | None = None) -> HilbertModule:
    """Rebuild a module from its payload (see ``decode_module_payload``)."""
    tol = resolve_tol(tol)
    cat, base, proj = decode_module_payload(payload, tol, cat)
    return _build(HilbertModule, cat, base, proj, tol=tol)


def bimodule_payload(E: Bimodule) -> dict:
    return {
        "source": category_payload(E.source),
        "target": category_payload(E.target),
        "ob_map": [
            {"base": list(E.ob(x).base), "proj": encode_matrix(E.ob(x).proj)}
            for x in range(E.source.n_objects)
        ],
        "mor_map": _pair_payload(E.source.n_objects, E.mor_stack, "blocks"),
    }


def bimodule_from_payload(payload: dict, tol: Tolerance | None = None,
                          source: CStarCategory | None = None) -> Bimodule:
    """Rebuild a bimodule; pass ``source`` to share a category instance,
    which requires its payload to match exactly."""
    tol = resolve_tol(tol)
    try:
        if source is not None and category_payload(source) != payload["source"]:
            raise ParseError("provided source category does not match the payload")
        if source is None:
            source = category_from_payload(payload["source"], tol)
        target = category_from_payload(payload["target"], tol)
        ob_map = [
            module_from_payload(spec, tol, cat=target) for spec in payload["ob_map"]
        ]
        mor_blocks = _pair_entries(payload["mor_map"], "blocks",
                                   lambda blocks: np.stack([decode_matrix(b) for b in blocks]),
                                   "action")
    except _PAYLOAD_ERRORS as exc:
        raise ParseError(f"bad bimodule payload: {exc!r}") from exc
    return _build(Bimodule, source, target, ob_map, mor_blocks, tol=tol)


def groupoid_payload(G: FiniteGroupoid) -> dict:
    comp = [[G.comp.get((g, h), -1) for h in range(G.n_morphisms)]
            for g in range(G.n_morphisms)]
    return {
        "objects": list(G.objects),
        "morphisms": [{"name": n, "src": s, "dst": d} for n, s, d in G.morphisms],
        "comp": comp,
        "inv": list(G.inv),
        "identity": list(G.identity),
    }


def groupoid_from_payload(payload: dict) -> FiniteGroupoid:
    """Rebuild a groupoid; a ``comp`` entry below 0 marks a pair that does
    not compose."""
    try:
        morphisms = [(m["name"], _index(m["src"], "morphism src"),
                      _index(m["dst"], "morphism dst")) for m in payload["morphisms"]]
        comp = {(g, h): k for g, row in enumerate(payload["comp"]) for h, k in enumerate(row)
                if _index(k, "comp entry") >= 0}
        return FiniteGroupoid(payload["objects"], morphisms, comp,
                              [_index(g, "inv entry") for g in payload["inv"]],
                              [_index(g, "identity entry") for g in payload["identity"]])
    except _PAYLOAD_ERRORS as exc:
        raise ParseError(f"bad groupoid payload: {exc!r}") from exc


# each kind's type, payload writer and payload reader ``(payload, tol)``
_KINDS = {
    "category": (CStarCategory, category_payload, category_from_payload),
    "module": (HilbertModule, module_payload, module_from_payload),
    "bimodule": (Bimodule, bimodule_payload, bimodule_from_payload),
    "groupoid": (FiniteGroupoid, groupoid_payload, lambda p, tol: groupoid_from_payload(p)),
}


def _kind(kind):
    """The ``_KINDS`` entry of a kind name."""
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    return _KINDS[kind]


def specfile_for(obj) -> SpecFile:
    for kind, (cls, write, _) in _KINDS.items():
        if isinstance(obj, cls):
            return SpecFile(kind, FORMAT_VERSION, write(obj))
    raise ParseError(f"no file format for objects of type {type(obj).__name__}")


def realize(spec: SpecFile, tol: Tolerance | None = None):
    """Instantiate the object a spec file describes."""
    return _kind(spec.kind)[2](spec.payload, tol)


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def save_specfile(path, spec: SpecFile) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(spec.to_obj()))


def load_specfile(path) -> SpecFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    kind = obj.get("kind")
    version = obj.get("version")
    payload = obj.get("payload")
    _kind(kind)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version!r}")
    if not isinstance(payload, dict):
        raise ParseError("payload must be an object")
    return SpecFile(kind, version, payload)


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_file(path) -> str:
    with open(path, "rb") as fh:
        return digest_bytes(fh.read())
