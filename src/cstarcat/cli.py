"""Command line: verify, construct, tensor, morita, ew, gen.

Exit status is a stable contract: 0 when every check passes, 1 when a
verification or construction fails, 2 when an input cannot be parsed or
realized.  Reports are machine-readable and always include every residual.
Tolerances come from flags, falling back to the CSTARCAT_TOL_ABS environment
variable and then the library default; a tolerance that is not a finite,
non-negative number is an unreadable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import EngineError, InvalidInput, ParseError
from .linalg import Tolerance, as_cmatrix, default_tolerance, orthonormal_span
from .category import (
    AdditiveHull,
    CStarCategory,
    _projection_report,
    idempotent_completion,
    matrix_algebra,
    verify_category,
)

from .bimodules import (
    tensor_bimodule_bimodule,
    tensor_cross_check,
    tensor_module_bimodule,
    verify_bimodule,
    check_nondegenerate,
)
from .multipliers import MultiplierCategory
from .morita import (
    check_imprimitivity,
    conjugate_bimodule,
    eilenberg_watts_map,
    morita_source_map,
    morita_target_map,
)
from .generators import (
    FiniteGroupoid,
    groupoid_category,
    random_block_category,
    random_module,
    unitary_twist_functor,
    bimodule_from_functor,
)
from .io import (
    SpecFile,
    FORMAT_VERSION,
    bimodule_from_payload,
    category_from_payload,
    decode_matrix,
    decode_module_payload,
    digest_file,
    load_specfile,
    module_from_payload,
    realize,
    save_specfile,
    specfile_for,
)
from .report import Report


def _tolerance(args) -> Tolerance:
    base = default_tolerance()
    atol = args.tol_abs
    if atol is None:
        atol = os.environ.get("CSTARCAT_TOL_ABS") or base.atol
    rtol = args.tol_rel if args.tol_rel is not None else base.rtol
    try:
        return Tolerance(atol=float(atol), rtol=float(rtol))
    except (ValueError, InvalidInput) as exc:
        raise ParseError(f"bad tolerance: {exc}") from None


def _emit(command: str, inputs: list[str], report: Report, started: float,
          fmt: str) -> None:
    payload = {
        "command": command,
        "inputs": [digest_file(p) for p in inputs],
        "verdict": "pass" if report.passed else "fail",
        "checks": [c.to_dict() for c in report.checks],
        "timing": round(time.time() - started, 6),
    }
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(str(report))
        print(f"verdict: {payload['verdict']} ({payload['timing']}s)")


def _save(args, spec: SpecFile) -> None:
    if args.out:
        save_specfile(args.out, spec)


def _load_kind(path, kind: str) -> SpecFile:
    spec = load_specfile(path)
    if spec.kind != kind:
        raise ParseError(f"{path}: expected one of {(kind,)}, got {spec.kind!r}")
    return spec


def _read(path, kind: str, tol: Tolerance):
    """The object of ``kind`` that the file at ``path`` describes."""
    return realize(_load_kind(path, kind), tol)


# -- verify -----------------------------------------------------------------


def cmd_verify(args) -> tuple[str, list, Report]:
    tol = _tolerance(args)
    spec = load_specfile(args.path)
    if spec.kind == "category":
        report = verify_category(realize(spec, tol), tol, seed=args.seed)
    elif spec.kind == "module":
        cat, base, proj = decode_module_payload(spec.payload, tol)
        report = _projection_report(cat, base, proj, tol)
        report.extend(verify_category(cat, tol, seed=args.seed), prefix="category:")
    elif spec.kind == "bimodule":
        report = verify_bimodule(realize(spec, tol), tol, seed=args.seed)
    else:
        report = Report(context="groupoid")
        try:
            G = realize(spec)
            report.add("groupoid-axioms", 0.0, 0.5)
            cat_report = verify_category(groupoid_category(G, tol), tol, seed=args.seed)
            report.extend(cat_report, prefix="category:")
        except InvalidInput:
            report.add("groupoid-axioms", 1.0, 0.5)
    return "verify", [args.path], report


# -- construct ----------------------------------------------------------------


def _multiplier_realization(cat, tol) -> SpecFile:
    """Category realized through the multiplier solve and κ-inverse."""
    mult = MultiplierCategory(cat, tol)
    homs = {}
    for (x, y), space in mult.spaces.items():
        if len(space) != cat.hom_dim(x, y):
            raise InvalidInput(
                f"multiplier space at ({x},{y}) has dimension {len(space)}, "
                f"hom-space has {cat.hom_dim(x, y)}; unital collapse failed"
            )
        if space:
            homs[(x, y)] = orthonormal_span([mult.kappa_inverse(m).mat for m in space], tol)
    return specfile_for(CStarCategory(cat.objects, homs, tol=tol))


def cmd_construct(args) -> tuple[str, list, Report]:
    tol = _tolerance(args)
    command = f"construct-{args.what}"
    report = Report(context=command)
    if args.what == "conjugate":
        data, cert = check_imprimitivity(_read(args.path, "bimodule", tol), tol)
        report.extend(cert, prefix="certificate:")
        if data is None:
            return command, [args.path], report
        conj = conjugate_bimodule(data, tol)
        out = specfile_for(conj)
        report.extend(verify_bimodule(conj, tol), prefix="output:")
    else:
        cat = _read(args.path, "category", tol)
        if args.what == "hull":
            out = specfile_for(AdditiveHull(cat, tol=tol).cat)
        elif args.what == "matalg":
            out = specfile_for(matrix_algebra(cat, tol).cat)
        elif args.what == "idem":
            projections = None
            if args.projections:
                try:
                    with open(args.projections, "r", encoding="utf-8") as fh:
                        raw = json.load(fh)
                    projections = {}
                    for entry in raw:
                        x = cat.check_object(entry["object"])
                        mat = as_cmatrix(decode_matrix(entry["mat"]), cat.dim(x), cat.dim(x))
                        projections.setdefault(x, []).append(mat)
                except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
                        InvalidInput) as exc:
                    raise ParseError(f"bad projections file: {exc!r}") from exc
            out = specfile_for(idempotent_completion(cat, projections, tol).cat)
        else:
            out = _multiplier_realization(cat, tol)
        check = verify_category(category_from_payload(out.payload, tol), tol)
        report.extend(check, prefix="output:")
    _save(args, out)
    return command, [args.path], report


# -- tensor -------------------------------------------------------------------


def cmd_tensor(args) -> tuple[str, list, Report]:
    tol = _tolerance(args)
    left, right = load_specfile(args.left), _load_kind(args.right, "bimodule")
    report = Report(context="tensor")
    if left.kind == "module":
        if left.payload.get("category") != right.payload.get("source"):
            raise ParseError("module category and bimodule source do not match")
        E = realize(right, tol)
        M = module_from_payload(left.payload, tol, cat=E.source)
        tensor = tensor_module_bimodule(M, E)
        out = specfile_for(tensor.module)
        if args.oracle:
            report.extend(tensor_cross_check(M, E, tol), prefix="oracle:")
        else:
            report.add("tensor-built", 0.0, 0.5)
    elif left.kind == "bimodule":
        F = realize(left, tol)
        E = bimodule_from_payload(right.payload, tol, source=F.target)
        composite = tensor_bimodule_bimodule(F, E)
        out = specfile_for(composite)
        report.extend(verify_bimodule(composite, tol), prefix="output:")
    else:
        raise ParseError("tensor needs a module or bimodule on the left")
    _save(args, out)
    return "tensor", [args.left, args.right], report


# -- morita -------------------------------------------------------------------


def cmd_morita(args) -> tuple[str, list, Report]:
    tol = _tolerance(args)
    E = _read(args.path, "bimodule", tol)
    report = Report(context="morita")
    report.extend(verify_bimodule(E, tol), prefix="bimodule:")
    data, cert = check_imprimitivity(E, tol, seed=args.seed)
    report.extend(cert, prefix="imprimitivity:")
    if data is not None:
        conj = conjugate_bimodule(data, tol)
        phi = morita_target_map(data, conj)
        psi = morita_source_map(data, conj)
        report.extend(phi.verify_natural(tol), prefix="target-map:")
        report.extend(phi.unitary_report(tol), prefix="target-map:")
        report.extend(psi.verify_natural(tol), prefix="source-map:")
        report.extend(psi.unitary_report(tol), prefix="source-map:")
    return "morita", [args.path], report


# -- eilenberg-watts ------------------------------------------------------------


def cmd_ew(args) -> tuple[str, list, Report]:
    tol = _tolerance(args)
    E = _read(args.path, "bimodule", tol)
    ok, nd_report = check_nondegenerate(E, tol)
    report = Report(context="eilenberg-watts")
    report.extend(nd_report, prefix="precondition:")
    if ok:
        worst: dict[str, tuple[float, float]] = {}
        for k in range(args.count):
            M = random_module(args.seed + k, E.source)
            _, sub = eilenberg_watts_map(M, E, tol)
            for check in sub.checks:
                prev = worst.get(check.name)
                if prev is None or check.residual > prev[0]:
                    worst[check.name] = (check.residual, check.threshold)
        for name in sorted(worst):
            residual, threshold = worst[name]
            report.add(f"worst:{name}", residual, threshold)
    return "ew", [args.path], report


# -- gen ------------------------------------------------------------------------


def cmd_gen(args) -> tuple[str, list, Report]:
    tol = _tolerance(args)
    report = Report(context=f"gen-{args.kind}")
    if args.kind == "category":
        cat, _ = random_block_category(
            args.seed, n_objects=args.objects, n_sectors=args.sectors,
            max_mult=args.max_mult, max_sector_dim=args.max_sector_dim, tol=tol,
        )
        out = specfile_for(cat)
        report.extend(verify_category(cat, tol), prefix="output:")
    elif args.kind == "groupoid":
        if args.family == "cyclic":
            G = FiniteGroupoid.cyclic(args.n)
        else:
            G = FiniteGroupoid.codiscrete(args.n)
        out = specfile_for(G)
        report.add("groupoid-axioms", 0.0, 0.5)
    elif args.category is None:
        raise ParseError(f"gen {args.kind} needs --category")
    elif args.kind == "module":
        module = random_module(args.seed, _read(args.category, "category", tol),
                               max_base=args.max_base)
        out = specfile_for(module)
        report.add("module-built", 0.0, 0.5)
    else:
        cat = _read(args.category, "category", tol)
        E = bimodule_from_functor(unitary_twist_functor(cat, seed=args.seed), tol)
        out = specfile_for(E)
        report.extend(verify_bimodule(E, tol), prefix="output:")
    _save(args, out)
    return f"gen-{args.kind}", [args.category] if args.category else [], report


# -- entry ----------------------------------------------------------------------


def _positive(text: str) -> int:
    if int(text) <= 0:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return int(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-abs", type=float, default=None,
                   help="absolute tolerance (overrides CSTARCAT_TOL_ABS)")
    p.add_argument("--tol-rel", type=float, default=None, help="relative tolerance")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstarcat",
        description=f"Finite-dimensional C*-category engine (format v{FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a serialized object")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="build a derived object")
    p.add_argument("what", choices=("hull", "matalg", "idem", "multiplier", "conjugate"))
    p.add_argument("path")
    p.add_argument("--out", default=None)
    p.add_argument("--projections", default=None,
                   help="JSON list of {object, mat} for idem")
    _add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("tensor", help="tensor a module or bimodule with a bimodule")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out", default=None)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the quotient construction")
    _add_common(p)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("morita", help="imprimitivity certificate and witness maps")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_morita)

    p = sub.add_parser("ew", help="reconstruction check over random modules")
    p.add_argument("path")
    p.add_argument("--count", type=int, default=5)
    _add_common(p)
    p.set_defaults(func=cmd_ew)

    p = sub.add_parser("gen", help="generate a deterministic test object")
    p.add_argument("kind", choices=("category", "groupoid", "module", "bimodule"))
    p.add_argument("--out", default=None)
    p.add_argument("--objects", type=_positive, default=3)
    p.add_argument("--sectors", type=_positive, default=2)
    p.add_argument("--max-mult", type=_positive, default=2)
    p.add_argument("--max-sector-dim", type=_positive, default=2)
    p.add_argument("--family", choices=("cyclic", "codiscrete"), default="codiscrete")
    p.add_argument("--n", type=_positive, default=2)
    p.add_argument("--category", default=None,
                   help="category file for module/bimodule generation")
    p.add_argument("--max-base", type=_positive, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    """Run one verb: 0 when its report passes, 1 when it fails or a
    construction raises, 2 for unreadable input."""
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        command, inputs, report = args.func(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1
    _emit(command, inputs, report, started, args.format)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
