"""The three workloads: seeded inputs, one instance of user work, its checks.

``choose`` turns the workload seed into generator seeds, ``generate`` builds
the instances from them, and ``run`` returns one instance's checks as an
engine ``Report`` (each residual against its acceptance threshold) together
with the outputs ``sizes`` reads.

Each workload is a fixed catalogue of size classes ("slots").  The workload
seed chooses which generator seeds fill the slots, never the slots themselves,
so every seed runs the same mix of presentation sizes and costs about the
same.  A slot is matched exactly on the generator's hidden ``BlockStructure``
(sector dimensions and multiplicities per object); for ``reconstruction`` also
on the bimodule kind, the module's base list and its evaluation dimensions.
That search is the benchmark's own work, so it lives in ``choose``, which the
runner leaves out of the timed set-up.

Inputs are kept as plain arrays.  Every instance rebuilds its engine objects
from them, so no cache inside an engine object survives from one pass to the
next.  Engine functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from cstarcat import bimodules, category, generators, io, linalg, modules, morita, multipliers
from cstarcat.report import Report

SCAN_LIMIT = 400_000


@dataclass
class Instance:
    """One unit of user work: a size-class label and the plain inputs."""

    label: str
    data: dict = field(repr=False)


# -- seeded input generation ---------------------------------------------------


def block_structure(seed: int, n_objects: int, max_mult: int = 2,
                    n_sectors: int = 2, max_sector_dim: int = 2):
    """The ``BlockStructure`` that ``random_block_category`` draws first.

    Replays only the generator's first draws, so scanning thousands of seeds
    is cheap; ``_block_category`` checks the replay against the real generator.
    """
    rng = np.random.default_rng(seed)
    sector_dims = tuple(int(d) for d in rng.integers(1, max_sector_dim + 1, n_sectors))
    mults = rng.integers(0, max_mult + 1, size=(n_objects, n_sectors))
    for x in range(n_objects):
        if mults[x].sum() == 0:
            mults[x, rng.integers(0, n_sectors)] = 1
    return sector_dims, tuple(tuple(int(m) for m in row) for row in mults)


def _scan_block_seeds(keys, n_objects: int, max_mult: int, start: int,
                      symmetric: bool = False) -> list[tuple[int, tuple]]:
    """Distinct generator seeds from ``start`` upward, one per wanted structure.

    Returns (seed, structure) pairs.  With ``symmetric``, a structure also
    matches when it differs from the wanted one only by the order of the
    objects or of the sectors, which leaves every cost of the category alike.
    """
    waiting: dict = {}
    for i, key in enumerate(keys):
        for variant in (_variants(key) if symmetric else [key]):
            waiting.setdefault(variant, []).append(i)
    found: list = [None] * len(keys)
    left = len(keys)
    seed = start
    while left:
        if seed - start > SCAN_LIMIT:
            raise RuntimeError(f"no generator seed for structures {keys}")
        key = block_structure(seed, n_objects, max_mult)
        for i in waiting.get(key, ()):
            if found[i] is None:
                found[i] = (seed, key)
                left -= 1
                break
        seed += 1
    return found


def _variants(key) -> set:
    sector_dims, mults = key
    out = set()
    for objects in itertools.permutations(mults):
        for order in itertools.permutations(range(len(sector_dims))):
            out.add((tuple(sector_dims[s] for s in order),
                     tuple(tuple(row[s] for s in order) for row in objects)))
    return out


def _block_category(seed: int, n_objects: int, max_mult: int, key):
    cat, structure = generators.random_block_category(seed, n_objects=n_objects,
                                                      max_mult=max_mult)
    if (structure.sector_dims, structure.multiplicities) != key:
        raise RuntimeError("random_block_category no longer draws its structure first; "
                           "update block_structure()")
    return cat


def _start(seed: int, workload: int) -> int:
    """First generator seed scanned for a workload seed (far from acceptance seeds)."""
    return 10_000_000 * (1 + seed % 100_000) + 1_000_000 * workload


def _category_data(cat) -> dict:
    n = cat.n_objects
    return {
        "objects": cat.objects,
        "homs": {(x, y): cat.hom_basis(x, y).copy() for x in range(n) for y in range(n)
                 if cat.hom_dim(x, y)},
    }


def _rebuild_category(data: dict):
    return category.CStarCategory(data["objects"], data["homs"], assume_orthonormal=True)


def _dims(cat) -> tuple[int, ...]:
    return tuple(cat.dim(x) for x in range(cat.n_objects))


def _size_label(key, prefix: str = "") -> str:
    sector_dims, mults = key
    dims = tuple(sum(m * d for m, d in zip(row, sector_dims)) for row in mults)
    return prefix + "dims=" + "x".join(str(d) for d in dims)


# -- morita ----------------------------------------------------------------------

# Criterion-8 family (two objects, multiplicities up to 2).  One slot per size
# class of acceptance seeds 4, 13, 35, 33, 16, 24, 10, 1, 21, 6, 48, 5, 14, 11,
# 31, 2, 30, 3, 49, 8, 38, 0, 9, 39, 20: the first is the worst case (object
# dimensions {6, 8}, E (x) conj(E) of dimension 350) and carries about half of
# a pass at the seed commit.
MORITA_SLOTS = [
    ((2, 2), ((2, 1), (2, 2))),
    ((2, 2), ((2, 2), (0, 2))),
    ((1, 1), ((2, 1), (2, 2))),
    ((2, 1), ((1, 1), (2, 2))),
    ((2, 2), ((2, 1), (2, 0))),
    ((1, 1), ((2, 1), (2, 1))),
    ((2, 2), ((0, 1), (2, 2))),
    ((1, 2), ((2, 2), (0, 1))),
    ((1, 2), ((1, 1), (1, 2))),
    ((1, 2), ((1, 1), (2, 1))),
    ((1, 1), ((1, 1), (2, 1))),
    ((2, 2), ((0, 2), (1, 1))),
    ((1, 2), ((1, 1), (0, 2))),
    ((1, 1), ((2, 1), (1, 1))),
    ((2, 2), ((1, 0), (1, 2))),
    ((2, 1), ((1, 0), (1, 2))),
    ((1, 1), ((2, 1), (1, 0))),
    ((2, 1), ((0, 1), (0, 2))),
    ((1, 1), ((2, 1), (0, 1))),
    ((2, 1), ((0, 2), (0, 1))),
    ((1, 1), ((1, 0), (1, 2))),
    ((2, 2), ((1, 0), (1, 0))),
    ((1, 2), ((2, 0), (0, 1))),
    ((2, 2), ((0, 1), (2, 0))),
    ((2, 1), ((0, 1), (2, 0))),
]


class MoritaWorkload:
    """Category -> mat_equivalence -> conjugate -> both witness maps -> checks."""

    name = "morita"

    def __init__(self, slots=MORITA_SLOTS):
        self.slots = list(slots)

    def choose(self, seed: int) -> list:
        return _scan_block_seeds(self.slots, 2, 2, _start(seed, 1))

    def generate(self, chosen, workdir) -> list[Instance]:
        return [
            Instance(_size_label(key), _category_data(_block_category(g, 2, 2, key)))
            for g, key in chosen
        ]

    def run(self, inst: Instance):
        cat = _rebuild_category(inst.data)
        alg, data = morita.mat_equivalence(cat)
        n = cat.n_objects
        expected = sum(cat.hom_dim(x, y) for x in range(n) for y in range(n))
        checks = Report(self.name)
        checks.add("matrix-algebra-dimension", abs(alg.dimension - expected), 0.5)
        conj = morita.conjugate_bimodule(data)
        phi = morita.morita_target_map(data, conj)
        psi = morita.morita_source_map(data, conj)
        for name, m in (("phi", phi), ("psi", psi)):
            checks.extend(m.verify_natural(), f"{name}:")
            checks.extend(m.unitary_report(), f"{name}:")
        return checks, (cat, phi, psi)

    def sizes(self, inst: Instance, outputs) -> dict:
        cat, phi, psi = outputs
        return {
            "object_dims": _dims(cat),
            "E_conjE_dim": max(m.total_dim for m in psi.dom.ob_map),
            "conjE_E_dims": tuple(m.total_dim for m in phi.dom.ob_map),
        }


# -- reconstruction -------------------------------------------------------------

KINDS = ("yoneda", "twist", "twist_x_yoneda", "double_yoneda")

# Criterion-9 family: (structure, bimodule kind, module base, module
# evaluation dimensions).  The first slot is a double-Yoneda pair with 356
# simple-tensor generators, the worst case; the rest follow the size classes
# of the acceptance pairs.
RECONSTRUCTION_SLOTS = [
    (((2, 2), ((2, 1), (2, 2))), 3, (1, 1), (6, 8)),
    (((2, 2), ((2, 1), (2, 2))), 0, (0, 1), (7, 8)),
    (((1, 2), ((2, 2), (0, 1))), 3, (0, 1), (6, 2)),
    (((2, 2), ((2, 2), (1, 2))), 1, (1, 1), (6, 5)),
    (((2, 2), ((0, 1), (2, 2))), 0, (1, 0), (2, 6)),
    (((1, 2), ((2, 2), (0, 1))), 3, (0,), (4, 1)),
    (((2, 2), ((2, 1), (2, 2))), 1, (0,), (4, 4)),
    (((2, 2), ((2, 1), (2, 2))), 2, (1,), (3, 4)),
    (((1, 2), ((2, 2), (0, 1))), 0, (0, 1), (6, 2)),
    (((1, 2), ((2, 2), (0, 1))), 2, (0, 1), (6, 2)),
    (((1, 2), ((1, 1), (2, 1))), 0, (1, 1), (4, 7)),
    (((2, 1), ((1, 0), (1, 2))), 3, (1, 1), (1, 5)),
    (((2, 2), ((0, 1), (2, 2))), 1, (1,), (1, 4)),
    (((1, 1), ((2, 1), (1, 1))), 3, (0,), (3, 2)),
    (((1, 2), ((1, 1), (2, 1))), 0, (1, 1), (3, 5)),
    (((2, 1), ((0, 1), (0, 2))), 3, (0, 1), (2, 4)),
    (((1, 2), ((2, 2), (0, 1))), 0, (0,), (4, 1)),
    (((2, 1), ((0, 2), (0, 1))), 3, (0, 1), (4, 2)),
    (((2, 2), ((0, 2), (1, 1))), 3, (0, 0), (4, 2)),
    (((2, 2), ((0, 2), (1, 1))), 3, (1, 0), (2, 2)),
    (((1, 1), ((2, 1), (1, 1))), 0, (0, 1), (4, 3)),
    (((1, 2), ((1, 1), (2, 1))), 2, (0, 1), (3, 5)),
    (((2, 2), ((0, 2), (1, 1))), 1, (1, 0), (4, 2)),
    (((2, 2), ((0, 1), (2, 2))), 0, (0,), (1, 2)),
    (((2, 2), ((0, 2), (1, 1))), 1, (0, 1), (4, 2)),
    (((2, 1), ((1, 0), (1, 2))), 0, (1,), (1, 3)),
    (((2, 1), ((0, 1), (0, 2))), 0, (1,), (1, 2)),
    (((2, 2), ((1, 0), (1, 0))), 3, (1,), (1, 1)),
    (((1, 2), ((2, 0), (0, 1))), 0, (1,), (0, 1)),
]


def double_yoneda(cat):
    """x -> h_x (+) h_x with the diagonal action (as in acceptance criterion 9)."""
    ob_map = []
    for x in range(cat.n_objects):
        summed, _ = modules.direct_sum([modules.representable(cat, x)] * 2)
        ob_map.append(summed)
    blocks = {}
    for x in range(cat.n_objects):
        for y in range(cat.n_objects):
            basis = cat.hom_basis(x, y)
            dx, dy = cat.dim(x), cat.dim(y)
            stack = np.zeros((basis.shape[0], 2 * dy, 2 * dx), dtype=np.complex128)
            stack[:, :dy, :dx] = basis
            stack[:, dy:, dx:] = basis
            blocks[(x, y)] = stack
    return bimodules.Bimodule(cat, cat, ob_map, blocks)


def _bimodule(cat, kind: int, twist_seed: int):
    if kind == 0:
        return bimodules.yoneda_bimodule(cat)
    if kind == 1:
        return generators.bimodule_from_functor(
            generators.unitary_twist_functor(cat, seed=twist_seed))
    if kind == 2:
        twist = generators.bimodule_from_functor(
            generators.unitary_twist_functor(cat, seed=twist_seed))
        return bimodules.tensor_bimodule_bimodule(twist, bimodules.yoneda_bimodule(cat))
    return double_yoneda(cat)


def _module_base(seed: int, n_objects: int, max_base: int = 2) -> tuple[int, ...]:
    """The base list ``random_module(seed, cat, max_base)`` draws first."""
    rng = np.random.default_rng(seed)
    length = int(rng.integers(1, max_base + 1))
    return tuple(int(x) for x in rng.integers(0, n_objects, length))


class ReconstructionWorkload:
    """(module, bimodule) -> check_nondegenerate -> eilenberg_watts_map -> checks."""

    name = "reconstruction"

    def __init__(self, slots=RECONSTRUCTION_SLOTS):
        self.slots = list(slots)

    def choose(self, seed: int) -> list:
        """(category seed, structure, kind, module seed, twist seed) per slot."""
        start = _start(seed, 2)
        found = _scan_block_seeds([s[0] for s in self.slots], 2, 2, start)
        return [
            (g, key, kind, self._module_seed(_block_category(g, 2, 2, key), base, evals,
                                             start + 1000 * i), start + i)
            for i, ((key, kind, base, evals), (g, _)) in enumerate(zip(self.slots, found))
        ]

    def generate(self, chosen, workdir) -> list[Instance]:
        out = []
        for g, key, kind, m, twist_seed in chosen:
            cat = _block_category(g, 2, 2, key)
            M = generators.random_module(m, cat, max_base=2)
            E = _bimodule(cat, kind, twist_seed)
            data = {
                "category": _category_data(cat),
                "fibers": [(E.ob(x).base, E.ob(x).proj.copy()) for x in range(cat.n_objects)],
                "blocks": {(x, y): E.mor_stack(x, y).copy()
                           for x in range(cat.n_objects) for y in range(cat.n_objects)},
                "module": (M.base, M.proj.copy()),
            }
            out.append(Instance(_size_label(key, f"{KINDS[kind]} ") + f" base={M.base}", data))
        return out

    @staticmethod
    def _module_seed(cat, base, evals, start: int) -> int:
        for m in range(start, start + SCAN_LIMIT):
            if _module_base(m, cat.n_objects) != base:
                continue
            M = generators.random_module(m, cat, max_base=2)
            if M.base != base:
                raise RuntimeError("random_module no longer draws its base first; "
                                   "update _module_base()")
            if tuple(M.eval_dim(z) for z in range(cat.n_objects)) == evals:
                return m
        raise RuntimeError(f"no module seed with base {base} and evaluation dims {evals}")

    def run(self, inst: Instance):
        data = inst.data
        cat = _rebuild_category(data["category"])
        ob_map = [modules.HilbertModule(cat, base, proj) for base, proj in data["fibers"]]
        E = bimodules.Bimodule(cat, cat, ob_map, data["blocks"])
        M = modules.HilbertModule(cat, *data["module"])
        ok, _ = bimodules.check_nondegenerate(E)
        checks = Report(self.name)
        checks.add("nondegenerate", 0.0 if ok else 1.0, 0.5)
        op, report = morita.eilenberg_watts_map(M, E)
        found = {c.name: c.residual for c in report.checks}
        checks.add("evaluation-dimension-gap", found["reconstruction:evaluation-dimension-gap"], 0.5)
        checks.add("surjectivity-deficit", found["comparison:surjectivity-deficit"], 0.5)
        checks.add("gram-entry-agreement", found["reconstruction:gram-entry-agreement"], 1e-8)
        return checks, (cat, M, E, op)

    def sizes(self, inst: Instance, outputs) -> dict:
        cat, M, E, op = outputs
        n = cat.n_objects
        gram = []
        for z in range(n):
            gens = sum(M.eval_dim(x) * E.ob(x).eval_dim(z) for x in range(n))
            gram.append(gens * cat.dim(z))
        return {
            "object_dims": _dims(cat),
            "fiber_dims": tuple(E.ob(x).total_dim for x in range(n)),
            "tensor_dim": op.dom.total_dim,
            "quotient_gram_dims": tuple(gram),
        }


# -- structure ----------------------------------------------------------------------

# Criterion-1 family (three objects) and criterion-4 family (two objects);
# size classes of acceptance seeds 4, 9, 0, 2, 3, 5, 6, 8, 11 and 10, 0, 2,
# 3, 5, 6, 8, 11.  The 1-second multiplier solves of seeds 1-4, 1-9 and 4-10
# are the heavy slots.
STRUCTURE_BLOCK_SLOTS = [
    (3, ((2, 2), ((2, 1), (2, 2), (2, 0)))),
    (3, ((1, 2), ((2, 0), (0, 1), (2, 2)))),
    (3, ((2, 2), ((1, 0), (1, 0), (0, 1)))),
    (3, ((2, 1), ((1, 0), (1, 2), (1, 0)))),
    (3, ((2, 1), ((1, 0), (0, 2), (2, 1)))),
    (3, ((2, 2), ((0, 2), (1, 1), (1, 0)))),
    (3, ((1, 2), ((1, 1), (2, 1), (1, 1)))),
    (3, ((2, 1), ((0, 2), (0, 1), (1, 2)))),
    (3, ((1, 1), ((2, 1), (1, 1), (2, 0)))),
    (2, ((2, 2), ((0, 1), (2, 2)))),
    (2, ((2, 2), ((1, 0), (1, 0)))),
    (2, ((2, 1), ((1, 0), (1, 2)))),
    (2, ((2, 1), ((0, 1), (0, 2)))),
    (2, ((2, 2), ((0, 2), (1, 1)))),
    (2, ((1, 2), ((1, 1), (2, 1)))),
    (2, ((2, 1), ((0, 2), (0, 1)))),
    (2, ((1, 1), ((2, 1), (1, 1)))),
]

# Members of the criterion-1 groupoid zoo: cyclic groups of order 2-8, pair
# groupoids on 2-6 objects and dihedral groups of order 4, 6 and 8.  The
# larger dihedral and cyclic groups (multiplier solves of 2-34 s each) are
# left out to keep a pass short.  The last entry, cyclic(2), is the
# warm-up instance.
STRUCTURE_GROUPOIDS = (
    [("dihedral", n) for n in range(4, 1, -1)]
    + [("codiscrete", n) for n in range(6, 1, -1)]
    + [("cyclic", n) for n in range(8, 1, -1)]
)

FACTOR_SAMPLES = 3


def groupoid(kind: str, n: int):
    if kind == "cyclic":
        return generators.FiniteGroupoid.cyclic(n)
    if kind == "codiscrete":
        return generators.FiniteGroupoid.codiscrete(n)
    names = [f"r{i}" for i in range(n)] + [f"s{i}" for i in range(n)]
    table = [[0] * 2 * n for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            table[i][j] = (i + j) % n
            table[i][j + n] = n + (i + j) % n
            table[i + n][j] = n + (i - j) % n
            table[i + n][j + n] = (i - j) % n
    return generators.FiniteGroupoid.from_group_table(names, table)


class StructureWorkload:
    """File -> category -> axioms, factorization, hull norm, multipliers, hull -> files."""

    name = "structure"

    def __init__(self, block_slots=STRUCTURE_BLOCK_SLOTS, groupoids=STRUCTURE_GROUPOIDS):
        self.block_slots = list(block_slots)
        self.groupoids = list(groupoids)

    def choose(self, seed: int) -> tuple[int, list]:
        """The check seed base and (label, objects, category seed, structure) per slot."""
        start = _start(seed, 3)
        blocks = []
        for n_objects in (3, 2):
            keys = [k for n, k in self.block_slots if n == n_objects]
            found = _scan_block_seeds(keys, n_objects, 2, start + n_objects, symmetric=True)
            blocks += [(_size_label(k, f"block{n_objects} "), n_objects, g, m)
                       for k, (g, m) in zip(keys, found)]
        return start, blocks

    def generate(self, chosen, workdir) -> list[Instance]:
        start, blocks = chosen
        cats = [(label, _block_category(g, n_objects, 2, m)) for label, n_objects, g, m in blocks]
        cats += [(f"groupoid {kind}({n})", generators.groupoid_category(groupoid(kind, n)))
                 for kind, n in self.groupoids]
        out = []
        workdir.mkdir(parents=True, exist_ok=True)
        for i, (label, cat) in enumerate(cats):
            text = io.dumps_canonical(io.specfile_for(cat).to_obj()).encode()
            path = workdir / f"structure_{i:03d}.cstar.json"
            path.write_bytes(text)
            out.append(Instance(label, {"path": str(path), "bytes": text,
                                        "rng_seed": start + 7 * i}))
        return out

    def run(self, inst: Instance):
        data = inst.data
        cat = io.realize(io.load_specfile(data["path"]))
        text = io.dumps_canonical(io.specfile_for(cat).to_obj()).encode()
        checks = Report(self.name)
        checks.add("reserialization-identical", float(text != data["bytes"]), 0.5)
        seed = data["rng_seed"]
        checks.extend(category.verify_category(
            cat, linalg.Tolerance(atol=0.0, rtol=1e-8), samples=2, seed=seed))
        rng = np.random.default_rng(seed)
        n = cat.n_objects
        for _ in range(FACTOR_SAMPLES):
            x, y = (int(v) for v in rng.integers(0, n, 2))
            u = cat.random_morphism(rng, x, y)
            v, w = category.factorize(u)
            checks.add("factorize", linalg.op_norm(u.mat - v.mat @ w.mat) / max(u.norm(), 1.0), 1e-8)
            a = cat.random_morphism(rng, x, x)
            pu = category.polar_unitary(a + (a.norm() + 0.3) * cat.unit(x)).mat
            eye = np.eye(cat.dim(x))
            checks.add("polar", max(linalg.op_norm(pu.conj().T @ pu - eye),
                                    linalg.op_norm(pu @ pu.conj().T - eye)), 1e-8)
        lists = [tuple(int(v) for v in rng.integers(0, n, 2 + int(rng.integers(0, 2))))
                 for _ in range(2)]
        block = category.random_block(rng, cat, lists[0], lists[1])
        exact = linalg.op_norm(block)
        if exact > 1e-6:
            estimate = category.column_sup_norm(cat, lists[0], block, probes=16, seed=seed)
            checks.add("hull-norm-gap", abs(estimate - exact) / exact, 1e-6)
            checks.add("hull-norm-bound", max(estimate - exact, 0.0), 1e-9)
        mult = multipliers.multiplier_category(cat)
        checks.extend(mult.verify(), "multiplier:")
        gap = max(abs(mult.dim(x, y) - cat.hom_dim(x, y)) for x in range(n) for y in range(n))
        checks.add("multiplier-dimension", gap, 0.5)
        x, y, z = (int(v) for v in rng.integers(0, n, 3))
        b, a = cat.random_morphism(rng, x, y), cat.random_morphism(rng, y, z)
        lhs = multipliers.compose_multipliers(multipliers.kappa(cat, a), multipliers.kappa(cat, b))
        rhs = multipliers.kappa(cat, category.compose(a, b))
        scale = max(np.linalg.norm(rhs.vec()), 1.0)
        checks.add("kappa-transport", np.linalg.norm(lhs.vec() - rhs.vec()) / scale, 1e-8)
        hull = category.AdditiveHull(cat)
        alg = category.matrix_algebra(cat)
        written = sum(len(io.dumps_canonical(io.specfile_for(c).to_obj()))
                      for c in (hull.cat, alg.cat))
        expected = sum(cat.hom_dim(x, y) for x in range(n) for y in range(n))
        checks.add("matrix-algebra-dimension", abs(alg.dimension - expected), 0.5)
        return checks, (cat, written)

    def sizes(self, inst: Instance, outputs) -> dict:
        cat, written = outputs
        n = cat.n_objects
        rows, cols = 0, 0
        for x in range(n):
            for y in range(n):
                dxx, dyy, dxy = cat.hom_dim(x, x), cat.hom_dim(y, y), cat.hom_dim(x, y)
                if dxy:
                    rows += dxy * (dxx * dxx + dyy * dyy + (dxx * dyy if dxx and dyy else 0))
                    cols = max(cols, dxy * (dxx + dyy))
        return {
            "object_dims": _dims(cat),
            "multiplier_rows": rows,
            "multiplier_cols_max": cols,
            "bytes_in": len(inst.data["bytes"]),
            "bytes_out": written,
        }


WORKLOADS = {w.name: w for w in (MoritaWorkload, ReconstructionWorkload, StructureWorkload)}
