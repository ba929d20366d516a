"""Deterministic generators of valid test data.

Groupoid C*-categories via the left regular realization, random
block-structured categories (intertwiner spaces of a hidden sector
decomposition, so closure holds by construction), random
finitely-generated-projective modules, and bimodules induced by functors.
Everything is pure given (seed, params).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import Tolerance, _size_slices, hermitian_part, random_complex, resolve_tol
from .category import CStarCategory, CStarFunctor, polar_unitary, random_block
from .modules import HilbertModule, ModuleOperator, direct_sum, representable
from .bimodules import Bimodule

__all__ = [
    "FiniteGroupoid",
    "groupoid_category",
    "BlockStructure",
    "random_block_category",
    "random_block_projection",
    "random_module",
    "random_subprojection",
    "bimodule_from_functor",
    "unitary_twist_functor",
    "degenerate_double",
]


class FiniteGroupoid:
    """Finite groupoid given by explicit composition/inverse/identity tables.

    Parameters
    ----------
    objects : sequence of labels
    morphisms : sequence of (name, src, dst) with object indices
    comp : mapping (g, h) -> g∘h for every composable pair (src g == dst h)
    inv : sequence, inv[g] = g^{-1}
    identity : sequence, identity[x] = id_x

    The groupoid axioms are checked exactly on the tables.
    """

    def __init__(self, objects, morphisms, comp, inv, identity):
        self.objects = [str(o) for o in objects]
        self.morphisms = [(str(n), int(s), int(d)) for n, s, d in morphisms]
        self.comp = {(int(g), int(h)): int(k) for (g, h), k in comp.items()}
        self.inv = [int(i) for i in inv]
        self.identity = [int(i) for i in identity]
        self.validate()

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_morphisms(self) -> int:
        return len(self.morphisms)

    def src(self, g: int) -> int:
        return self.morphisms[g][1]

    def dst(self, g: int) -> int:
        return self.morphisms[g][2]

    def hom(self, x: int, y: int) -> list[int]:
        return [g for g, (_, s, d) in enumerate(self.morphisms) if s == x and d == y]

    def into(self, x: int) -> list[int]:
        return [g for g, (_, _, d) in enumerate(self.morphisms) if d == x]

    def validate(self) -> None:
        n_mor = self.n_morphisms
        if len(self.inv) != n_mor or len(self.identity) != self.n_objects:
            raise InvalidInput("groupoid tables have inconsistent sizes")
        indices = {*self.identity, *self.inv, *self.comp.values()}.union(*self.comp)
        ends = {v for _, s, d in self.morphisms for v in (s, d)}
        if not indices <= set(range(n_mor)) or not ends <= set(range(self.n_objects)):
            raise InvalidInput("groupoid tables name a morphism or object index out of range")
        for x, e in enumerate(self.identity):
            if self.src(e) != x or self.dst(e) != x:
                raise InvalidInput(f"identity of object {x} is not an endomorphism")
        for g in range(n_mor):
            for h in range(n_mor):
                composable = self.src(g) == self.dst(h)
                if composable != ((g, h) in self.comp):
                    raise InvalidInput("composition table does not match composability")
                if composable:
                    k = self.comp[(g, h)]
                    if self.src(k) != self.src(h) or self.dst(k) != self.dst(g):
                        raise InvalidInput("composite has wrong endpoints")
        for g in range(n_mor):
            e_dst, e_src = self.identity[self.dst(g)], self.identity[self.src(g)]
            if self.comp[(e_dst, g)] != g or self.comp[(g, e_src)] != g:
                raise InvalidInput("identities do not act trivially")
            gi = self.inv[g]
            if self.src(gi) != self.dst(g) or self.dst(gi) != self.src(g):
                raise InvalidInput("inverse has wrong endpoints")
            if self.comp[(gi, g)] != e_src or self.comp[(g, gi)] != e_dst:
                raise InvalidInput("inverses do not invert")
        for g in range(n_mor):
            for h in range(n_mor):
                if (g, h) not in self.comp:
                    continue
                for k in range(n_mor):
                    if (h, k) not in self.comp:
                        continue
                    if self.comp[(self.comp[(g, h)], k)] != self.comp[(g, self.comp[(h, k)])]:
                        raise InvalidInput("composition is not associative")

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_group_table(names, table, label="*") -> "FiniteGroupoid":
        """One-object groupoid from a group multiplication table.

        ``table[g][h]`` is the index of g*h; index 0 must be the unit.
        """
        n = len(names)
        comp = {(g, h): table[g][h] for g in range(n) for h in range(n)}
        inv = []
        for g in range(n):
            inverse = [h for h in range(n) if table[g][h] == 0]
            if len(inverse) != 1:
                raise InvalidInput("table is not a group")
            inv.append(inverse[0])
        morphisms = [(str(nm), 0, 0) for nm in names]
        return FiniteGroupoid([label], morphisms, comp, inv, [0])

    @staticmethod
    def cyclic(n: int) -> "FiniteGroupoid":
        table = [[(g + h) % n for h in range(n)] for g in range(n)]
        return FiniteGroupoid.from_group_table([f"r{k}" for k in range(n)], table, label="*")

    @staticmethod
    def codiscrete(n_objects: int) -> "FiniteGroupoid":
        """The pair groupoid: exactly one morphism between any two objects."""
        objects = [f"x{i}" for i in range(n_objects)]
        morphisms = []
        index = {}
        for s in range(n_objects):
            for d in range(n_objects):
                index[(s, d)] = len(morphisms)
                morphisms.append((f"{s}->{d}", s, d))
        comp = {}
        for (s1, d1), g in index.items():
            for (s2, d2), h in index.items():
                if s1 == d2:
                    comp[(g, h)] = index[(s2, d1)]
        inv = [index[(d, s)] for (s, d), _ in sorted(index.items(), key=lambda kv: kv[1])]
        identity = [index[(x, x)] for x in range(n_objects)]
        return FiniteGroupoid(objects, morphisms, comp, inv, identity)


def groupoid_category(G: FiniteGroupoid, tol: Tolerance | None = None) -> CStarCategory:
    """Concrete C*-category of a finite groupoid via left composition.

    The object ``x`` carries the free complex vector space on all morphisms
    into ``x``; a groupoid element ``g: x -> y`` acts by left composition,
    a permutation-pattern matrix.  Hom(x, y) is the span of these operators,
    the involution matches ``(λ g)* = conj(λ) g^{-1}``, and for finite
    groupoids this regular realization attains the maximal C*-norm.
    """
    tol = resolve_tol(tol)
    into = [G.into(x) for x in range(G.n_objects)]
    index_in = [{g: k for k, g in enumerate(lst)} for lst in into]
    dims = [len(lst) for lst in into]
    if any(d == 0 for d in dims):
        raise InvalidInput("every groupoid object needs at least its identity morphism")

    homs: dict[tuple[int, int], list[np.ndarray]] = {}
    for x in range(G.n_objects):
        for y in range(G.n_objects):
            basis = []
            for g in G.hom(x, y):
                mat = np.zeros((dims[y], dims[x]), dtype=np.complex128)
                for h in into[x]:
                    mat[index_in[y][G.comp[(g, h)]], index_in[x][h]] = 1.0
                basis.append(mat / np.sqrt(dims[x]))
            if basis:
                homs[(x, y)] = basis
    return CStarCategory(
        [(G.objects[x], dims[x]) for x in range(G.n_objects)],
        homs,
        tol=tol,
        assume_orthonormal=True,
    )


@dataclass(frozen=True)
class BlockStructure:
    """Hidden sector decomposition behind a generated block category."""

    sector_dims: tuple[int, ...]
    multiplicities: tuple[tuple[int, ...], ...]

    def object_dim(self, x: int) -> int:
        return int(
            sum(m * d for m, d in zip(self.multiplicities[x], self.sector_dims))
        )


def random_block_category(seed: int, n_objects: int = 3, n_sectors: int = 2,
                          max_mult: int = 2, max_sector_dim: int = 2,
                          tol: Tolerance | None = None) -> tuple[CStarCategory, BlockStructure]:
    """Random category whose hom-spaces are intertwiner spaces.

    Each object decomposes as a direct sum of sectors with multiplicities;
    hom(x, y) consists of all matrices commuting with the decomposition,
    conjugated by a random unitary per object.  Composition and involution
    closure hold by construction, and every finite-dimensional concrete
    C*-category embeds this way.
    """
    tol = resolve_tol(tol)
    if n_objects <= 0 or n_sectors <= 0 or max_mult <= 0 or max_sector_dim <= 0:
        raise InvalidInput("generation parameters must be positive")
    rng = np.random.default_rng(seed)
    sector_dims = tuple(int(d) for d in rng.integers(1, max_sector_dim + 1, n_sectors))
    mults = rng.integers(0, max_mult + 1, size=(n_objects, n_sectors))
    for x in range(n_objects):
        if mults[x].sum() == 0:
            mults[x, rng.integers(0, n_sectors)] = 1
    structure = BlockStructure(sector_dims, tuple(tuple(int(m) for m in row) for row in mults))

    dims = [structure.object_dim(x) for x in range(n_objects)]
    unitaries = []
    for x in range(n_objects):
        q, r = np.linalg.qr(random_complex(rng, dims[x], dims[x]))
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        unitaries.append(q)

    offsets = [_size_slices([mults[x, s] * sector_dims[s] for s in range(n_sectors)])
               for x in range(n_objects)]

    homs: dict[tuple[int, int], list[np.ndarray]] = {}
    for x in range(n_objects):
        for y in range(n_objects):
            basis = []
            for s in range(n_sectors):
                mx, my, d = mults[x, s], mults[y, s], sector_dims[s]
                for a in range(my):
                    for b in range(mx):
                        mat = np.zeros((dims[y], dims[x]), dtype=np.complex128)
                        ro = offsets[y][s].start + a * d
                        co = offsets[x][s].start + b * d
                        mat[ro:ro + d, co:co + d] = np.eye(d) / np.sqrt(d)
                        basis.append(unitaries[y] @ mat @ unitaries[x].conj().T)
            if basis:
                homs[(x, y)] = basis
    cat = CStarCategory(
        [(f"x{x}", dims[x]) for x in range(n_objects)],
        homs,
        tol=tol,
        assume_orthonormal=True,
    )
    return cat, structure


def unitary_twist_functor(cat: CStarCategory, seed: int = 0) -> CStarFunctor:
    """Inner endofunctor conjugating every hom-space by category unitaries.

    The conjugating unitaries are polar parts of shifted random endomorphisms,
    so they lie in the endomorphism algebras and the twist maps each
    hom-space into itself: a convenient source of non-identity category
    automorphisms whose induced bimodules compose with each other.
    """
    rng = np.random.default_rng(seed)
    unitaries = []
    for x in range(cat.n_objects):
        a = cat.random_morphism(rng, x, x)
        shifted = a + (a.norm() + 1.0) * cat.unit(x)
        unitaries.append(polar_unitary(shifted).mat)
    action = {}
    for x in range(cat.n_objects):
        for y in range(cat.n_objects):
            action[(x, y)] = np.einsum(
                "ij,kjl,lm->kim",
                unitaries[y],
                cat.hom_basis(x, y),
                unitaries[x].conj().T,
            )
    return CStarFunctor(cat, cat, range(cat.n_objects), action)


def random_block_projection(rng: np.random.Generator, cat: CStarCategory, lst) -> np.ndarray:
    """Random projection in the block endomorphism space of an object list.

    Takes a spectral projection of a random Hermitian block endomorphism,
    cutting at the spectral gap nearest the middle of the spectrum so that
    degenerate eigenvalue groups are never split (the projection then stays
    inside the block hom-space).  Falls back to the identity when the
    spectrum has no usable gap.
    """
    lst = tuple(lst)
    raw = random_block(rng, cat, lst, lst)
    proj = _middle_gap_projection(hermitian_part(raw))
    return np.eye(raw.shape[0], dtype=np.complex128) if proj is None else proj


def _middle_gap_projection(herm: np.ndarray, floor: float | None = None) -> np.ndarray | None:
    """Spectral projection of ``herm`` above the gap nearest the middle of its
    spectrum, never cutting a gap within 1e-6 of the spread; ``None`` with no
    usable gap.  With ``floor``, a spectrum within 1e-9 of zero has none, and
    the eigenvalue above a usable gap exceeds ``floor`` times the largest."""
    evals, evecs = np.linalg.eigh(herm)
    n = evals.size
    if n <= 1:
        return None
    spread = float(evals[-1] - evals[0])
    scale = float(np.max(np.abs(evals)))
    if spread <= 1e-9 or (floor is not None and scale <= 1e-9):
        return None
    usable = np.flatnonzero(np.diff(evals) > 1e-6 * spread)
    if floor is not None:
        usable = usable[evals[usable + 1] > floor * scale]
    if usable.size == 0:
        return None
    cut = int(usable[np.argmin(np.abs(usable - (n / 2 - 1)))])
    keep = evecs[:, cut + 1:]
    return keep @ keep.conj().T


def random_module(seed: int, cat: CStarCategory, max_base: int = 3):
    """Random f.g.p. module: random base list plus a spectral projection of
    a random symmetrized block endomorphism of that list."""
    if max_base <= 0:
        raise InvalidInput(f"max_base must be positive, got {max_base}")
    rng = np.random.default_rng(seed)
    length = int(rng.integers(1, max_base + 1))
    base = tuple(int(x) for x in rng.integers(0, cat.n_objects, length))
    proj = random_block_projection(rng, cat, base)
    return HilbertModule(cat, base, proj)


def random_subprojection(rng: np.random.Generator, module):
    """Random projection operator on a module, i.e. a random submodule.

    Spectral projection of a compressed random Hermitian; lands under the
    module projection automatically because the kept eigenvalues are nonzero.
    Returns the zero operator when the spectrum offers no usable gap.
    """
    raw = random_block(rng, module.cat, module.base, module.base)
    comp = module.proj @ raw @ module.proj
    proj = _middle_gap_projection(comp + comp.conj().T, floor=1e-6)
    if proj is None:
        proj = np.zeros(comp.shape, dtype=np.complex128)
    return ModuleOperator(module, module, proj, validate=False)


def bimodule_from_functor(F: CStarFunctor, tol: Tolerance | None = None):
    """The bimodule a functor induces by viewing targets as representables.

    ob(x) is the representable module at F(x); the action is post-composition
    by F(a).
    """
    tol = resolve_tol(tol)
    src, dst = F.source, F.target
    ob_map = [representable(dst, F.object_map[x]) for x in range(src.n_objects)]
    mor_blocks = {}
    for x in range(src.n_objects):
        for y in range(src.n_objects):
            mor_blocks[(x, y)] = F.image_stack(x, y).copy()
    return Bimodule(src, dst, ob_map, mor_blocks, tol=tol)


def degenerate_double(cat: CStarCategory, tol: Tolerance | None = None):
    """Negative control: a bimodule whose unit action is a proper projection.

    ob(x) is h_x ⊕ h_x but the action lands in the first summand only, so
    mor(id_x) is a rank-one-sided projection and non-degeneracy fails.
    """
    tol = resolve_tol(tol)
    ob_map = []
    for x in range(cat.n_objects):
        summed, _ = direct_sum([representable(cat, x), representable(cat, x)])
        ob_map.append(summed)
    mor_blocks = {}
    for x in range(cat.n_objects):
        for y in range(cat.n_objects):
            basis = cat.hom_basis(x, y)
            dx, dy = cat.dim(x), cat.dim(y)
            blocks = np.zeros((basis.shape[0], 2 * dy, 2 * dx), dtype=np.complex128)
            blocks[:, :dy, :dx] = basis
            mor_blocks[(x, y)] = blocks
    return Bimodule(cat, cat, ob_map, mor_blocks, tol=tol)
