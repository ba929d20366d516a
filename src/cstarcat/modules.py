"""Hilbert modules over a concrete C*-category.

Modules are always stored in finitely-generated-projective presentation: a
finite base list of objects plus a projection in the block hom-space of that
list.  Evaluation at an object y is the image of the projection on columns
with i-th block in hom(y, x_i); every operator between modules is a block
matrix compressed by the two projections.  In this finite-dimensional
setting compact and bounded adjointable operators coincide; the API keeps
both names and asserts the collapse rather than modelling the distinction.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import InvalidInput
from .linalg import (
    Tolerance,
    as_cmatrix,
    frobenius_norm,
    op_norm,
    orthonormal_span,
    psd_eigh,
    resolve_tol,
    span_eval,
)
from .category import (
    CStarCategory,
    Morphism,
    _block_diagonal,
    _projection_report,
    _size_slices,
    block_residual,
    block_slices,
    block_basis_stack,
    list_dim,
    random_block,
)
from .report import Report

__all__ = [
    "HilbertModule",
    "ModuleElement",
    "ModuleOperator",
    "representable",
    "inner_product",
    "act",
    "direct_sum",
    "single_rank",
    "yoneda_element",
    "yoneda_operator",
    "gram_matrix",
    "free_cover",
    "split_projection",
    "bounded_operator_basis",
    "compact_operator_basis",
    "unitary_operator_report",
    "ListElement",
    "list_inner",
    "list_single_rank",
    "list_eval_basis",
]


class HilbertModule:
    """F.g.p. presentation of a Hilbert module: base list plus projection."""

    def __init__(self, cat: CStarCategory, base, proj, tol: Tolerance | None = None,
                 validate: bool = True):
        self.cat = cat
        self.base: tuple[int, ...] = tuple(cat.check_object(int(x)) for x in base)
        if not self.base:
            raise InvalidInput("module base list must be non-empty")
        self.total_dim = list_dim(cat, self.base)
        self.slices = block_slices(cat, self.base)
        self.proj = as_cmatrix(proj, self.total_dim, self.total_dim)
        self.tol = resolve_tol(tol if tol is not None else cat.tol)
        if validate:
            herm, idem, span = _projection_report(cat, self.base, self.proj, self.tol).checks
            if not (herm.passed and idem.passed):
                raise InvalidInput("presentation matrix is not a projection within tolerance")
            if not span.passed:
                raise InvalidInput("projection is not in the block hom-space")
        self._eval_cache: dict[int, list["ModuleElement"]] = {}

    # -- elements -----------------------------------------------------------

    def element(self, at: int, col, validate: bool = True) -> "ModuleElement":
        return ModuleElement(self, at, col, validate=validate)

    def zero_element(self, at: int) -> "ModuleElement":
        return ModuleElement(
            self, at,
            np.zeros((self.total_dim, self.cat.dim(at)), dtype=np.complex128),
            validate=False,
        )

    def random_element(self, rng: np.random.Generator, at: int) -> "ModuleElement":
        raw = random_block(rng, self.cat, (at,), self.base)
        return ModuleElement(self, at, self.proj @ raw, validate=False)

    def eval_basis(self, at: int) -> list["ModuleElement"]:
        """Frobenius-orthonormal basis of the evaluation space at ``at``.

        The space is the image under the projection P of the block columns
        with i-th block in hom(at, x_i).  Those columns have an orthonormal
        basis e_r (one hom-basis element in one block), and P keeps their
        span, so the k×k coordinate matrix C[r, s] = <e_s, P e_r> has the
        singular values of the stack of projected columns P e_r.  Its SVD
        decides the rank at ``tol.atol`` and the leading right singular
        vectors, taken over the e_r, are the basis.
        """
        at = self.cat.check_object(at)
        if at not in self._eval_cache:
            cat = self.cat
            bases = [cat.hom_basis(at, x) for x in self.base]
            spans = _size_slices([b.shape[0] for b in bases])
            k = spans[-1].stop
            basis = np.zeros((0, self.total_dim, cat.dim(at)), dtype=np.complex128)
            if k:
                coords = np.zeros((k, k), dtype=np.complex128)
                for i, b_i in enumerate(bases):
                    for j, x in enumerate(self.base):
                        block = self.proj[self.slices[j], self.slices[i]]
                        if np.any(block):
                            coords[spans[i], spans[j]] = cat.hom_coords(at, x, block @ b_i)
                _, s, vh = np.linalg.svd(coords)
                rank = int(np.sum(s > self.tol.atol))
                basis = np.zeros((rank,) + basis.shape[1:], dtype=np.complex128)
                for j, b_j in enumerate(bases):
                    basis[:, self.slices[j], :] = span_eval(vh[:rank, spans[j]], b_j)
            self._eval_cache[at] = [
                ModuleElement(self, at, c, validate=False) for c in basis
            ]
        return self._eval_cache[at]

    @cached_property
    def frame(self) -> np.ndarray:
        """Range frame: orthonormal (total_dim × rank) V with V V* ≈ proj, the
        eigenvectors of ``psd_eigh(proj)`` kept by its clamp at ``tol.atol``.
        A construction that holds such a factor may assign it instead."""
        evals, evecs = psd_eigh(self.proj, self.tol)
        return evecs[:, evals > 0.0]

    def eval_dim(self, at: int) -> int:
        return len(self.eval_basis(at))

    def eval_stack(self, at: int) -> np.ndarray:
        """The evaluation basis at ``at`` as one stack of columns."""
        cols = [e.col for e in self.eval_basis(at)]
        shape = (len(cols), self.total_dim, self.cat.dim(at))
        return np.array(cols, dtype=np.complex128).reshape(shape)

    def identity(self) -> "ModuleOperator":
        return ModuleOperator(self, self, self.proj, validate=False)

    def same_presentation(self, other: "HilbertModule") -> bool:
        return other is self or (
            self.cat is other.cat
            and self.base == other.base
            and op_norm(self.proj - other.proj) <= self.tol.bound(1.0)
        )

    def __repr__(self) -> str:
        labels = ",".join(self.cat.label(x) for x in self.base)
        return f"HilbertModule(base=[{labels}], rank~{np.trace(self.proj).real:.1f})"


class ModuleElement:
    """Column of morphisms presenting a module element at one object."""

    __slots__ = ("module", "at", "col")

    def __init__(self, module: HilbertModule, at: int, col, validate: bool = True):
        self.module = module
        self.at = module.cat.check_object(at)
        self.col = as_cmatrix(col, module.total_dim, module.cat.dim(at))
        if validate:
            tol = module.tol
            res = op_norm(module.proj @ self.col - self.col)
            if res > tol.bound(max(op_norm(self.col), 1.0)):
                raise InvalidInput(
                    f"column is not invariant under the module projection ({res:.3e})"
                )
            if block_residual(module.cat, (self.at,), module.base, self.col) > tol.bound(
                frobenius_norm(self.col)
            ):
                raise InvalidInput("column blocks are not in their hom-spaces")

    def inner(self, other: "ModuleElement") -> Morphism:
        return inner_product(self, other)

    def act(self, a: Morphism) -> "ModuleElement":
        return act(self, a)

    def norm(self) -> float:
        return op_norm(self.col)

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        if other.module is not self.module or other.at != self.at:
            raise InvalidInput("can only add elements of one module at one object")
        return ModuleElement(self.module, self.at, self.col + other.col, validate=False)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        if other.module is not self.module or other.at != self.at:
            raise InvalidInput("can only subtract elements of one module at one object")
        return ModuleElement(self.module, self.at, self.col - other.col, validate=False)

    def __mul__(self, scalar) -> "ModuleElement":
        return ModuleElement(self.module, self.at, self.col * complex(scalar), validate=False)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"ModuleElement(at={self.module.cat.label(self.at)}, norm={self.norm():.4g})"


class ModuleOperator:
    """Bounded adjointable map between module presentations.

    The block matrix satisfies ``cod.proj @ block @ dom.proj == block`` and
    each block lies in its hom-space.  All operators here are compact: the
    bounded/compact distinction is vacuous in finite dimension.
    """

    __slots__ = ("dom", "cod", "block")

    def __init__(self, dom: HilbertModule, cod: HilbertModule, block, validate: bool = True):
        if dom.cat is not cod.cat:
            raise InvalidInput("operator endpoints live in different categories")
        self.dom = dom
        self.cod = cod
        self.block = as_cmatrix(block, cod.total_dim, dom.total_dim)
        if validate:
            tol = dom.tol
            scale = max(op_norm(self.block), 1.0)
            res = op_norm(cod.proj @ self.block @ dom.proj - self.block)
            if res > tol.bound(scale):
                raise InvalidInput(f"block is not compressed by the two projections ({res:.3e})")
            if block_residual(dom.cat, dom.base, cod.base, self.block) > tol.bound(
                frobenius_norm(self.block)
            ):
                raise InvalidInput("operator blocks are not in their hom-spaces")

    def apply(self, e: ModuleElement) -> ModuleElement:
        if e.module is not self.dom:
            raise InvalidInput("element does not live in the operator domain")
        return ModuleElement(self.cod, e.at, self.block @ e.col, validate=False)

    def adjoint(self) -> "ModuleOperator":
        return ModuleOperator(self.cod, self.dom, self.block.conj().T, validate=False)

    def norm(self) -> float:
        return op_norm(self.block)

    def __matmul__(self, other: "ModuleOperator") -> "ModuleOperator":
        if not other.cod.same_presentation(self.dom):
            raise InvalidInput("operators do not compose: domain/codomain mismatch")
        return ModuleOperator(other.dom, self.cod, self.block @ other.block, validate=False)

    def __add__(self, other: "ModuleOperator") -> "ModuleOperator":
        return ModuleOperator(self.dom, self.cod, self.block + other.block, validate=False)

    def __sub__(self, other: "ModuleOperator") -> "ModuleOperator":
        return ModuleOperator(self.dom, self.cod, self.block - other.block, validate=False)

    def __mul__(self, scalar) -> "ModuleOperator":
        return ModuleOperator(self.dom, self.cod, self.block * complex(scalar), validate=False)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"ModuleOperator(norm={self.norm():.4g})"


def representable(cat: CStarCategory, x: int) -> HilbertModule:
    """The module of morphisms into ``x``: base [x], identity projection."""
    d = cat.dim(cat.check_object(x))
    return HilbertModule(cat, (x,), np.eye(d, dtype=np.complex128), validate=False)


def inner_product(e: ModuleElement, f: ModuleElement) -> Morphism:
    """The hom-valued product ``sum_i e_i* f_i`` in hom(f.at, e.at)."""
    if not e.module.same_presentation(f.module):
        raise InvalidInput("inner products need elements of one module")
    mat = e.col.conj().T @ f.col
    return Morphism(e.module.cat, f.at, e.at, mat, validate=False)


def act(e: ModuleElement, a: Morphism) -> ModuleElement:
    """Right action ``e . a`` for ``a`` ending at the element's object."""
    if a.cat is not e.module.cat:
        raise InvalidInput("morphism lives in a different category")
    if a.dst != e.at:
        raise InvalidInput("action needs a morphism into the element's object")
    return ModuleElement(e.module, a.src, e.col @ a.mat, validate=False)


def direct_sum(modules) -> tuple[HilbertModule, list[ModuleOperator]]:
    """Direct sum with isometric block inclusions.

    Returns the sum and the inclusions ι_i, which satisfy ι_i* ι_i = id and
    Σ ι_i ι_i* = id.
    """
    modules = list(modules)
    if not modules:
        raise InvalidInput("direct sum needs at least one module")
    cat = modules[0].cat
    if any(m.cat is not cat for m in modules):
        raise InvalidInput("direct sum needs modules over one category")
    base = tuple(x for m in modules for x in m.base)
    proj = _block_diagonal([m.proj for m in modules])
    summed = HilbertModule(cat, base, proj, validate=False)
    inclusions = [
        ModuleOperator(m, summed, proj[:, cols].copy(), validate=False)
        for m, cols in zip(modules, _size_slices([m.total_dim for m in modules]))
    ]
    return summed, inclusions


def single_rank(f: ModuleElement, e: ModuleElement) -> ModuleOperator:
    """The operator e' ↦ f · ⟨e, e'⟩ as a block outer product."""
    if f.at != e.at:
        raise InvalidInput("single-rank operators need both elements at one object")
    return ModuleOperator(e.module, f.module, f.col @ e.col.conj().T, validate=False)


def yoneda_element(T: ModuleOperator) -> ModuleElement:
    """Element of F(x) corresponding to an operator from the representable at x.

    Evaluates the operator block against the unit of hom(x, x); this is an
    isometric bijection onto the evaluation space.
    """
    dom = T.dom
    if len(dom.base) != 1 or op_norm(dom.proj - np.eye(dom.total_dim)) > dom.tol.bound(1.0):
        raise InvalidInput("operator domain is not a representable module")
    return ModuleElement(T.cod, dom.base[0], T.block, validate=False)


def yoneda_operator(f: ModuleElement) -> ModuleOperator:
    """Operator h_{f.at} -> F acting by a ↦ f·a; its adjoint is ⟨f, -⟩."""
    rep = representable(f.module.cat, f.at)
    return ModuleOperator(rep, f.module, f.col, validate=False)


def gram_matrix(elements) -> tuple[tuple[int, ...], np.ndarray]:
    """Block matrix of pairwise inner products over the elements' objects.

    Returns the object list (x_1, ..., x_n) and the assembled block matrix
    with (i, j) block ⟨e_i, e_j⟩, a positive element of the corresponding
    block algebra.
    """
    elements = list(elements)
    if not elements:
        raise InvalidInput("gram matrix needs at least one element")
    module = elements[0].module
    if any(e.module is not module for e in elements):
        raise InvalidInput("gram matrix needs elements of one module")
    wide = np.concatenate([e.col for e in elements], axis=1)
    gram = wide.conj().T @ wide
    return tuple(e.at for e in elements), gram


def free_cover(E: HilbertModule) -> tuple[HilbertModule, ModuleOperator]:
    """Finite free module covering E exactly.

    Returns the free module on E's base list and the co-isometry φ with
    φ φ* = id_E and φ* φ = the presentation projection, which also splits
    the free module with image E.
    """
    free = HilbertModule(
        E.cat, E.base, np.eye(E.total_dim, dtype=np.complex128), validate=False
    )
    phi = ModuleOperator(free, E, E.proj, validate=False)
    return free, phi


def split_projection(P: ModuleOperator) -> tuple[HilbertModule, HilbertModule, ModuleOperator]:
    """Split a projection operator into kernel and image summands.

    Returns (kernel, image, unitary E ≅ kernel ⊕ image).
    """
    E = P.dom
    if not P.cod.same_presentation(E):
        raise InvalidInput("projections are endomorphisms")
    R = P.block
    if not _projection_report(E.cat, E.base, R, E.tol).passed:
        raise InvalidInput("operator is not a projection within tolerance")
    ker = HilbertModule(E.cat, E.base, E.proj - R, validate=False)
    img = HilbertModule(E.cat, E.base, R, validate=False)
    summed, _ = direct_sum([ker, img])
    block = np.concatenate([E.proj - R, R], axis=0)
    unitary = ModuleOperator(E, summed, block, validate=False)
    return ker, img, unitary


def bounded_operator_basis(E: HilbertModule, F: HilbertModule,
                           tol: Tolerance | None = None) -> np.ndarray:
    """Orthonormal basis of the compressed block space Q·hom·P.

    This is the space of all bounded adjointable operators E -> F; compact
    operators coincide with it in finite dimension (``compact_operator_basis``
    is the same function).
    """
    tol = resolve_tol(tol if tol is not None else E.tol)
    stack = block_basis_stack(E.cat, E.base, F.base)
    if stack.shape[0] == 0:
        return stack
    compressed = F.proj @ stack @ E.proj
    return orthonormal_span(compressed, tol)


compact_operator_basis = bounded_operator_basis


def unitary_operator_report(T: ModuleOperator, tol: Tolerance | None = None) -> Report:
    """Residuals of the unitary criterion for a module operator.

    Inner-product preservation is T*T = id on the domain; surjectivity at
    every object is reported as the worst rank deficit, and together they
    force TT* = id on the codomain.

    The rank at y is taken over the images T e_r of the embedded block
    basis e_r of the domain's base at y (one hom-basis element in one
    block).  Since T = T P, these have the singular values of T over the
    evaluation space plus zeros, so no domain evaluation basis is built.
    """
    tol = resolve_tol(tol if tol is not None else T.dom.tol)
    report = Report(context="unitary-operator")
    report.add("isometry", op_norm(T.block.conj().T @ T.block - T.dom.proj), tol.bound(1.0))
    report.add("co-isometry", op_norm(T.block @ T.block.conj().T - T.cod.proj), tol.bound(1.0))
    cat, deficit = T.dom.cat, 0
    for y in range(cat.n_objects):
        images = [T.block[:, sl] @ cat.hom_basis(y, x) for x, sl in zip(T.dom.base, T.dom.slices)]
        flat = np.concatenate(images).reshape(-1, T.cod.total_dim * cat.dim(y))
        rank = np.linalg.matrix_rank(flat, tol=tol.atol) if flat.shape[0] else 0
        deficit = max(deficit, T.cod.eval_dim(y) - rank)
    report.add("surjectivity-deficit", float(deficit), 0.5)
    return report


# ---------------------------------------------------------------------------
# evaluation over object lists (the module extended to the additive hull)


class ListElement:
    """Element of a module evaluated at a finite object list.

    A wide column whose j-th column block is an ordinary element at the
    list's j-th object; reproduces blockwise inner products over the hull.
    """

    __slots__ = ("module", "at_list", "col")

    def __init__(self, module: HilbertModule, at_list, col, validate: bool = True):
        self.module = module
        self.at_list = tuple(module.cat.check_object(int(y)) for y in at_list)
        width = list_dim(module.cat, self.at_list)
        self.col = as_cmatrix(col, module.total_dim, width)
        if validate:
            res = op_norm(module.proj @ self.col - self.col)
            if res > module.tol.bound(max(op_norm(self.col), 1.0)):
                raise InvalidInput("wide column is not projection-invariant")

    def component(self, j: int) -> ModuleElement:
        cols = block_slices(self.module.cat, self.at_list)[j]
        return ModuleElement(self.module, self.at_list[j], self.col[:, cols], validate=False)


def list_eval_basis(module: HilbertModule, at_list) -> list[ListElement]:
    """Componentwise basis of the evaluation at a list (product of evaluations)."""
    at_list = tuple(at_list)
    cols = block_slices(module.cat, at_list)
    width = list_dim(module.cat, at_list)
    out = []
    for j, y in enumerate(at_list):
        for e in module.eval_basis(y):
            wide = np.zeros((module.total_dim, width), dtype=np.complex128)
            wide[:, cols[j]] = e.col
            out.append(ListElement(module, at_list, wide, validate=False))
    return out


def list_inner(u: ListElement, v: ListElement) -> np.ndarray:
    """Blockwise inner product: the hull morphism [⟨u_j, v_i⟩]."""
    if u.module is not v.module:
        raise InvalidInput("inner products need elements of one module")
    return u.col.conj().T @ v.col


def list_single_rank(f: ListElement, e: ListElement) -> ModuleOperator:
    """θ over a list; decomposes as the sum of the componentwise θ's."""
    if f.at_list != e.at_list:
        raise InvalidInput("both elements must sit at the same list")
    return ModuleOperator(e.module, f.module, f.col @ e.col.conj().T, validate=False)
