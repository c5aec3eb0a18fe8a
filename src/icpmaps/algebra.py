"""Finite-dimensional C*-algebras: direct sums of full complex matrix blocks.

The basis is fixed once and for all as the matrix units of every block,
ordered block-major then row-major.  With that choice the structure
constants are {0,1}-valued, the involution is a plain index permutation,
and coordinate/block conversions are exact.

All objects are immutable after construction and every operation is pure;
random samplers take an explicit ``numpy.random.Generator``, so instances
can be shared freely across threads.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .errors import AlgebraMismatchError
from .tolerances import HERMITIAN_TOL, PSD_TOL


class Algebra:
    """A finite direct sum of full matrix algebras ⊕_i M_{d_i}(C).

    Attributes
    ----------
    block_dims : tuple of int
        Sizes (d_1, ..., d_b) of the matrix blocks.
    dim : int
        Linear dimension, sum of d_i**2.
    star_perm : int array of shape (dim,)
        Index permutation realizing the involution on basis matrix units.
    identity_coords : complex array of shape (dim,)
        Coordinates of the unit.
    """

    def __init__(self, block_dims: Sequence[int]):
        dims = tuple(int(d) for d in block_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"block dimensions must be positive integers, got {block_dims!r}")
        self.block_dims = dims
        self.dim = int(sum(d * d for d in dims))

        block_of = np.empty(self.dim, dtype=np.intp)
        row_of = np.empty(self.dim, dtype=np.intp)
        col_of = np.empty(self.dim, dtype=np.intp)
        offsets = []
        p = 0
        for b, d in enumerate(dims):
            offsets.append(p)
            for r in range(d):
                for c in range(d):
                    block_of[p] = b
                    row_of[p] = r
                    col_of[p] = c
                    p += 1
        self._offsets = tuple(offsets)
        self._block_of = block_of
        self._row_of = row_of
        self._col_of = col_of

        # e_(b,r,c)* = e_(b,c,r): a signless permutation of the basis
        self.star_perm = np.array(
            [self.basis_index(b, c, r) for b, r, c in zip(block_of, row_of, col_of)],
            dtype=np.intp,
        )
        ident = np.zeros(self.dim, dtype=np.complex128)
        for b, d in enumerate(dims):
            for r in range(d):
                ident[self.basis_index(b, r, r)] = 1.0
        self.identity_coords = ident
        self.identity_coords.setflags(write=False)
        self._mult_table = None

    # -- basic queries ---------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def is_commutative(self) -> bool:
        return all(d == 1 for d in self.block_dims)

    def basis_index(self, block: int, row: int, col: int) -> int:
        d = self.block_dims[block]
        return self._offsets[block] + row * d + col

    def basis_label(self, p: int) -> tuple[int, int, int]:
        return (int(self._block_of[p]), int(self._row_of[p]), int(self._col_of[p]))

    def __eq__(self, other) -> bool:
        return isinstance(other, Algebra) and self.block_dims == other.block_dims

    def __hash__(self):
        return hash(self.block_dims)

    def __repr__(self):
        return f"Algebra({list(self.block_dims)})"

    # -- structure constants ----------------------------------------------

    @property
    def mult_table(self) -> np.ndarray:
        """Dense structure constants M[p, q, r] with e_p e_q = sum_r M[p,q,r] e_r.

        Entries are exactly 0.0 or 1.0.  Built lazily; O(dim^3) memory.
        """
        if self._mult_table is None:
            d = self.dim
            table = np.zeros((d, d, d), dtype=np.float64)
            ps, qs = np.nonzero(self.unit_products >= 0)
            table[ps, qs, self.unit_products[ps, qs]] = 1.0
            table.setflags(write=False)
            self._mult_table = table
        return self._mult_table

    @functools.cached_property
    def unit_products(self) -> np.ndarray:
        """P[p, q] = r where e_p e_q = e_r, and -1 where e_p e_q = 0: a
        product of two matrix units is a matrix unit or zero."""
        dims = np.asarray(self.block_dims)[self._block_of]
        offsets = np.asarray(self._offsets)[self._block_of]
        r = offsets[:, None] + self._row_of[:, None] * dims[:, None] + self._col_of[None, :]
        same_block = self._block_of[:, None] == self._block_of[None, :]
        chained = self._col_of[:, None] == self._row_of[None, :]
        out = np.where(same_block & chained, r, -1)
        out.setflags(write=False)
        return out

    @functools.cached_property
    def row_labels(self) -> np.ndarray:
        """L[p] = starts[block] + row for e_p = e_(block,row,col), with
        starts[block] the blocks' summed sizes before it: the row of e_p in
        the block-diagonal matrix, so e_p maps the range of the diagonal
        unit labelled L[star_perm[p]] into that labelled L[p]."""
        starts = np.cumsum((0,) + self.block_dims)[:-1]
        out = starts[self._block_of] + self._row_of
        out.setflags(write=False)
        return out

    @functools.cached_property
    def unit_factorizations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(left, right, count): e_p = e_left[p, x] e_right[p, x] for each
        inner index x < count[p], the size of p's block.  Both tables have
        max(block_dims) columns; columns x >= count[p] repeat the
        factorization x = count[p] - 1."""
        count = np.asarray(self.block_dims)[self._block_of]
        offsets = np.asarray(self._offsets)[self._block_of]
        x = np.minimum(np.arange(max(self.block_dims)), count[:, None] - 1)
        left = offsets[:, None] + self._row_of[:, None] * count[:, None] + x
        right = offsets[:, None] + x * count[:, None] + self._col_of[:, None]
        for table in (left, right, count):
            table.setflags(write=False)
        return left, right, count

    def validate_structure(self) -> None:
        """Check associativity, unit law, and involution exactly.

        A table of 0s and 1s with at most one 1 per product e_p e_q is an
        integer table: e_p e_q = e_P[p, q], or 0 where P[p, q] = d, the
        index of zero (row and column d of P are d too).  The laws compare
        such indices, and no temporary but boolean masks of the table is
        larger than d^2.

        Raises ``ValueError`` naming the first law that fails (explicitly,
        so that ``python -O`` keeps the checks); intended for tests and for
        CLI-level validation of small algebras.
        """
        m, d = self.mult_table, self.dim
        ones = m == 1.0
        if not (ones | (m == 0.0)).all() or ones.sum(axis=2).max() > 1:
            raise ValueError("structure constants are not 0/1 with at most one 1 per product")
        prod = np.full((d + 1, d + 1), d, dtype=np.intp)
        prod[:d, :d] = np.where(ones.any(axis=2), ones.argmax(axis=2), d)
        # (e_p e_q) e_r = e_p (e_q e_r), one left factor p at a time
        if not all(np.array_equal(prod[prod[p, :d], :d], prod[p, prod[:d, :d]]) for p in range(d)):
            raise ValueError("structure constants are not associative")
        e = self.identity_coords.real
        if not np.array_equal(np.einsum("p,pqr->qr", e, m), np.eye(d)):
            raise ValueError("unit fails on the left")
        if not np.array_equal(np.einsum("q,pqr->pr", e, m), np.eye(d)):
            raise ValueError("unit fails on the right")
        if not np.array_equal(self.star_perm[self.star_perm], np.arange(d)):
            raise ValueError("star is not an involution")
        # star is an anti-homomorphism on basis elements: (e_p e_q)* = e_q* e_p*
        star = np.append(self.star_perm, d)
        if not np.array_equal(star[prod[:d, :d]], prod[np.ix_(self.star_perm, self.star_perm)].T):
            raise ValueError("star is not anti-multiplicative")

    # -- element constructors ----------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.zeros((d, d), dtype=np.complex128) for d in self.block_dims])

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.eye(d, dtype=np.complex128) for d in self.block_dims])

    def basis_element(self, p: int) -> "AlgebraElement":
        coords = np.zeros(self.dim, dtype=np.complex128)
        coords[p] = 1.0
        return self.element_from_coords(coords)

    def element_from_coords(self, coords) -> "AlgebraElement":
        coords = np.asarray(coords, dtype=np.complex128)
        if coords.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coordinates, got shape {coords.shape}")
        blocks = []
        for b, d in enumerate(self.block_dims):
            off = self._offsets[b]
            blocks.append(coords[off : off + d * d].reshape(d, d).copy())
        return AlgebraElement(self, blocks)

    def element_from_blocks(self, blocks) -> "AlgebraElement":
        return AlgebraElement(self, blocks)


class AlgebraElement:
    """Block-diagonal element of an :class:`Algebra`.

    Stored as one complex matrix per block.  The coordinate representation
    in the matrix-unit basis is an exact reshape of the blocks.
    """

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra: Algebra, blocks):
        if len(blocks) != algebra.n_blocks:
            raise ValueError("wrong number of blocks")
        mats = []
        for d, blk in zip(algebra.block_dims, blocks):
            mat = np.array(blk, dtype=np.complex128)
            if mat.shape != (d, d):
                raise ValueError(f"block of shape {mat.shape} does not match dimension {d}")
            mat.setflags(write=False)
            mats.append(mat)
        self.algebra = algebra
        self.blocks = tuple(mats)

    def coords(self) -> np.ndarray:
        return np.concatenate([blk.ravel() for blk in self.blocks])

    def star(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [blk.conj().T for blk in self.blocks])

    def norm(self) -> float:
        return element_norm(self)

    def is_positive(self) -> bool:
        return is_positive_element(self)

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self):
        return AlgebraElement(self.algebra, [-a for a in self.blocks])

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return AlgebraElement(self.algebra, [other * a for a in self.blocks])

    def __rmul__(self, scalar):
        return AlgebraElement(self.algebra, [scalar * a for a in self.blocks])

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.algebra != self.algebra:
            raise AlgebraMismatchError("elements belong to different algebras")

    def allclose(self, other, atol: float) -> bool:
        self._check(other)
        return all(np.allclose(a, b, atol=atol) for a, b in zip(self.blocks, other.blocks))

    def __repr__(self):
        return f"AlgebraElement({self.algebra!r}, norm={self.norm():.4g})"


# -- arithmetic ---------------------------------------------------------------


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Algebra product, blockwise matrix multiplication."""
    if x.algebra != y.algebra:
        raise AlgebraMismatchError("cannot multiply elements of different algebras")
    return AlgebraElement(x.algebra, [a @ b for a, b in zip(x.blocks, y.blocks)])


def star(x: AlgebraElement) -> AlgebraElement:
    """Involution: blockwise conjugate transpose."""
    return x.star()


def element_norm(x: AlgebraElement) -> float:
    """C*-norm: the largest singular value over all blocks."""
    return max(float(np.linalg.norm(blk, 2)) for blk in x.blocks)


def is_positive_element(x: AlgebraElement) -> bool:
    """True iff x is Hermitian within HERMITIAN_TOL and PSD within PSD_TOL,
    both times max(1, ||x||)."""
    scale = max(1.0, element_norm(x))
    for blk in x.blocks:
        if np.abs(blk - blk.conj().T).max() > HERMITIAN_TOL * scale:
            return False
        if np.linalg.eigvalsh((blk + blk.conj().T) / 2).min() < -PSD_TOL * scale:
            return False
    return True


# -- random sampling -----------------------------------------------------------


def random_element(algebra: Algebra, rng: np.random.Generator, scale: float = 1.0) -> AlgebraElement:
    """Complex-Gaussian element; deterministic given the generator state."""
    return AlgebraElement(algebra, gaussian_blocks(algebra, rng.standard_normal(2 * algebra.dim), scale))


def gaussian_blocks(algebra: Algebra, normals: np.ndarray, scale: float = 1.0) -> list[np.ndarray]:
    """Blocks of complex-Gaussian elements made from standard normals in the
    order ``random_element`` draws them: block by block, the real parts of a
    block and then its imaginary parts.  ``normals`` has shape (..., 2 dim),
    one element per leading index, and block b comes out as (..., d_b, d_b)."""
    lead, blocks, start = normals.shape[:-1], [], 0
    for d in algebra.block_dims:
        re = normals[..., start : start + d * d].reshape(*lead, d, d)
        im = normals[..., start + d * d : start + 2 * d * d].reshape(*lead, d, d)
        blocks.append(scale * (re + 1j * im) / np.sqrt(2.0))
        start += 2 * d * d
    return blocks


def random_psd(algebra: Algebra, rng: np.random.Generator, scale: float = 1.0) -> AlgebraElement:
    """Random positive element y*y, symmetrized so star fixes it bitwise."""
    return AlgebraElement(algebra, positive_blocks(random_element(algebra, rng, scale).blocks))


def positive_blocks(blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """y*y, symmetrized, for each block y (leading axes index elements)."""
    out = []
    for y in blocks:
        p = _adjoint(y) @ y
        out.append(0.5 * (p + _adjoint(p)))
    return out


def _adjoint(blk: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes, laid out in C order."""
    return np.ascontiguousarray(blk.conj().swapaxes(-1, -2))


def project_unit_ball(x):
    """Clip each block's singular values at 1 (projection onto the operator-norm
    unit ball, nearest point in Frobenius distance).

    ``x`` is an element, or a list of block stacks: block b of many elements
    at once, shape (..., d_b, d_b), projected by one SVD call per block."""
    blocks = x.blocks if isinstance(x, AlgebraElement) else x
    out = []
    for blk in blocks:
        u, s, vh = np.linalg.svd(blk)
        out.append((u * np.minimum(s, 1.0)[..., None, :]) @ vh)
    return AlgebraElement(x.algebra, out) if isinstance(x, AlgebraElement) else out


# -- amplification M_t(A) ------------------------------------------------------


class MatrixOverAlgebra:
    """A t-by-t matrix with entries in a common algebra.

    Stored as a coordinate tensor of shape (t, t, dim); entries are
    materialized on demand.
    """

    __slots__ = ("algebra", "t", "coords")

    def __init__(self, algebra: Algebra, coords):
        coords = np.asarray(coords, dtype=np.complex128)
        if coords.ndim != 3 or coords.shape[0] != coords.shape[1] or coords.shape[2] != algebra.dim:
            raise ValueError(f"expected coords of shape (t, t, {algebra.dim}), got {coords.shape}")
        coords = coords.copy()
        coords.setflags(write=False)
        self.algebra = algebra
        self.t = coords.shape[0]
        self.coords = coords

    @classmethod
    def from_entries(cls, algebra: Algebra, entries) -> "MatrixOverAlgebra":
        t = len(entries)
        coords = np.zeros((t, t, algebra.dim), dtype=np.complex128)
        for i in range(t):
            if len(entries[i]) != t:
                raise ValueError("entries grid is not square")
            for j in range(t):
                el = entries[i][j]
                if el.algebra != algebra:
                    raise AlgebraMismatchError("entry belongs to a different algebra")
                coords[i, j] = el.coords()
        return cls(algebra, coords)

    @classmethod
    def identity(cls, algebra: Algebra, t: int) -> "MatrixOverAlgebra":
        coords = np.zeros((t, t, algebra.dim), dtype=np.complex128)
        for i in range(t):
            coords[i, i] = algebra.identity_coords
        return cls(algebra, coords)

    def entry(self, i: int, j: int) -> AlgebraElement:
        return self.algebra.element_from_coords(self.coords[i, j])

    def star(self) -> "MatrixOverAlgebra":
        out = np.conj(self.coords.transpose(1, 0, 2))[:, :, self.algebra.star_perm]
        return MatrixOverAlgebra(self.algebra, out)

    def __matmul__(self, other: "MatrixOverAlgebra") -> "MatrixOverAlgebra":
        if not isinstance(other, MatrixOverAlgebra):
            return NotImplemented
        if other.algebra != self.algebra or other.t != self.t:
            raise AlgebraMismatchError("matrix size or algebra mismatch")
        m = self.algebra.mult_table
        out = np.einsum("irp,rjq,pqs->ijs", self.coords, other.coords, m)
        return MatrixOverAlgebra(self.algebra, out)

    def __add__(self, other: "MatrixOverAlgebra") -> "MatrixOverAlgebra":
        if other.algebra != self.algebra or other.t != self.t:
            raise AlgebraMismatchError("matrix size or algebra mismatch")
        return MatrixOverAlgebra(self.algebra, self.coords + other.coords)

    def __rmul__(self, scalar):
        return MatrixOverAlgebra(self.algebra, scalar * self.coords)

    def allclose(self, other, atol: float) -> bool:
        return np.allclose(self.coords, other.coords, atol=atol)

    def __repr__(self):
        return f"MatrixOverAlgebra(t={self.t}, algebra={self.algebra!r})"


class Amplification:
    """The algebra M_t(A) ≅ ⊕_i M_{t·d_i}(C) with its canonical embedding.

    ``embed`` maps a :class:`MatrixOverAlgebra` to an element of the
    amplified algebra; ``extract`` inverts it.  Both are exact reshapes.
    """

    def __init__(self, base: Algebra, t: int):
        if t < 1:
            raise ValueError(f"amplification level must be >= 1, got {t}")
        self.base = base
        self.t = int(t)
        self.algebra = Algebra([t * d for d in base.block_dims])

    def embed(self, x: MatrixOverAlgebra) -> AlgebraElement:
        if x.algebra != self.base or x.t != self.t:
            raise AlgebraMismatchError("matrix does not match this amplification")
        return AlgebraElement(self.algebra, self.embed_coords(x.coords))

    def extract(self, x: AlgebraElement) -> MatrixOverAlgebra:
        if x.algebra != self.algebra:
            raise AlgebraMismatchError("element does not live in the amplified algebra")
        return MatrixOverAlgebra(self.base, self.extract_blocks(x.blocks))

    def embed_coords(self, coords: np.ndarray) -> list[np.ndarray]:
        """Blocks of ``embed`` from (..., t, t, dim) coordinates: block b is
        (..., t d_b, t d_b), with the leading axes kept."""
        t, lead = self.t, coords.shape[:-3]
        blocks = []
        for b, d in enumerate(self.base.block_dims):
            off = self.base._offsets[b]
            grid = coords[..., off : off + d * d].reshape(*lead, t, t, d, d)
            blocks.append(grid.swapaxes(-3, -2).reshape(*lead, t * d, t * d))
        return blocks

    def extract_blocks(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """Inverse of ``embed_coords``: (..., t, t, dim) coordinates."""
        t, lead = self.t, blocks[0].shape[:-2]
        coords = np.zeros((*lead, t, t, self.base.dim), dtype=np.complex128)
        for b, d in enumerate(self.base.block_dims):
            off = self.base._offsets[b]
            grid = blocks[b].reshape(*lead, t, d, t, d).swapaxes(-3, -2)
            coords[..., off : off + d * d] = grid.reshape(*lead, t, t, d * d)
        return coords


@functools.lru_cache(maxsize=64)
def amplified_algebra(base: Algebra, t: int) -> Amplification:
    """M_t(A) as a C*-algebra, bundled with embed/extract maps.

    Built once per (block sizes, t): both objects are immutable, and the
    falsifier and the estimator ask for the same level on every trial."""
    return Amplification(base, t)
