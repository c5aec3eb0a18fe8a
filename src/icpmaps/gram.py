"""Positivity evidence: admissible-tuple sampling and the semi-inner-product
Gram kernel.

Positivity of a (block) multilinear map is a condition on palindromic
("admissible") argument tuples; complete positivity demands it at every
amplification level.  Two complementary instruments live here:

* a falsifier that samples admissible tuples at chosen levels and reports a
  certified counterexample when a value matrix has a negative eigenvalue
  (absence of a counterexample is evidence only).  Its trials run as row
  batches of one sampler call, one kernel call and one stacked eigensolve,
  and it returns the first hit in trial order, the one a trial-by-trial
  loop over the same generator finds;
* the Gram matrix of the semi-inner product on A^{tensor m} (x) H^n.  A CP
  map always yields a PSD Gram, so a negative eigenvalue soundly refutes
  complete positivity; the dilation reads only its anchor blocks, and the
  whole Gram only to decide a map its anchor blocks do not clear.  One
  gather, ``_gather``, holds the basis tuple each entry reads and the flat
  index, and forms both the whole Gram and the anchor blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    Algebra,
    MatrixOverAlgebra,
    amplified_algebra,
    gaussian_blocks,
    positive_blocks,
)
from .blockmap import as_block_map
from .errors import NonHermitianGramError
from .multimap import amplified_evaluate
from .tolerances import FALSIFIER_TOL, GRAM_HERMITIAN_TOL, GRAM_PSD_TOL, PALINDROME_TOL

# rows of the Gram per pass of the Hermiticity check: 256 rows of an N = 2048 Gram are 8 MiB
GRAM_CHUNK_ROWS = 256


# -- admissible tuples -------------------------------------------------------


def sample_admissible_tuple(
    algebra: Algebra, k: int, t: int, rng: np.random.Generator, rows: int | None = None
) -> list:
    """Random level-t tuple satisfying (a_1,..,a_k) = (a_k*,..,a_1*) exactly.

    For odd k = 2m-1 the tuple is (b_1,..,b_{m-1}, p, b_{m-1}*,..,b_1*) with
    p = y*y positive; for even k = 2m it is (b_1,..,b_m, b_m*,..,b_1*).

    With ``rows`` the result is that many tuples, drawn from one
    ``standard_normal`` call in the order successive calls would draw them,
    as k coordinate stacks of shape (rows, t, t, dim); without it, one tuple
    (the one-row case) as k t-matrices.
    """
    if t < 1:
        raise ValueError(f"level must be >= 1, got {t}")
    amp = amplified_algebra(algebra, t)
    m = (k + 1) // 2
    normals = rng.standard_normal((1 if rows is None else rows, m, 2 * amp.algebra.dim))
    blocks = gaussian_blocks(amp.algebra, normals)
    if k % 2 == 1:
        blocks = [
            np.concatenate([blk[:, :-1], positive_blocks([blk[:, -1:]])[0]], axis=1) for blk in blocks
        ]
    coords = amp.extract_blocks(blocks)
    star = np.conj(coords.swapaxes(2, 3))[..., algebra.star_perm]
    stacks = [coords[:, j] for j in range(m)] + [star[:, j] for j in reversed(range(k - m))]
    if rows is None:
        return [MatrixOverAlgebra(algebra, x[0]) for x in stacks]
    return stacks


def admissibility_report(mats: Sequence[MatrixOverAlgebra]) -> dict:
    """Check the palindromic condition and (odd k) middle positivity."""
    k = len(mats)
    amp = amplified_algebra(mats[0].algebra, mats[0].t)
    palindrome_dev = 0.0
    for i in range(k):
        dev = float(np.abs(mats[i].coords - mats[k - 1 - i].star().coords).max())
        palindrome_dev = max(palindrome_dev, dev)
    report = {
        "palindromic": palindrome_dev <= PALINDROME_TOL,
        "palindrome_deviation": palindrome_dev,
    }
    if k % 2 == 1:
        mid = amp.embed(mats[(k - 1) // 2])
        report["middle_positive"] = bool(mid.is_positive())
    report["admissible"] = report["palindromic"] and report.get("middle_positive", True)
    return report


# -- falsifier ----------------------------------------------------------------


@dataclass
class Counterexample:
    """A certified violation of positivity at some amplification level."""

    mats: list
    level: int
    min_eigenvalue: float
    value_norm: float

    def to_dict(self) -> dict:
        from . import serialize

        return {
            "level": self.level,
            "min_eigenvalue": self.min_eigenvalue,
            "value_norm": self.value_norm,
            "tuple": [serialize.matrix_over_algebra_to_json(x) for x in self.mats],
        }


def positivity_falsify(
    phi,
    levels: Sequence[int] = (1, 2),
    trials: int = 500,
    seed: int = 0,
) -> Counterexample | None:
    """Search for an admissible tuple whose value has a negative eigenvalue.

    A returned counterexample is a proof of non-(complete-)positivity;
    returning None is only evidence.  The eigenvalue threshold is relative
    to the value norm so different levels compare on equal footing.

    The trials of a level run as rows of batches (``ChainGrid.batch_rows``)
    of one sampler and one kernel call each; every row is its own slice of
    every batched operation, so the first hit in trial order is the tuple a
    one-at-a-time loop over the same generator returns, bit for bit.
    """
    if not levels or min(levels) < 1:
        raise ValueError(f"levels must be a nonempty list of integers >= 1, got {list(levels)}")
    if trials < 1:
        raise ValueError(f"need at least one trial per level, got {trials}")
    block = as_block_map(phi)
    algebra = block.amplification.algebra  # M_n(A): tuples are t-matrices over it
    grid = block.chain_grid()
    rng = np.random.default_rng(seed)
    for t in levels:
        batch = grid.batch_rows(t)
        for start in range(0, trials, batch):
            mats = sample_admissible_tuple(algebra, block.k, t, rng, min(batch, trials - start))
            values = amplified_evaluate(block, t, mats)
            herm = (values + values.conj().swapaxes(1, 2)) / 2.0
            lowest = np.linalg.eigvalsh(herm).min(axis=1)
            scale = 1.0 + np.abs(values).max(axis=(1, 2))
            hits = np.flatnonzero(lowest < -FALSIFIER_TOL * scale)
            if len(hits):
                r = hits[0]
                return Counterexample(
                    mats=[MatrixOverAlgebra(algebra, x[r]) for x in mats],
                    level=t,
                    min_eigenvalue=float(lowest[r]),
                    value_norm=float(np.linalg.norm(values[r], 2)),
                )
    return None


# -- Gram kernel ---------------------------------------------------------------


@dataclass
class GramKernel:
    """Matrix of the semi-inner product on A^{tensor m} (x) H^n.

    Row index encodes the second (conjugate-linear) argument, column index
    the first, so positivity of the form reads x^dagger G x >= 0; entries
    and the flat index ((alpha, slot j), component s) are ``_gather``'s.

    The class of an index is the (block, row) label of each factor's unit.
    A pair of factors enters an entry only through e_q* e_p, which vanishes
    unless the two units share that label, so the Gram of an invariant map
    is zero between classes and ``spectrum`` diagonalizes it class by class.
    """

    matrix: np.ndarray
    algebra: Algebra
    k: int
    n: int
    h: int

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def hermiticity_residual(self) -> float:
        """max |G - G*| / (1 + max |G|), over ``GRAM_CHUNK_ROWS`` rows at a
        time so that no temporary is as large as the matrix."""
        g = self.matrix
        chunks = [slice(s, s + GRAM_CHUNK_ROWS) for s in range(0, self.size, GRAM_CHUNK_ROWS)]
        scale = 1.0 + float(max(np.abs(g[rows]).max() for rows in chunks))
        return float(max(np.abs(g[rows] - g[:, rows].conj().T).max() for rows in chunks) / scale)

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))

    def _class_indices(self) -> list[np.ndarray]:
        """The flat indices of each class, one (classes, size) array per
        class size, classes in order of their labels raveled in C order."""
        alg, m = self.algebra, (self.k + 1) // 2
        digits = np.indices((alg.dim,) * m).reshape(m, -1)
        labels = (sum(alg.block_dims),) * m
        cls = np.repeat(np.ravel_multi_index(alg.row_labels[digits], labels), self.n * self.h)
        order = np.argsort(cls, kind="stable")
        sizes = np.bincount(cls)
        first = np.cumsum(sizes) - sizes
        return [order[first[sizes == s][:, None] + np.arange(s)] for s in np.unique(sizes)]

    @functools.cached_property
    def spectrum(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Eigenpairs of the Hermitian part, read by the PSD test and the
        refuter: one (index, lam, u) group per class size, with ``index``
        (classes, size) the flat indices of its classes, ``lam`` their
        eigenvalues, ascending per class, and ``u`` (classes, size, size)
        their eigenvectors as columns over those indices.  One batched
        ``eigh`` per group.  Unless every entry between two classes is
        exactly 0.0 (a map that is not invariant), the whole matrix is one
        class and one ``eigh``."""
        g = self.matrix
        groups = self._class_indices()
        blocks = [g[idx[:, :, None], idx[:, None, :]] for idx in groups]
        if sum(map(np.count_nonzero, blocks)) != np.count_nonzero(g):
            groups, blocks = [np.arange(self.size)[None]], [g[None]]
        out = []
        for idx, blk in zip(groups, blocks):
            lam, u = np.linalg.eigh((blk + blk.conj().swapaxes(1, 2)) / 2.0)
            for arr in (idx, lam, u):
                arr.setflags(write=False)
            out.append((idx, lam, u))
        return tuple(out)

    def extreme_eigenvalues(self) -> tuple[float, float]:
        """(lowest, highest) eigenvalue of the Hermitian part."""
        return (
            float(min(lam[:, 0].min() for _, lam, _ in self.spectrum)),
            float(max(lam[:, -1].max() for _, lam, _ in self.spectrum)),
        )

    def spectral_norm(self) -> float:
        """Largest |eigenvalue| of the Hermitian part, read from ``spectrum``:
        the 2-norm of a Hermitian Gram without a second factorization."""
        low, high = self.extreme_eigenvalues()
        return max(-low, high)

    def lowest_eigenvector(self) -> np.ndarray:
        """A unit eigenvector of the lowest eigenvalue, over all N indices."""
        idx, lam, u = min(self.spectrum, key=lambda group: group[1][:, 0].min())
        c = int(np.argmin(lam[:, 0]))
        x = np.zeros(self.size, dtype=np.complex128)
        x[idx[c]] = u[c, :, 0]
        return x


def _gather(block, units: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The Gram over the unit tuples of ``units``, one array of basis indices per
    factor: (their flat Gram indices, the Gram there), read from the coefficients.

    Entry at row (beta=(q_1..q_m), slot i, component u) and column
    (alpha=(p_1..p_m), slot j, component s) is the (u, s) entry of

        odd k:   phi_ij(e_{q_m}*, .., e_{q_2}*, e_{q_1}* e_{p_1}, e_{p_2}, .., e_{p_m})
        even k:  phi_ij(e_{q_m}*, .., e_{q_1}*, e_{p_1}, .., e_{p_m})

    and 0 where e_{q_1}* e_{p_1} = 0.  Rows and columns run over the tuples
    in C order; the flat index of ((alpha, j), s) is alpha's basis indices
    raveled in C order, times n h, plus j h + s.
    """
    alg, k, m, n, h = block.algebra, block.k, block.m, block.n, block.h
    d, star = alg.dim, alg.star_perm
    lens = tuple(map(len, units))
    size = math.prod(lens)
    grid = np.ix_(*units, *units)  # beta on axes 0..m-1, alpha on axes m..2m-1
    beta, alpha = grid[:m], list(grid[m:])
    if k % 2:
        mid = alg.unit_products[star[beta[0]], alpha[0]]
        slots = [star[q] for q in beta[:0:-1]] + [np.maximum(mid, 0)] + alpha[1:]  # mid < 0 is zeroed below
    else:
        slots = [star[q] for q in beta[::-1]] + alpha
    tuples = functools.reduce(lambda acc, slot: acc * d + slot, slots).reshape(size, size)
    gram = np.empty((size, n, h, size, n, h), dtype=np.complex128)
    for i, j in np.ndindex(n, n):
        gram[:, i, :, :, j] = block.entries[i][j].coeffs.reshape(-1, h, h)[tuples].transpose(0, 2, 1, 3)
    if k % 2:
        gram.transpose(0, 3, 1, 2, 4, 5)[np.broadcast_to(mid < 0, lens * 2).reshape(size, size)] = 0.0
    flat = functools.reduce(lambda acc, p: acc * d + p, alpha).ravel()
    return (flat[:, None] * n * h + np.arange(n * h)).ravel(), gram.reshape(size * n * h, -1)


def build_gram(phi) -> GramKernel:
    """Gram matrix of the map's semi-inner product, ``_gather`` over every unit tuple.
    The matrix is read-only."""
    block = as_block_map(phi)
    _, matrix = _gather(block, [np.arange(block.algebra.dim)] * block.m)
    matrix.setflags(write=False)
    return GramKernel(matrix=matrix, algebra=block.algebra, k=block.k, n=block.n, h=block.h)


def gram_is_psd(gram: GramKernel, tol: float | None = None) -> tuple[bool, float]:
    """PSD test; raises if the Gram is not Hermitian within tolerance."""
    herm_res = gram.hermiticity_residual
    if herm_res > GRAM_HERMITIAN_TOL:
        raise NonHermitianGramError(herm_res)
    min_eig = gram.extreme_eigenvalues()[0]
    tol = GRAM_PSD_TOL * max(1.0, gram.spectral_norm()) if tol is None else tol
    return bool(min_eig >= -tol), min_eig


@dataclass
class RefutationRecord:
    """Certificate that a map is not completely positive."""

    min_eigenvalue: float
    witness: np.ndarray
    gram_norm: float

    def to_dict(self) -> dict:
        from . import serialize

        return {
            "min_eigenvalue": self.min_eigenvalue,
            "gram_norm": self.gram_norm,
            "witness": serialize.matrix_to_json(self.witness),
        }


def cp_refute(phi) -> RefutationRecord | None:
    """Sound CP refuter: a negative Gram eigenvalue certifies non-CP.

    Returns None when the Gram is PSD; that alone is inconclusive (the
    certificate path is a successful dilation).  Raises
    ``NonHermitianGramError`` when the Gram is not Hermitian.
    """
    gram = build_gram(phi)
    psd, min_eig = gram_is_psd(gram)
    if psd:
        return None
    return RefutationRecord(
        min_eigenvalue=min_eig,
        witness=gram.lowest_eigenvector(),
        gram_norm=gram.spectral_norm(),
    )
