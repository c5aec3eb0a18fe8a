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
  complete positivity; the PSD direction feeds the dilation construction.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field
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
from .multimap import MultilinearMap, amplified_evaluate

FALSIFIER_TOL = 1e-8
GRAM_PSD_TOL = 1e-9
GRAM_HERMITIAN_TOL = 1e-8


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


def admissibility_report(mats: Sequence[MatrixOverAlgebra], tol: float = 1e-12) -> dict:
    """Check the palindromic condition and (odd k) middle positivity."""
    k = len(mats)
    amp = amplified_algebra(mats[0].algebra, mats[0].t)
    palindrome_dev = 0.0
    for i in range(k):
        dev = float(np.abs(mats[i].coords - mats[k - 1 - i].star().coords).max())
        palindrome_dev = max(palindrome_dev, dev)
    report = {
        "palindromic": palindrome_dev <= tol,
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
    tol: float = FALSIFIER_TOL,
) -> Counterexample | None:
    """Search for an admissible tuple whose value has a negative eigenvalue.

    A returned counterexample is a proof of non-(complete-)positivity;
    returning None is only evidence.  The eigenvalue threshold is relative
    to the value norm so different levels compare on equal footing.

    The trials of a level run as rows of batches (``ChainGrid.batch_rows``
    over the k slots of the kernel's chain) of one sampler and one kernel
    call each; every row is its own slice of every batched operation, so the
    first hit in trial order is the tuple a one-at-a-time loop over the same
    generator returns, bit for bit.
    """
    if not levels or min(levels) < 1:
        raise ValueError(f"levels must be a nonempty list of integers >= 1, got {list(levels)}")
    block = as_block_map(phi)
    algebra = block.amplification.algebra  # M_n(A): tuples are t-matrices over it
    grid = block.chain_grid()
    rng = np.random.default_rng(seed)
    for t in levels:
        batch = grid.batch_rows(t, block.k)
        for start in range(0, trials, batch):
            mats = sample_admissible_tuple(algebra, block.k, t, rng, min(batch, trials - start))
            values = amplified_evaluate(block, t, mats)
            herm = (values + values.conj().swapaxes(1, 2)) / 2.0
            lowest = np.linalg.eigvalsh(herm).min(axis=1)
            scale = 1.0 + np.abs(values).max(axis=(1, 2))
            hits = np.flatnonzero(lowest < -tol * scale)
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
    the first, so positivity of the form reads x^dagger G x >= 0.  The flat
    index is ((alpha, slot j), component s) with alpha = (p_1..p_m) raveled
    in C order.
    """

    matrix: np.ndarray
    algebra: Algebra
    k: int
    n: int
    h: int
    index_map: list = field(repr=False)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def hermiticity_residual(self) -> float:
        g = self.matrix
        scale = 1.0 + float(np.abs(g).max())
        return float(np.abs(g - g.conj().T).max() / scale)

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))

    def spectral_norm(self) -> float:
        """Largest |eigenvalue| of the Hermitian part, read from ``spectrum``:
        the 2-norm of a Hermitian Gram without a second factorization."""
        lam = self.spectrum[0]
        return float(max(-lam[0], lam[-1]))

    @functools.cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """``eigh`` of the Hermitian part, ascending: read by the PSD test, refuter and dilation."""
        lam, u = np.linalg.eigh((self.matrix + self.matrix.conj().T) / 2.0)
        lam.setflags(write=False)
        u.setflags(write=False)
        return lam, u


_HELD_GRAMS = weakref.WeakKeyDictionary()  # map -> weak reference to its kernel


def build_gram(phi) -> GramKernel:
    """Gram matrix of the map's semi-inner product.

    Entry at row (beta=(q_1..q_m), slot i, component u) and column
    (alpha=(p_1..p_m), slot j, component s) is the (u, s) entry of

        odd k:   phi_ij(e_{q_m}*, .., e_{q_2}*, e_{q_1}* e_{p_1}, e_{p_2}, .., e_{p_m})
        even k:  phi_ij(e_{q_m}*, .., e_{q_1}*, e_{p_1}, .., e_{p_m})

    While a caller holds the (read-only) kernel, the same map gets it back,
    so a command that tests the Gram and then dilates or refutes forms it
    once; no kernel outlives its last holder.
    """
    held = _HELD_GRAMS.get(phi, lambda: None)()
    if held is not None:
        return held
    block = as_block_map(phi)
    alg, k, n, h = block.algebra, block.k, block.n, block.h
    d, m = alg.dim, block.m
    dm = d**m
    blocks = np.empty((dm, n, h, dm, n, h), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            tij = _gram_core(block.entries[i][j], m)
            blocks[:, i, :, :, j, :] = tij.reshape(dm, dm, h, h).transpose(0, 2, 1, 3)
    size = dm * n * h
    matrix = blocks.reshape(size, size)
    matrix.setflags(write=False)
    index_map = [
        {"factors": list(np.unravel_index(a, (d,) * m)), "slot": j, "component": s}
        for a in range(dm)
        for j in range(n)
        for s in range(h)
    ]
    gram = GramKernel(matrix=matrix, algebra=alg, k=k, n=n, h=h, index_map=index_map)
    _HELD_GRAMS[phi] = weakref.ref(gram)
    return gram


def _gram_core(phi: MultilinearMap, m: int) -> np.ndarray:
    """Kernel tensor of one entry map, axes (q_1..q_m, p_1..p_m, u, s)."""
    alg, k = phi.algebra, phi.k
    perm = alg.star_perm
    coeffs = phi.coeffs
    if k % 2 == 1:
        # slots 0..m-2 hold e_{q_m}*..e_{q_2}*, slot m-1 the product, rest p's
        a = coeffs
        for ax in range(m - 1):
            a = np.take(a, perm, axis=ax)
        msp = alg.mult_table[perm]  # msp[q_1, p_1, r] = M[q_1*, p_1, r]
        t = np.tensordot(msp, a, axes=(2, m - 1))
        # axes now (q_1, p_1, q_m, .., q_2, p_2, .., p_m, u, s)
        axes = [0] + list(range(m, 1, -1)) + [1] + list(range(m + 1, 2 * m)) + [2 * m, 2 * m + 1]
        return t.transpose(axes)
    a = coeffs
    for ax in range(m):
        a = np.take(a, perm, axis=ax)
    axes = list(range(m - 1, -1, -1)) + list(range(m, 2 * m + 2))
    return a.transpose(axes)


def gram_is_psd(gram: GramKernel, tol: float | None = None) -> tuple[bool, float]:
    """PSD test; raises if the Gram is not Hermitian within tolerance."""
    herm_res = gram.hermiticity_residual()
    if herm_res > GRAM_HERMITIAN_TOL:
        raise NonHermitianGramError(
            f"Gram matrix is non-Hermitian (relative residual {herm_res:.3e}); "
            "source map is malformed or not symmetric"
        )
    min_eig = float(gram.spectrum[0][0])
    if tol is None:
        tol = GRAM_PSD_TOL * max(1.0, gram.spectral_norm())
    return bool(min_eig >= -tol), min_eig


@dataclass
class RefutationRecord:
    """Certificate that a map is not completely positive."""

    min_eigenvalue: float
    witness: np.ndarray
    gram_norm: float
    index_map: list = field(repr=False)

    def to_dict(self) -> dict:
        from . import serialize

        return {
            "min_eigenvalue": self.min_eigenvalue,
            "gram_norm": self.gram_norm,
            "witness": serialize.matrix_to_json(self.witness),
        }


def cp_refute(phi, tol: float | None = None) -> RefutationRecord | None:
    """Sound CP refuter: a negative Gram eigenvalue certifies non-CP.

    Returns None when the Gram is PSD; that alone is inconclusive (the
    certificate path is a successful dilation).
    """
    gram = build_gram(phi)
    psd, min_eig = gram_is_psd(gram, tol)
    if psd:
        return None
    return RefutationRecord(
        min_eigenvalue=min_eig,
        witness=gram.spectrum[1][:, 0],
        gram_norm=gram.spectral_norm(),
        index_map=gram.index_map,
    )
