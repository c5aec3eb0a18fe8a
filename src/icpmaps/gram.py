"""Positivity evidence: admissible-tuple sampling and the semi-inner-product
Gram kernel.

Positivity of a (block) multilinear map is a condition on palindromic
("admissible") argument tuples; complete positivity demands it at every
amplification level.  Two complementary instruments live here:

* a falsifier that samples admissible tuples at chosen levels and reports a
  certified counterexample when a value matrix has a negative eigenvalue
  (absence of a counterexample is evidence only);
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
    random_element,
    random_psd,
)
from .blockmap import as_block_map
from .errors import NonHermitianGramError
from .multimap import MultilinearMap, amplified_evaluate

FALSIFIER_TOL = 1e-8
GRAM_PSD_TOL = 1e-9
GRAM_HERMITIAN_TOL = 1e-8


# -- admissible tuples -------------------------------------------------------


def sample_admissible_tuple(
    algebra: Algebra, k: int, t: int, rng: np.random.Generator
) -> list[MatrixOverAlgebra]:
    """Random level-t tuple satisfying (a_1,..,a_k) = (a_k*,..,a_1*) exactly.

    For odd k = 2m-1 the tuple is (b_1,..,b_{m-1}, p, b_{m-1}*,..,b_1*) with
    p positive; for even k = 2m it is (b_1,..,b_m, b_m*,..,b_1*).
    """
    if t < 1:
        raise ValueError(f"level must be >= 1, got {t}")
    amp = amplified_algebra(algebra, t)
    m = (k + 1) // 2
    if k % 2 == 1:
        bs = [random_element(amp.algebra, rng) for _ in range(m - 1)]
        mid = random_psd(amp.algebra, rng)
        elems = bs + [mid] + [b.star() for b in reversed(bs)]
    else:
        bs = [random_element(amp.algebra, rng) for _ in range(m)]
        elems = bs + [b.star() for b in reversed(bs)]
    return [amp.extract(e) for e in elems]


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
    """
    block = as_block_map(phi)
    algebra = block.amplification.algebra  # M_n(A): tuples are t-matrices over it
    rng = np.random.default_rng(seed)
    for t in levels:
        for _ in range(trials):
            mats = sample_admissible_tuple(algebra, block.k, t, rng)
            value = amplified_evaluate(block, t, mats)
            herm = (value + value.conj().T) / 2.0
            eigs = np.linalg.eigvalsh(herm)
            scale = 1.0 + float(np.abs(value).max())
            if eigs.min() < -tol * scale:
                return Counterexample(
                    mats=mats,
                    level=t,
                    min_eigenvalue=float(eigs.min()),
                    value_norm=float(np.linalg.norm(value, 2)),
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
            "witness": serialize.vector_to_json(self.witness),
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
