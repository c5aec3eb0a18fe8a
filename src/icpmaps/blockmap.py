"""Block multilinear maps: n-by-n grids of k-linear maps acting on M_n(A)^k.

A block map [phi_ij] sends a k-tuple of n-by-n matrices over the algebra to
the (n*h)-by-(n*h) matrix whose (i, j) block is the chained sum

    sum over r_1..r_{k-1} of phi_ij(x_{1,i r_1}, x_{2,r_1 r_2}, ..., x_{k,r_{k-1} j}).

Level t acts on t-matrices over M_n(A) by the same sum, a chain of length
tn over A whose end indices pick the grid entry; ``amplified_evaluate``
evaluates it straight from the grid (``chain_grid``).

Block invariance, the migration identity over M_n(A), follows from the
entries and (n, k) (``block_invariance_report``): for n = 1 the block map is
its entry; for k <= 2 it is invariant iff every entry is; for n >= 2 and
k >= 3 it is invariant iff it is zero.  ``induced_map`` materializes the
action over M_n(A), the definition of block invariance; it serves as the
test oracle.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .algebra import Amplification, MatrixOverAlgebra, amplified_algebra
from .errors import AlgebraMismatchError, ArityError
from .multimap import ChainGrid, MultilinearMap
from .tolerances import coefficient_tol


class BlockMultilinearMap:
    """An n-by-n grid of multilinear maps sharing (algebra, k, h)."""

    def __init__(self, entries: Sequence[Sequence[MultilinearMap]]):
        n = len(entries)
        if n < 1 or any(len(row) != n for row in entries):
            raise ValueError("entries must form a square grid")
        first = entries[0][0]
        for row in entries:
            for phi in row:
                if (phi.algebra, phi.k, phi.h) != (first.algebra, first.k, first.h):
                    raise AlgebraMismatchError("grid entries must share (algebra, k, h)")
        self.entries = tuple(tuple(row) for row in entries)
        self.n = n
        self.algebra = first.algebra
        self.k = first.k
        self.h = first.h
        self._grid: ChainGrid | None = None

    @classmethod
    def from_single(cls, phi: MultilinearMap) -> "BlockMultilinearMap":
        return cls([[phi]])

    @classmethod
    def constant_grid(cls, phi: MultilinearMap, n: int) -> "BlockMultilinearMap":
        return cls([[phi] * n for _ in range(n)])

    @property
    def m(self) -> int:
        return self.entries[0][0].m

    @property
    def amplification(self) -> Amplification:
        """The algebra M_n(A) that block arguments live in."""
        return amplified_algebra(self.algebra, self.n)

    def coefficient_scale(self) -> float:
        return max(phi.coefficient_scale() for row in self.entries for phi in row)

    # -- evaluation -------------------------------------------------------

    def block_evaluate(self, mats: Sequence[MatrixOverAlgebra]) -> np.ndarray:
        """Level-1 value: the block formula on n-by-n matrices over the algebra."""
        if len(mats) != self.k:
            raise ArityError(f"expected {self.k} arguments, got {len(mats)}")
        for x in mats:
            if x.algebra != self.algebra or x.t != self.n:
                raise AlgebraMismatchError("argument is not an n-matrix over the shared algebra")
        if self.n == 1:
            return self.entries[0][0].evaluate([x.entry(0, 0) for x in mats])
        return self.chain_grid().value(1, [x.coords.transpose(0, 2, 1)[None] for x in mats])[0]

    def chain_grid(self) -> ChainGrid:
        """The grid in the form ``amplified_evaluate`` reads.  Its unit index is
        the coordinate permutation of ``embed``, read off by embedding labels."""
        if self._grid is None:
            size, n = self.algebra.dim * self.n**2, self.n
            labels = np.arange(size).reshape(-1, n, n).transpose(1, 2, 0)
            embedded = self.amplification.embed(MatrixOverAlgebra(self.algebra, labels)).coords()
            unit_index = np.empty(size, dtype=np.intp)
            unit_index[embedded.real.astype(np.intp)] = np.arange(size)
            if n == 1:  # the one entry's coefficients, read in place
                ends = self.entries[0][0].coeffs.reshape(1, 1, -1, self.h**2)
            else:
                ends = np.stack([[phi.coeffs.reshape(-1, self.h**2) for phi in row] for row in self.entries])
            self._grid = ChainGrid(
                self.amplification.algebra, self.k, self.h, ends, unit_index.reshape(-1, n, n)
            )
        return self._grid

    def unit_value(self) -> np.ndarray:
        one = MatrixOverAlgebra.identity(self.algebra, self.n)
        return self.block_evaluate([one] * self.k)

    # -- the induced map over M_n(A) ---------------------------------------

    def induced_map(self) -> MultilinearMap:
        """The same action expressed as a multilinear map over M_n(A): the
        definition of block invariance, and the test oracle of the derived
        block report and the chain kernel.

        Coefficients over the matrix-unit basis of M_n(A) have a single
        nonzero (h, h) block per chained assignment, located at block
        position (row of the first unit, column of the last unit).
        """
        grid, big = self.chain_grid(), self.amplification.algebra
        d, k, h, n = self.algebra.dim, self.k, self.h, self.n
        tuples = np.indices((d,) * k).reshape(k, -1, 1)
        chains = np.indices((n,) * (k + 1)).reshape(k + 1, 1, -1)
        flat = 0
        for l in range(k):
            flat = flat * big.dim + grid.unit_index[tuples[l], chains[l], chains[l + 1]]
        out = np.zeros((big.dim**k, n, h, n, h), dtype=np.complex128)
        ends = grid.ends.reshape(n, n, -1, h, h)
        out[flat, chains[0], :, chains[-1], :] = ends[chains[0], chains[-1], np.arange(d**k)[:, None]]
        return MultilinearMap(big, k, n * h, out.reshape((big.dim,) * k + (n * h, n * h)))

    # -- adjoint / symmetry -------------------------------------------------

    def block_adjoint(self) -> "BlockMultilinearMap":
        """Adjoint grid: entry (i, j) is the multilinear adjoint of entry (j, i)."""
        n = self.n
        return BlockMultilinearMap(
            [[self.entries[j][i].adjoint() for j in range(n)] for i in range(n)]
        )

    def block_is_symmetric(self, tol: float | None = None) -> bool:
        tol = coefficient_tol(self.coefficient_scale()) if tol is None else tol
        return bool(self._symmetry_deviation <= tol)

    @functools.cached_property
    def _symmetry_deviation(self) -> float:
        """Largest |coefficient| of the grid minus its adjoint grid, one pair
        of entries at a time (``MultilinearMap.adjoint_deviation``): no second
        grid is held.  Entry (j, i) deviates exactly as entry (i, j) does, so
        only i <= j are visited.  The coefficients are read-only, so it is
        computed once."""
        return max(
            self.entries[i][j].adjoint_deviation(self.entries[j][i])
            for i in range(self.n)
            for j in range(i, self.n)
        )

    # -- invariance ----------------------------------------------------------

    def block_invariance_report(self) -> dict:
        """``induced_map().invariance_report(...)``, derived from the entries'
        reports (each run with the grid's tolerance) and (n, k).

        At k <= 2, and for n = 1, the identity over M_n(A) on matrix units is
        the entries' identities side by side, so the largest entry deviation
        is the block deviation.  At n >= 2 and k >= 3 only the zero grid is
        invariant: at k = 3, a = E_12 x, c = E_21 1, b = E_11 y and
        d = E_1j z break the rhs chain and leave phi_1j(x, y, z) = 0, so every
        coefficient is a deviation too.  ``tuples_checked`` sums the entries'
        visits; like theirs, the report is always exhaustive."""
        tol = coefficient_tol(self.coefficient_scale())
        phis = [phi for row in self.entries for phi in row]
        reports = [phi.invariance_report(tol) for phi in phis]
        dev = max(r["max_deviation"] for r in reports)
        if self.n >= 2 and self.k >= 3:
            dev = max(dev, *(float(np.abs(phi.coeffs).max()) for phi in phis))
        return {
            "invariant": bool(dev <= tol),
            "max_deviation": dev,
            "exhaustive": True,
            "tolerance": tol,
            "tuples_checked": sum(r["tuples_checked"] for r in reports),
        }

    def block_is_invariant(self) -> bool:
        return self.block_invariance_report()["invariant"]

    def entries_invariant(self) -> list[list[bool]]:
        return [[phi.is_invariant() for phi in row] for row in self.entries]

    def __repr__(self):
        return (
            f"BlockMultilinearMap(n={self.n}, k={self.k}, h={self.h}, "
            f"algebra={self.algebra!r})"
        )


def as_block_map(phi) -> BlockMultilinearMap:
    """Wrap a plain multilinear map as a 1x1 block map; pass block maps through."""
    if isinstance(phi, BlockMultilinearMap):
        return phi
    if isinstance(phi, MultilinearMap):
        return BlockMultilinearMap.from_single(phi)
    raise TypeError(f"expected a multilinear or block multilinear map, got {type(phi)!r}")
