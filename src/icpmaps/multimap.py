"""k-linear maps A^k -> B(H) stored as dense coefficient tensors.

A map is determined by its values on basis tuples, a tensor of h-by-h
complex matrices indexed by k basis indices.  Evaluation is plain tensor
contraction against coordinate vectors, so it is exact on basis tuples and
multilinear by construction.

Amplification to M_t(A)^k follows the row-chain-column summation: the
(i, j) block of the amplified value is the sum over chains r_1..r_{k-1} of
the base map applied to the chained entries.  ``amplified_evaluate`` is the
one chain kernel, for plain maps and for n-by-n grids of them (``blockmap``),
whose chain end indices pick the grid entry; ``MultilinearMap.amplify``
materializes the amplified coefficient tensor (guarded by a size limit).

The kernel never forms a chain over all k slots: the chains over the first
j = ceil(k/2) slots and over the other k - j meet through the coefficients,
so a row holds (tn)^2 (d^j + d^(k-j)) + t^2 n^3 h^2 d^(k-j) scalars of
temporaries, not the (tn)^2 d^k of the full chain.
Its stacks carry a leading row axis, so one call evaluates many tuples (the
seeded probes of the estimator and the falsifier), each row its own slice of
every matrix product; one tuple is the one-row case.
``ChainGrid.batch_rows`` sizes those batches by ``PROBE_BATCH_BYTES``.
The value is linear in each slot: ``ChainGrid.slot_operator`` contracts the
same formula with one slot left open, the operator the estimator ascends on.

``MultilinearMap.invariance_report`` checks the migration identity exactly,
by one gather over the coefficient support per map, whatever its size.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .algebra import Algebra, AlgebraElement, MatrixOverAlgebra
from .errors import AlgebraMismatchError, ArityError
from .tolerances import coefficient_tol

# Support tuples gathered at once: bounds the gather's temporaries to a few
# hundred rows of coefficient blocks per factorization choice.
GATHER_ROWS = 256
# Bytes of temporaries a batch of seeded probes (estimator restarts,
# falsifier trials) may hold, counted per row by ``ChainGrid.batch_rows`` and
# ``ChainGrid.operator_batch_rows``, and a row above the budget runs alone.
# These probes are small matrices, so a batch's cost is mostly the fixed
# cost of each batched call, and fewer, larger batches save it; 1 MiB, half
# of a 2 MiB per-core L2 cache, keeps a batch's temporaries cache-resident.
PROBE_BATCH_BYTES = 1024 * 1024
AMPLIFY_SIZE_LIMIT = 5 * 10**6


def _rows_within_budget(row_scalars: int) -> int:
    """Rows whose temporaries, ``row_scalars`` complex scalars a row, fit in
    ``PROBE_BATCH_BYTES``; at least one."""
    return max(1, PROBE_BATCH_BYTES // (row_scalars * 16))


@functools.lru_cache(maxsize=64)
def reversed_star_index(algebra: Algebra, k: int) -> np.ndarray:
    """Flat index of the basis tuple (p_k*, ..., p_1*) at the flat index of
    (p_1, ..., p_k), C order: the one gather that reads a map's adjoint.
    Built once per (algebra, k) and read-only."""
    index, perm = algebra.star_perm, algebra.star_perm
    for slot in range(1, k):
        index = (index[:, None] + perm[None, :] * algebra.dim**slot).ravel()
    index = np.array(index, dtype=np.intp)
    index.setflags(write=False)
    return index


def arity_midpoint(k: int) -> int:
    """Number of tensor factors m = floor((k+1)/2) attached to arity k."""
    return (k + 1) // 2


class MultilinearMap:
    """A k-linear map from A^k into h-by-h complex matrices."""

    def __init__(self, algebra: Algebra, k: int, h: int, coeffs):
        if k < 1:
            raise ValueError(f"arity must be >= 1, got {k}")
        if h < 1:
            raise ValueError(f"codomain dimension must be >= 1, got {h}")
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        expected = (algebra.dim,) * k + (h, h)
        if coeffs.shape != expected:
            raise ValueError(f"coefficient tensor has shape {coeffs.shape}, expected {expected}")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        self.algebra = algebra
        self.k = int(k)
        self.h = int(h)
        self.coeffs = coeffs

    @property
    def m(self) -> int:
        return arity_midpoint(self.k)

    def coefficient_scale(self) -> float:
        """max Frobenius norm over stored coefficient matrices."""
        return self._coefficient_scale

    @functools.cached_property
    def _coefficient_scale(self) -> float:
        """``coefficient_scale``, reduced ``GATHER_ROWS`` matrices at a time so
        that no temporary is as large as the tensor: the coefficients are
        read-only, so it is computed once."""
        flat = self.coeffs.reshape(-1, self.h, self.h)
        chunks = (flat[s : s + GATHER_ROWS] for s in range(0, len(flat), GATHER_ROWS))
        return float(np.sqrt(max((np.abs(c) ** 2).sum(axis=(1, 2)).max() for c in chunks)))

    # -- evaluation ------------------------------------------------------

    def evaluate(self, args: Sequence[AlgebraElement]) -> np.ndarray:
        """Value on a k-tuple of algebra elements, an (h, h) matrix."""
        if len(args) != self.k:
            raise ArityError(f"expected {self.k} arguments, got {len(args)}")
        out = self.coeffs
        for a in args:
            if a.algebra != self.algebra:
                raise AlgebraMismatchError("argument belongs to a different algebra")
            out = np.tensordot(a.coords(), out, axes=(0, 0))
        return out

    def unit_value(self) -> np.ndarray:
        """Value at the all-identities tuple."""
        one = self.algebra.one()
        return self.evaluate([one] * self.k)

    # -- adjoint and symmetry ---------------------------------------------

    def adjoint(self) -> "MultilinearMap":
        """The map (a_1,...,a_k) -> value(a_k*, ..., a_1*)* as a coefficient
        tensor, read through one gather (``reversed_star_index``)."""
        flat = self.coeffs.reshape(-1, self.h, self.h)[reversed_star_index(self.algebra, self.k)]
        return MultilinearMap(self.algebra, self.k, self.h, np.conj(flat.swapaxes(1, 2)).reshape(self.coeffs.shape))

    def adjoint_deviation(self, other: "MultilinearMap") -> float:
        """max |coefficient of this map minus that of ``other``'s adjoint|,
        gathering ``other`` through ``reversed_star_index`` without forming
        its adjoint as a map.  Swapping the two maps gives the same value,
        bit for bit: the adjoint is an involutive gather with a conjugate
        transpose, so each difference reappears negated and conjugated."""
        if other.coeffs.shape != self.coeffs.shape or other.algebra != self.algebra:
            raise AlgebraMismatchError("maps must share (algebra, k, h)")
        flat = other.coeffs.reshape(-1, self.h, self.h)[reversed_star_index(self.algebra, self.k)]
        np.conjugate(flat, out=flat)
        return float(np.abs(self.coeffs.reshape(flat.shape) - flat.swapaxes(1, 2)).max())

    def is_symmetric(self, tol: float | None = None) -> bool:
        tol = coefficient_tol(self.coefficient_scale()) if tol is None else tol
        return bool(self.adjoint_deviation(self) <= tol)

    # -- amplification -----------------------------------------------------

    def amplify(self, t: int) -> "MultilinearMap":
        """Materialized amplification as a map over M_t(A) with codomain t*h:
        the map induced by the constant t-by-t grid of this map."""
        from .blockmap import BlockMultilinearMap

        n_entries = (t * t * self.algebra.dim) ** self.k * (t * self.h) ** 2
        if n_entries > AMPLIFY_SIZE_LIMIT:
            raise ValueError(
                f"amplified tensor would hold {n_entries} scalars "
                f"(> {AMPLIFY_SIZE_LIMIT}); use amplified_evaluate instead"
            )
        return BlockMultilinearMap.constant_grid(self, t).induced_map()

    def chain_grid(self) -> "ChainGrid":
        """The map as a 1-by-1 grid, the form ``amplified_evaluate`` reads."""
        unit_index = np.arange(self.algebra.dim).reshape(-1, 1, 1)
        return ChainGrid(self.algebra, self.k, self.h, self.coeffs.reshape(1, 1, -1, self.h**2), unit_index)

    # -- invariance ---------------------------------------------------------

    def is_invariant(self) -> bool:
        return self.invariance_report()["invariant"]

    def invariance_report(self, tol: float | None = None) -> dict:
        """Check the left-factor migration identities.

        For odd arity k = 2m-1 the identity moves factors c_1..c_{m-1} from
        the first m-1 slots (right multiplication) to the last m-1 slots
        (left multiplication, reversed order); for even arity k = 2m the
        factors c_1..c_m migrate analogously.  Both sides are multilinear in
        every slot, so equality on all basis assignments is equivalent to the
        identity.  A product of two matrix units is a matrix unit or zero, so
        on a basis assignment each side is one coefficient block or zero: the
        check gathers the other side at every assignment where the lhs is a
        nonzero block (one pass over the coefficient support), which makes
        ``max_deviation`` exact.  ``tuples_checked`` counts those visits.
        Every report is exhaustive; the pass runs once per map and serves
        every tolerance.
        """
        tol = coefficient_tol(self.coefficient_scale()) if tol is None else tol
        dev, checked = self._invariance_deviation
        return {
            "invariant": bool(dev <= tol),
            "max_deviation": dev,
            "exhaustive": True,
            "tolerance": tol,
            "tuples_checked": checked,
        }

    @functools.cached_property
    def _invariance_deviation(self) -> tuple[float, int]:
        """(max |lhs - rhs|, visits) of the gather: the coefficients are
        read-only, so it is computed once."""
        if self.k < 2:
            return 0.0, 0
        flat = self.coeffs.reshape(-1, self.h * self.h)
        support = np.flatnonzero(flat.any(axis=1))
        return self._gather_pass(flat, support), self._pass_visits(support)

    def _slot_unit(self, rows: np.ndarray, slot: int) -> np.ndarray:
        """Basis index in ``slot`` of the basis tuples with flat indices ``rows``."""
        return rows // self.algebra.dim ** (self.k - 1 - slot) % self.algebra.dim

    def _pass_visits(self, support: np.ndarray) -> int:
        """Assignments the gather visits: the factorizations s_l = a_l c_l,
        l < k // 2, of each support tuple s, which are the assignments with a
        nonzero lhs."""
        count = self.algebra.unit_factorizations[2]
        per_tuple = np.ones(len(support), dtype=np.int64)
        for slot in range(self.k // 2):
            per_tuple *= count[self._slot_unit(support, slot)]
        return int(per_tuple.sum())

    def _gather_pass(self, flat: np.ndarray, support: np.ndarray) -> float:
        """Max |lhs - rhs| over the assignments with a nonzero lhs, gathered
        ``GATHER_ROWS`` support tuples at a time from ``flat``, the
        coefficients as a (d^k, h*h) matrix.

        Each support tuple s is an lhs: every factorization s_l = a_l c_l of
        slot l < k // 2 gives the rhs, the tuple with a_l in slot l and
        c_l s_{k-1-l} in slot k-1-l.  That covers the assignments with a zero
        lhs too: if their rhs is a nonzero block t, then either every
        factorization of some t_l gives a vanishing product in slot k-1-l, or
        one factorization rebuilds that assignment's lhs index, whose block is
        zero; either way the pass meets |t| at t."""
        k, dim = self.k, self.algebra.dim
        left, right, _ = self.algebra.unit_factorizations
        products = self.algebra.unit_products
        choices = np.indices((left.shape[1],) * (k // 2)).reshape(k // 2, -1)
        worst = 0.0
        for start in range(0, len(support), GATHER_ROWS):
            rows = support[start : start + GATHER_ROWS, None]
            # choices past a unit's block size repeat a factorization, which
            # leaves the maximum as it is
            other, alive = rows, True
            for slot, x in enumerate(choices):
                target = k - 1 - slot
                s, t = self._slot_unit(rows, slot), self._slot_unit(rows, target)
                product = products[right[s, x], t]
                alive = alive & (product >= 0)
                other = (
                    other
                    + (left[s, x] - s) * dim ** (k - 1 - slot)
                    + (product - t) * dim ** (k - 1 - target)
                )
            own = flat[rows[:, 0]]
            hit_rows, hit_choices = np.nonzero(alive)
            paired = np.abs(own[hit_rows] - flat[other[hit_rows, hit_choices]]).max(initial=0.0)
            vanished = np.abs(own[~alive.all(axis=1)]).max(initial=0.0)
            worst = max(worst, float(paired), float(vanished))
        return worst


# -- the chain kernel ---------------------------------------------------------


class ChainGrid:
    """An n-by-n grid of k-linear maps over A in the form the chain kernel reads.

    ``regroup`` turns a t-by-t matrix over M_n(A) into a (tn, d, tn) stack
    over A: entry [s*n + i, q, s'*n + j] is the coordinate of e_q in entry
    (i, j) of its (s, s') entry, at basis index ``unit_index[q, i, j]`` of
    M_n(A).  The chain of the stacks has end indices s*n + i and s'*n + j,
    which pick ``ends[i, j]``, phi_ij's coefficients as a (d^k, h*h) matrix.
    The grid holds only what the chain kernel reads: invariance is checked
    on the entries (``MultilinearMap.invariance_report``), and a block map's
    report is derived from theirs (``BlockMultilinearMap``).
    """

    def __init__(self, arg_algebra: Algebra, k: int, h: int, ends: np.ndarray, unit_index: np.ndarray):
        self.arg_algebra, self.k, self.h = arg_algebra, k, h
        self.ends, self.unit_index = ends, unit_index
        self.n = ends.shape[0]

    def batch_rows(self, t: int) -> int:
        """Rows per ``value`` call of a batch of level-t probes: its two
        half-chains, (tn)^2 d^j and (tn)^2 d^(k-j) complex scalars a row with
        j = ceil(k/2), and the prefix contracted with ``ends``,
        t^2 n^3 d^(k-j) h^2 a row: 455, 113 and 50 rows at t = 1, 2, 3 for
        d = 4, k = 5, n = 1, h = 2."""
        d, n, k, half = self.unit_index.shape[0], self.n, self.k, (self.k + 1) // 2
        chains = (t * n) ** 2 * (d**half + d ** (k - half))
        return _rows_within_budget(chains + t * t * n**3 * d ** (k - half) * self.h**2)

    def operator_batch_rows(self, t: int) -> int:
        """Rows per ``slot_operator`` call of a batch of level-t probes: the
        longest chain beside an open slot, (tn)^2 d^(k-1) complex scalars a
        row, and the operator it returns, (tn)^2 d (tnh)^2 a row, so that
        one ``PROBE_BATCH_BYTES`` rule bounds everything a restart batch
        holds: 240, 51 and 18 rows at t = 1, 2, 3 for d = 4, k = 5, n = 1,
        h = 2, and 204 and 15 at t = 1, 2 for d = 4, k = 3, n = 2, h = 2."""
        t_n = t * self.n
        return _rows_within_budget(t_n**2 * self.unit_index.shape[0] ** (self.k - 1) + self.operator_size(t))

    def operator_size(self, t: int) -> int:
        """Complex scalars of one row's level-t slot operator, (tn)^2 d (tnh)^2."""
        t_n = t * self.n
        return t_n**2 * self.unit_index.shape[0] * (t_n * self.h) ** 2

    def regroup(self, coords: np.ndarray) -> np.ndarray:
        """(rows, t, t, dim M_n(A)) coordinates to (rows, tn, d, tn) stacks."""
        rows, t = coords.shape[:2]
        if self.n == 1:
            return coords.transpose(0, 1, 3, 2)
        tn = t * self.n
        return coords[..., self.unit_index].transpose(0, 1, 4, 3, 2, 5).reshape(rows, tn, -1, tn)

    def ungroup(self, z: np.ndarray) -> np.ndarray:
        """Inverse of ``regroup``: (rows, t, t, dim M_n(A)) coordinates of stacks."""
        rows, n, t = z.shape[0], self.n, z.shape[1] // self.n
        out = np.empty((rows, t, t, self.arg_algebra.dim), dtype=z.dtype)
        out[..., self.unit_index] = z.reshape(rows, t, n, -1, t, n).transpose(0, 1, 4, 3, 2, 5)
        return out

    def value(self, t: int, stacks: Sequence[np.ndarray]) -> np.ndarray:
        """Values on rows of regrouped stacks, (rows, tnh, tnh); entry (u, v)
        of phi_ij's term in block (s, s') sits at row s*n*h + i*h + u, column
        s'*n*h + j*h + v.

        The chains over the first j = ceil(k/2) slots and over the rest meet
        through the coefficients, so no chain over all k slots is formed: the
        prefix is contracted with ``ends`` (``_prefix_through_ends``), then,
        for each end column j, with the suffix, over the suffix's first index
        and tuples."""
        n, h, t_n = self.n, self.h, t * self.n
        half = (self.k + 1) // 2
        after = self.unit_index.shape[0] ** (self.k - half)
        # y[r, i, j, s, (c, P'), (u, v)] and suf[r, j, s', (c, P')]
        y = self._prefix_through_ends(t, stacks[:half]).reshape(-1, n, n, t, t_n * after, h * h)
        suffix = chain_product(stacks[half:], t_n).reshape(-1, t_n * after, t, n)
        suf = np.ascontiguousarray(suffix.transpose(0, 3, 2, 1))
        # value[r, i, j, s, s', (u, v)]
        value = (suf[:, None, :, None] @ y).reshape(-1, n, n, t, t, h, h)
        return value.transpose(0, 3, 1, 5, 4, 2, 6).reshape(-1, t * n * h, t * n * h)

    def _prefix_rows(self, t: int, stacks: Sequence[np.ndarray]) -> np.ndarray:
        """Chain of the stacks of the first slots as pre[r, i, (s, c), P],
        entry (s*n + i, c) of row r's product along the tuple P."""
        n, t_n = self.n, t * self.n
        before = self.unit_index.shape[0] ** len(stacks)
        prefix = chain_product(stacks, t_n).reshape(-1, t, n, before, t_n)
        return prefix.transpose(0, 2, 1, 4, 3).reshape(-1, n, t * t_n, before)

    def _prefix_through_ends(self, t: int, stacks: Sequence[np.ndarray]) -> np.ndarray:
        """The chain of the first slots' stacks contracted with ``ends``, one
        GEMM per row and grid entry against the shared coefficients:
        y[r, i, j, (s, c), (P', u, v)] is the sum over the tuples P of those
        slots of pre[r, i, (s, c), P] times phi_ij's coefficient (u, v) at
        (P, P'), where P' runs over the tuples of the remaining slots."""
        pre = self._prefix_rows(t, stacks)
        return pre[:, :, None] @ self.ends.reshape(self.n, self.n, pre.shape[-1], -1)

    @functools.cached_property
    def _ends_by_entry(self) -> np.ndarray:
        """``ends`` with the (u, v) entry ahead of the basis tuple, shape
        (n, n, h*h, d^k): for every slot, the tuples after it are the columns
        of a contiguous matrix."""
        return np.ascontiguousarray(self.ends.swapaxes(2, 3))

    def slot_operator(
        self, t: int, stacks: Sequence[np.ndarray], slot: int, out: tuple[np.ndarray, np.ndarray] | None = None
    ) -> np.ndarray:
        """The values on rows of regrouped stacks as a linear map of the stack
        in ``slot`` (which is not read): shape (rows, (tn)^2 d, (tnh)^2), such
        that ``z.reshape(rows, 1, -1) @ op`` is ``value(t, stacks)`` with
        ``z`` in ``slot``, flattened.

        ``out``, two flat complex arrays of at least the operator's size,
        takes the two operator-sized arrays, the matmul product and its
        contiguous transpose, so that a caller building many operators
        reuses their memory; the operator is then a view of ``out[1]``, valid
        until the next call with the same arrays, and equal to the bit to the
        one built without them.

        The chains before and after the slot are contracted with ``ends``,
        the longer one first, so no chain over all k slots is formed: entry
        ((c, q, e), (a, u, b, v)) is the sum over the tuples (P, P') before
        and after the slot of prefix[a, P, c] suffix[e, P', b] times the
        coefficient (u, v) of phi_ij at (P, q, P'), with a = s*n + i and
        b = s'*n + j."""
        n, h, t_n = self.n, self.h, t * self.n
        d = self.unit_index.shape[0]
        before, after = d**slot, d ** (self.k - 1 - slot)
        suffix = chain_product(stacks[slot + 1 :], t_n).reshape(-1, t_n, after, t, n)
        # suf[r, j, P', (e, s')]
        suf = suffix.transpose(0, 4, 2, 1, 3).reshape(-1, n, after, t_n * t)
        # each intermediate is dropped as soon as it is used: the batch's
        # temporaries are operator-sized, and a smaller peak page-faults less
        if after >= before:
            # the suffix first: x[r, i, j, (u, v, P, q), (e, s')], then P
            x = self._ends_by_entry.reshape(n, n, -1, after) @ suf[:, None]
            x = x.reshape(-1, n, n, h * h, before, d * t_n * t).transpose(0, 1, 4, 2, 3, 5)
            op = _matmul(self._prefix_rows(t, stacks[:slot]), x.reshape(-1, n, before, n * h * h * d * t_n * t), out)
            del x
            # op[r, i, s, c, j, u, v, q, e, s']
            op = op.reshape(-1, n, t, t_n, n, h, h, d, t_n, t).transpose(0, 3, 7, 8, 2, 1, 5, 9, 4, 6)
        else:
            # the prefix first: y[r, i, j, (s, c), (q, P', u, v)], then P'
            y = self._prefix_through_ends(t, stacks[:slot])
            y = y.reshape(-1, n, n, t * t_n * d, after, h * h).transpose(0, 2, 1, 3, 5, 4)
            op = _matmul(y.reshape(-1, n, n * t * t_n * d * h * h, after), suf, out)
            del y
            # op[r, j, i, s, c, q, u, v, e, s']
            op = op.reshape(-1, n, n, t, t_n, d, h, h, t_n, t).transpose(0, 4, 5, 8, 3, 2, 6, 9, 1, 7)
        # copied even where size-1 axes would let a reshape return a strided
        # view: matmul rounds differently on strided operands, and every row
        # must round as a lone row does
        if out is None:
            op = np.ascontiguousarray(op)
        else:
            dense = _front(out[1], op.shape)
            np.copyto(dense, op)
            op = dense
        op = op.reshape(len(op), t_n * d * t_n, (t_n * h) ** 2)
        # at k = 1 both chains are the one-row identity
        return np.broadcast_to(op, (max(len(z) for z in stacks), *op.shape[1:]))


def _front(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading entries of a flat buffer, viewed as a C-contiguous array of this shape."""
    return buffer[: math.prod(shape)].reshape(shape)


def _matmul(a: np.ndarray, b: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    """a @ b for (rows, n, ., .) stacks whose rows broadcast, written into the
    front of ``out[0]`` when buffers are given."""
    if out is None:
        return a @ b
    return np.matmul(a, b, out=_front(out[0], (max(len(a), len(b)), *a.shape[1:-1], b.shape[-1])))


def chain_product(stacks: Sequence[np.ndarray], size: int) -> np.ndarray:
    """Chain of (rows, size, d, size) stacks: out[r, a, (p_1..p_l), b] is entry
    (a, b) of the product of row r's slices p_1, .., p_l (the identity when
    empty, as one row that broadcasts against any number of rows).  Each row
    is its own slice of every matrix product."""
    if not stacks:
        return np.eye(size, dtype=np.complex128)[None, :, None, :]
    chain = stacks[0]
    for z in stacks[1:]:
        chain = chain.reshape(len(chain), -1, size) @ z.reshape(len(z), size, -1)
        chain = chain.reshape(len(chain), size, -1, size)
    return chain


def amplified_evaluate(phi, t: int, mats: Sequence) -> np.ndarray:
    """Value of the level-t amplification of a map (arguments: t-matrices
    over its algebra A) or a block map (t-matrices over M_n(A)), laid out as
    for the map induced over M_n(A).  Two half-chains, over the first
    j = ceil(k/2) slots and over the other k - j, meet through the
    coefficients (``ChainGrid.value``), at O(t^2 n^3 h^2 d^k + (tn)^3 d^j)
    cost and (tn)^2 (d^j + d^(k-j)) + t^2 n^3 h^2 d^(k-j) scalars a row of
    temporaries; no chain over all k slots, and no amplified or induced
    coefficient tensor, is formed.

    Each argument is a ``MatrixOverAlgebra``, or the coordinates of many,
    shape (rows, t, t, dim): with any such stack the value is the stack of
    the values at each row's tuple, shape (rows, tnh, tnh).  One tuple is
    the one-row case."""
    if len(mats) != phi.k:
        raise ArityError(f"expected {phi.k} arguments, got {len(mats)}")
    grid = phi.chain_grid()
    shape = (t, t, grid.arg_algebra.dim)
    stacks = []
    for x in mats:
        if isinstance(x, MatrixOverAlgebra):
            if x.algebra != grid.arg_algebra:
                raise AlgebraMismatchError("argument is not a t-matrix over the map's argument algebra")
            x = x.coords[None]
        if x.shape[1:] != shape:
            raise AlgebraMismatchError("argument is not a t-matrix over the map's argument algebra")
        stacks.append(grid.regroup(x))
    value = grid.value(t, stacks)
    return value[0] if all(isinstance(x, MatrixOverAlgebra) for x in mats) else value
