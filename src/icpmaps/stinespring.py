"""Dilation triples: construction from the Gram kernel, verification,
canonical minimal compression, and unitary equivalence.

The quotient of A^{tensor m} (x) H^n by the null space of the Gram form is
realized numerically through a truncated eigendecomposition G = U L U*,
read class by class from ``GramKernel.spectrum``: eigenpairs above a
relative rank threshold define W = L_+^{1/2} U_+^* so that G = W^* W, and
the quotient space is C^kappa with kappa the kept count.  Left
multiplication on the p-th tensor factor is a partial permutation applied
as a column gather; it descends to the quotient precisely when it
preserves ker G, which is verified, not assumed: W L vanishes on ker G iff
W L equals its restriction to the kept eigenvectors, W L U_+ U_+^*.
Representations are W P W^+, the operators V_j are W applied to the
unit-tensor embeddings of H at slot j.

Reconstruction pairs the slots around the middle: for k = 2m-1,

    phi_ij(a_1..a_{2m-1}) = V_i* pi_1(a_m) pi_2(a_{m-1} a_{m+1}) ... pi_m(a_1 a_{2m-1}) V_j

and for k = 2m the p-th factor receives a_{m-p+1} a_{m+p}.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .algebra import Algebra, AlgebraElement
from .blockmap import as_block_map
from .errors import NotCompletelyPositiveError, QuotientDescentError
from .gram import build_gram, gram_is_psd
from .tolerances import DESCENT_TOL, EQUIVALENCE_TOLS, RANK_TOL

# _batched_opnorm_max: relative slack on its spectral-norm bounds, and the
# bound below which squares and products of entries may underflow
OPNORM_BOUND_SLACK = 1e-12
OPNORM_BOUND_FLOOR = 1e-140
# verify_dilation: bytes of value differences per pass of the reconstruction residual
RECONSTRUCTION_CHUNK_BYTES = 16 * 2**20


@dataclass
class DilationTriple:
    """m commuting representation images, n operators H -> K, and provenance.

    reps[p] stacks the kappa-by-kappa images of the basis elements under the
    p-th representation; V[j] is kappa-by-h.  W, when present, is the
    quotient map with G = W^* W.
    """

    algebra: Algebra
    k: int
    n: int
    h: int
    kappa: int
    reps: tuple
    V: tuple
    W: np.ndarray | None = None
    rank_tol: float | None = None
    meta: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return (self.k + 1) // 2

    def rep_apply(self, p: int, x: AlgebraElement) -> np.ndarray:
        """Linear extension of the p-th representation to an element."""
        return np.tensordot(x.coords(), self.reps[p], axes=(0, 0))

    def stacked_V(self) -> np.ndarray:
        """kappa-by-(n*h) horizontal concatenation of the V_j."""
        if self.kappa == 0:
            return np.zeros((0, self.n * self.h), dtype=np.complex128)
        return np.hstack(self.V)

    def unit_norm_bound(self) -> float:
        """max_j ||V_j||^2, the dilation-side bound on the unit value."""
        if self.kappa == 0:
            return 0.0
        return max(float(np.linalg.norm(vj, 2)) ** 2 for vj in self.V)

    def product_tensor(self) -> np.ndarray:
        """pi_1(e_{b_1}) ... pi_m(e_{b_m}) for all basis tuples, shape
        (d^m, kappa, kappa) with (b_1..b_m) raveled in C order."""
        t = self.reps[0]
        for f in range(1, self.m):
            t = pair_products(t, self.reps[f]).reshape(len(t) * self.algebra.dim, *t.shape[1:])
        return t

    def spanning_matrix(self, prod: np.ndarray | None = None) -> np.ndarray:
        """Columns pi_1(e_{b_1})..pi_m(e_{b_m}) V_j e_s over all (b, j, s);
        ``prod`` is the product tensor when the caller already has it."""
        d = self.algebra.dim
        if self.kappa == 0:
            return np.zeros((0, d**self.m * self.n * self.h), dtype=np.complex128)
        prod = self.product_tensor() if prod is None else prod
        cols = prod @ self.stacked_V()  # (d^m, kappa, n*h)
        return cols.transpose(1, 0, 2).reshape(self.kappa, -1)


@dataclass
class DilationReport:
    """Residuals of a triple against a map, all spectral norms."""

    reconstruction: float
    multiplicativity: float
    star: float
    unitality: float
    commutation: float

    def max_structural(self) -> float:
        return max(self.multiplicativity, self.star, self.unitality, self.commutation)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MinimalityReport:
    """The walk of ``_canonical_basis``: ``spanning_rank`` columns kept of a
    kappa-dimensional space, and the margins of its cut, each a residual
    over the largest column norm (``smallest_kept`` is None when no column
    is kept).  ``kept_columns`` are the kept columns' indices."""

    spanning_rank: int
    kappa: int
    is_minimal: bool
    smallest_kept: float | None
    largest_rejected: float
    kept_columns: tuple = field(repr=False)

    def to_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if key != "kept_columns"}


@dataclass
class EquivalenceReport:
    U: np.ndarray = field(repr=False)
    unitarity: float = 0.0
    intertwining: float = 0.0
    v_match: float = 0.0
    kappa: int = 0

    def within(self) -> bool:
        """Whether each measure is at most its bound in EQUIVALENCE_TOLS."""
        return all(getattr(self, name) <= tol for name, tol in EQUIVALENCE_TOLS.items())

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in ("unitarity", "intertwining", "v_match", "kappa")}


# -- quotient machinery ---------------------------------------------------


def _check_rank_tol(rank_tol: float) -> None:
    """A relative cutoff must be a finite number >= 0: a negative one keeps
    the Gram's negative eigenvalues, whose square roots are NaN."""
    if not np.isfinite(rank_tol) or rank_tol < 0:
        raise ValueError(f"rank_tol must be a finite number >= 0, got {rank_tol}")


def dilate(phi, rank_tol: float = RANK_TOL) -> DilationTriple:
    """Construct a dilation triple from the Gram kernel.

    Raises :class:`NotCompletelyPositiveError` when the Gram has a genuinely
    negative eigenvalue, and :class:`QuotientDescentError` when some basis
    multiplier fails to preserve ker G (construction obstruction outside the
    theorem's hypotheses).
    """
    _check_rank_tol(rank_tol)
    block = as_block_map(phi)
    alg, k, n, h, m = block.algebra, block.k, block.n, block.h, block.m
    d = alg.dim
    gram = build_gram(block)
    psd, min_eig = gram_is_psd(gram)
    if not psd:
        raise NotCompletelyPositiveError(min_eig)
    lam_max = max(gram.extreme_eigenvalues()[1], 0.0)
    lam, u = gram.pairs_above(rank_tol * lam_max)  # u: (N, kappa), the kept eigenvectors U_kappa
    kappa = len(lam)
    root = np.sqrt(lam)
    uh = u.conj().T
    w = root[:, None] * uh  # (kappa, N)
    scale = np.sqrt(lam_max) if lam_max > 0 else 1.0
    # W's columns grouped by alpha = (p_1..p_m), then a zero column d^m: column alpha of
    # W L_{p,b} is column alpha + (r - q) d^(m-1-p) of W if e_b e_q = e_r on factor p, else d^m
    w_pad = np.concatenate([w.reshape(kappa, d**m, n * h), np.zeros((kappa, 1, n * h))], axis=1)
    digits = np.indices((d,) * m).reshape(m, -1)
    reps = []
    for p in range(m):
        r = alg.unit_products[:, digits[p]]  # (b, alpha)
        moved = np.where(r >= 0, np.arange(d**m) + (r - digits[p]) * d ** (m - 1 - p), d**m)
        images = np.empty((d, kappa, kappa), dtype=np.complex128)
        for b in range(d):
            wl = w_pad[:, moved[b]].reshape(w.shape)
            wlu = wl @ u
            # ||W L - (W L U_kappa) U_kappa*|| = ||W L (I - U_kappa U_kappa*)||: W L on ker G
            residual = float(np.linalg.norm(wl - wlu @ uh, 2)) if 0 < kappa < gram.size else 0.0
            if residual > DESCENT_TOL * scale:
                raise QuotientDescentError(p, b, residual)
            images[b] = wlu / root[None, :]  # W L W^+, with W^+ = U_kappa L_kappa^(-1/2)
        reps.append(images)
    # V_j = W iota_j, iota_j : H -> A^{tensor m} (x) H^n sends f to 1 x .. x 1 x (f at slot j)
    unit = alg.identity_coords[digits].prod(axis=0)
    v_ops = tuple(w @ np.kron(np.outer(unit, slot).reshape(-1, 1), np.eye(h)) for slot in np.eye(n))
    meta = {"gram_min_eigenvalue": min_eig, "source": "gram-quotient"}
    return DilationTriple(alg, k, n, h, kappa, tuple(reps), v_ops, W=w, rank_tol=rank_tol, meta=meta)


# -- verification -----------------------------------------------------------


def _batched_opnorm_max(mats: np.ndarray, floor: float = 0.0) -> float:
    """max spectral norm over the leading axes of a (..., a, b) stack, or
    ``floor`` (a norm already found elsewhere) when that is larger.

    Both the Frobenius norm and sqrt(||A||_1 ||A||_inf) bound ||A||_2 from
    above, so the matrices are decomposed one at a time in decreasing order
    of the smaller bound, until a bound times (1 + OPNORM_BOUND_SLACK), which
    absorbs its rounding (the bounds are attained on rank-one matrices),
    cannot exceed the largest spectral norm found.  Each value is the SVD of
    its own matrix, so the result is the full batched SVD's maximum to the
    bit.  Where the bounds are not finite (NaN, inf or overflow), or where
    squares of nonzero entries may underflow, the full batched SVD runs.
    """
    if mats.size == 0:
        return floor
    flat = mats.reshape(-1, mats.shape[-2], mats.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.abs(flat)
        holder = np.sqrt(mags.sum(axis=1).max(axis=1) * mags.sum(axis=2).max(axis=1))
        bound = np.minimum(np.linalg.norm(flat, axis=(1, 2)), holder)
    top = bound.max()
    if not top < np.inf or (top < OPNORM_BOUND_FLOOR and flat.any()):
        return float(np.maximum(floor, np.linalg.svd(flat, compute_uv=False)[:, 0].max()))
    best = floor
    for i in np.argsort(-bound, kind="stable"):
        if bound[i] * (1.0 + OPNORM_BOUND_SLACK) <= best:
            break
        best = max(best, float(np.linalg.svd(flat[i], compute_uv=False)[0]))
    return best


def pair_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[a] @ y[b] for all (a, b): (A, u, i) times (B, i, v) -> (A, B, u, v),
    as one GEMM over the stacked rows of x and the stacked columns of y."""
    a, u, i = x.shape
    b, _, v = y.shape
    flat = x.reshape(a * u, i) @ y.transpose(1, 0, 2).reshape(i, b * v)
    return flat.reshape(a, u, b, v).transpose(0, 2, 1, 3)


def commutation_residual(reps: Sequence[np.ndarray]) -> float:
    """max over p < q and basis pairs (a, b) of ||[pi_p(e_a), pi_q(e_b)]||."""
    worst = 0.0
    for p, rp in enumerate(reps):
        for rq in reps[p + 1 :]:
            yx = pair_products(rq, rp).transpose(1, 0, 2, 3)
            worst = max(worst, _batched_opnorm_max(pair_products(rp, rq) - yx))
    return worst


def law_residuals(algebra: Algebra, reps: Sequence[np.ndarray]) -> dict:
    """Spectral-norm residuals of the laws of a commuting family of unital
    *-representations, each the worst over the stacks and basis elements:
    pi(e_a) pi(e_b) = sum_r c_ab^r pi(e_r), pi(e_a*) = pi(e_a)*, pi(1) = I,
    and pairwise commutation."""
    d = algebra.dim
    mt = algebra.mult_table.reshape(d * d, d)
    mult = star = unital = 0.0
    for rp in reps:
        kappa = rp.shape[1]
        expected = (mt @ rp.reshape(d, -1)).reshape(d, d, kappa, kappa)
        mult = max(mult, _batched_opnorm_max(pair_products(rp, rp) - expected))
        star = max(star, _batched_opnorm_max(rp[algebra.star_perm] - rp.conj().transpose(0, 2, 1)))
        unit = np.tensordot(algebra.identity_coords, rp, axes=(0, 0))
        unital = max(unital, _batched_opnorm_max(unit[None] - np.eye(kappa)))
    return {
        "multiplicativity": mult,
        "star": star,
        "unitality": unital,
        "commutation": commutation_residual(reps),
    }


def theorem_form_values(
    algebra: Algebra, reps: Sequence[np.ndarray], v_ops: Sequence[np.ndarray], k: int
) -> np.ndarray:
    """Values V_i* pi_1(..) .. pi_m(..) V_j on all basis tuples.

    Returns shape (d,)*k + (n*h, n*h) with (i, j) blocks of size h; used both
    by the factory (as a definition) and by verification (as the target).

    The kappa-by-kappa chain of pi products is never formed: V* is folded
    into the first factor, giving (.., nh, kappa) blocks that the middle
    factors act on from the right, and V into the last factor, giving
    (d^2, kappa, nh), so the last step is one GEMM over the basis indices.
    Paired factors pi_p(e_a e_b) come from the structure constants after the
    V contraction where there is one.  Cost d^(k-2) nh kappa^2 + d^k (nh)^2
    kappa flops and d^k (nh)^2 + d^(k-2) nh kappa memory, against
    d^k kappa^3 and d^k kappa^2 for the full chain.
    """
    d = algebra.dim
    m = (k + 1) // 2
    mt = algebra.mult_table

    def paired(stack):  # pi(e_a e_b) for all (a, b), raveled to d^2 leading rows
        return np.tensordot(mt, stack, axes=(2, 0)).reshape((d * d,) + stack.shape[1:])

    # slots of each factor's basis digits: odd k = 2m-1 pairs a_{m-f} a_{m+f}
    # in factor f (a_m alone in the first), even k = 2m pairs a_{m-f} a_{m+f+1}
    shift = 1 - k % 2
    order = [m - 1] + [m] * shift
    for f in range(1, m):
        order += [m - 1 - f, m - 1 + f + shift]
    vs = np.hstack(v_ops)
    left = vs.conj().T @ reps[0]  # (d, nh, kappa)
    if shift:
        left = paired(left)
    for f in range(1, m - 1):
        left = pair_products(left, paired(reps[f])).reshape(len(left) * d * d, *left.shape[1:])
    right = paired(reps[m - 1] @ vs) if m > 1 else vs[None]
    nh = vs.shape[1]
    vals = pair_products(left, right).reshape((d,) * k + (nh, nh))
    # value axes follow `order`; rearrange to slots 0..k-1
    return vals.transpose(list(np.argsort(order)) + [k, k + 1])


def verify_dilation(phi, triple: DilationTriple) -> DilationReport:
    """Residuals of the reconstruction identity and of the structural laws."""
    block = as_block_map(phi)
    alg, k = block.algebra, block.k
    if (alg, k, block.n, block.h) != (triple.algebra, triple.k, triple.n, triple.h):
        raise ValueError("triple shape does not match the map")
    if triple.kappa == 0:
        recon = float(np.abs(block.stacked_coeffs()).max()) if block.stacked_coeffs().size else 0.0
        return DilationReport(recon, 0.0, 0.0, 0.0, 0.0)
    vals = theorem_form_values(alg, triple.reps, triple.V, k)
    recon = _reconstruction_residual(block, vals)
    return DilationReport(recon, **law_residuals(alg, triple.reps))


def _reconstruction_residual(block, vals: np.ndarray) -> float:
    """max over basis tuples of ||vals - phi||, with ``vals`` in the layout
    of ``theorem_form_values``.  The differences are formed from the grid
    entries for a few values of the first slot at a time, within
    ``RECONSTRUCTION_CHUNK_BYTES``, so no second tensor the size of the map
    is held; each chunk passes the largest norm so far to
    ``_batched_opnorm_max`` as its floor, so the result is the maximum of
    the per-matrix SVDs, bit for bit, as over the whole stack at once."""
    h = block.h
    step = max(1, RECONSTRUCTION_CHUNK_BYTES // vals[0].nbytes)
    worst = 0.0
    for start in range(0, len(vals), step):
        diff = np.array(vals[start : start + step])
        for i, row in enumerate(block.entries):
            for j, phi in enumerate(row):
                diff[..., i * h : (i + 1) * h, j * h : (j + 1) * h] -= phi.coeffs[start : start + step]
        worst = _batched_opnorm_max(diff, worst)
    return worst


# -- minimality and uniqueness ------------------------------------------------


def _canonical_basis(span: np.ndarray, rank_tol: float = RANK_TOL) -> tuple[np.ndarray, MinimalityReport]:
    """Walk the columns of ``span`` in order, keeping each whose residual
    against the columns kept before it exceeds ``rank_tol`` times the largest
    column norm; return Q of the kept columns' QR with a positive diagonal in
    R (their Gram-Schmidt basis) and the walk's report.  The walk and R read
    only inner products, so U span keeps the same columns and gives U Q.

    Each step finds the first column above the cut, keeps the run of columns
    from there whose QR diagonal stays above it (each one's residual against
    the run before it), and removes the run from the later residuals.  A
    ValueError names ``rank_tol`` when a kept column's diagonal in the final
    R is not above the cut: a cut at or near 0 keeps columns of round-off."""
    res, kept, margins, rejected, start = span.copy(), [], [], 0.0, 0
    tail = np.linalg.norm(res, axis=0)
    top = float(tail.max(initial=0.0))
    cut, kappa = rank_tol * top, span.shape[0]
    while True:
        above = np.flatnonzero(tail > cut) if len(kept) < kappa else ()
        first = above[0] if len(above) else len(tail)
        rejected = max(rejected, float(tail[:first].max(initial=0.0)))
        if first == len(tail):
            break
        start += first
        q, r = np.linalg.qr(res[:, start : start + kappa - len(kept)])
        diag = np.abs(np.diag(r))
        run = 1 + int(np.argmin(np.append(diag[1:] > cut, False)))
        kept += range(start, start + run)
        margins += diag[:run].tolist()
        start += run
        res[:, start:] -= q[:, :run] @ (q[:, :run].conj().T @ res[:, start:])
        tail = np.linalg.norm(res[:, start:], axis=0)
    q, r = np.linalg.qr(span[:, kept])
    scale = top if top > 0 else 1.0
    final = np.abs(np.diag(r))
    if not (final > cut).all():
        raise ValueError(
            f"rank_tol {rank_tol:g} keeps a spanning column whose residual against the kept columns "
            f"before it, {final.min() / scale:.1e} of the largest column norm, is not above rank_tol"
        )
    smallest = min(margins) / scale if margins else None
    report = MinimalityReport(len(kept), kappa, len(kept) == kappa, smallest, rejected / scale, tuple(kept))
    return q * (np.diag(r) / final), report


def _label_blocks(triple: DilationTriple, kept: Sequence[int]) -> list[np.ndarray]:
    """Per factor p, the (d, len(kept), len(kept)) pattern outside which the
    image of pi_p(e_b) in the canonical basis over the ``kept`` spanning
    columns vanishes, for b = e_(blk,r,c): entry (i, j) needs row label
    (blk, r) in factor p at column i, (blk, c) at column j, and equal labels
    in every other factor.  Column (b_1..b_m, j, s) lies in the range of
    the commuting projections pi_q(e_(blk,l,l)) at the row labels l of
    b_1..b_m, these ranges are mutually orthogonal, and Gram-Schmidt keeps
    each basis vector in its column's range."""
    alg, m = triple.algebra, triple.m
    tuples = np.unravel_index(np.asarray(kept, dtype=np.intp) // (triple.n * triple.h), (alg.dim,) * m)
    labels = alg.row_labels[np.stack(tuples)]  # (m, kept)
    same = labels[:, :, None] == labels[:, None, :]
    rows, cols = alg.row_labels[:, None, None], alg.row_labels[alg.star_perm][:, None, None]
    return [
        np.delete(same, p, axis=0).all(axis=0) & (labels[p][:, None] == rows) & (labels[p] == cols)
        for p in range(m)
    ]


def minimal_compress(
    triple: DilationTriple, rank_tol: float = RANK_TOL
) -> tuple[DilationTriple, MinimalityReport]:
    """The canonical minimal triple: restrict to the span of representation
    products applied to sum_j V_j H, in the basis Q that ``_canonical_basis``
    fixes on ``spanning_matrix``.  It still dilates the same map, and
    unitarily equivalent triples compress to the same one.  Outside its
    ``_label_blocks`` pattern, where the image of a commuting family of
    unital *-representations vanishes in exact arithmetic, each image's
    round-off is set to 0.0 (an entry already zero keeps its sign)."""
    _check_rank_tol(rank_tol)
    q, report = _canonical_basis(triple.spanning_matrix(), rank_tol)
    qh = q.conj().T
    images = (qh @ rp @ q for rp in triple.reps)
    blocks = _label_blocks(triple, report.kept_columns)
    compressed = replace(
        triple,
        kappa=report.spanning_rank,
        reps=tuple(np.where(mask | (img == 0), img, 0.0) for img, mask in zip(images, blocks)),
        V=tuple(qh @ vj for vj in triple.V),
        W=(qh @ triple.W) if triple.W is not None else None,
        rank_tol=rank_tol,
        meta={**triple.meta, "compressed_from": triple.kappa},
    )
    return compressed, report


def unitary_equivalence(t1: DilationTriple, t2: DilationTriple) -> EquivalenceReport:
    """U = Q_2 Q_1* from the canonical bases of both triples' spanning
    families, and how unitary and intertwining it actually is."""
    prods, bases = [], []
    for triple in (t1, t2):
        prods.append(triple.product_tensor())
        q, walk = _canonical_basis(triple.spanning_matrix(prods[-1]))
        if not walk.is_minimal:
            raise ValueError(
                f"triple is not minimal: spanning rank {walk.spanning_rank} < dimension {triple.kappa}"
            )
        bases.append(q)
    if t1.kappa != t2.kappa:
        raise ValueError(
            f"dimension mismatch after minimality: {t1.kappa} vs {t2.kappa} "
            "(triples cannot be unitarily equivalent)"
        )
    if t1.kappa == 0:
        return EquivalenceReport(U=np.zeros((0, 0), dtype=np.complex128), kappa=0)
    u_map = bases[1] @ bases[0].conj().T
    unitarity = float(np.linalg.norm(u_map.conj().T @ u_map - np.eye(t1.kappa), 2))
    inter = _batched_opnorm_max(prods[1] @ u_map - u_map @ prods[0])
    v_match = max(float(np.linalg.norm(u_map @ v1 - v2, 2)) for v1, v2 in zip(t1.V, t2.V))
    return EquivalenceReport(u_map, unitarity, inter, v_match, t1.kappa)


def block_state_vectors(phi, triple: DilationTriple | None = None):
    """Scalar-codomain form: vectors f_j in K with
    phi_ij(..) = <pi-products f_j, f_i>; requires h = 1."""
    block = as_block_map(phi)
    if block.h != 1:
        raise ValueError(f"block-state form requires scalar codomain, got h={block.h}")
    if triple is None:
        triple = dilate(block)
    report = verify_dilation(block, triple)
    vectors = [vj[:, 0].copy() for vj in triple.V]
    return vectors, report
