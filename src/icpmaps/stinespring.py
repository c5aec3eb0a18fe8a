"""Dilation triples in standard form: construction, verification,
standardization of any triple, and unitary equivalence.

m commuting unital *-representations of A = (+)_b M_{d_b} are one of
A^{tensor m}: up to a unitary, the sum over block tuples lambda of
(C^{d_{lambda_1}} (x) .. (x) C^{d_{lambda_m}}) (x) C^{mu_lambda}, where
pi_p(e_(b,r,c)) is e_rc on leg p of each lambda with lambda_p = b.  In that
basis (lambda, then the legs' rows r, then i < mu_lambda, in C order) the
images are exact 0/1 matrices, and a triple is its layout {lambda: mu_lambda}
and V.  Gram-Schmidt of the anchors pi_1(e_(b_1,0,c_1)) .. pi_m(e_(b_m,0,c_m))
V_j e_s in (c, j, s) order, a pivot kept when its square is above rank_tol
times the largest squared anchor norm, is the echelon factor M_lambda of
their Gram, and row (lambda, r, i) of V is M_lambda[i, (r, j, s)].  The laws
hold there by construction, so verification measures them only off that form.

Reconstruction pairs the slots around the middle: phi_ij(a_1..a_{2m-1}) =
V_i* pi_1(a_m) pi_2(a_{m-1} a_{m+1}) .. pi_m(a_1 a_{2m-1}) V_j; for k = 2m, factor p gets a_{m-p+1} a_{m+p}.
"""

from __future__ import annotations

import hashlib
import math
import weakref
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .algebra import Algebra, AlgebraElement
from .blockmap import as_block_map
from .errors import DilationObstructionError, NotCompletelyPositiveError
from .gram import _gather, cp_refute
from .tolerances import EQUIVALENCE_TOLS, GRAM_HERMITIAN_TOL, GRAM_PSD_TOL, RANK_TOL, certifies

# _batched_opnorm_max: relative slack on its spectral-norm bounds, and the
# bound below which squares and products of entries may underflow
OPNORM_BOUND_SLACK = 1e-12
OPNORM_BOUND_FLOOR = 1e-140
# verify_dilation: bytes of value differences per pass of the reconstruction residual
RECONSTRUCTION_CHUNK_BYTES = 4 * 2**20


@dataclass
class DilationTriple:
    """m commuting representation images, n operators H -> K, and provenance:
    reps[p] stacks the kappa-by-kappa images of the basis elements under the
    p-th representation, V[j] is kappa-by-h, and ``layout``, on a triple in
    standard form, is mu over the block tuples, shape (blocks,)*m."""

    algebra: Algebra
    k: int
    n: int
    h: int
    kappa: int
    reps: tuple
    V: tuple
    layout: np.ndarray | None = None
    rank_tol: float | None = None
    meta: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return (self.k + 1) // 2

    def is_standard(self) -> bool:
        """Whether the images are exactly ``standard_images`` of the layout."""
        exact = () if self.layout is None else standard_images(self.algebra, self.layout)
        return len(exact) == self.m and all(np.array_equal(x, y) for x, y in zip(self.reps, exact))

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
    """The anchor walk: the standard form's dimension against the triple's,
    and the cut's margins, pivots over the largest anchor norm (None: none kept)."""

    spanning_rank: int
    kappa: int
    is_minimal: bool
    smallest_kept: float | None
    largest_rejected: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EquivalenceReport:
    """U = Q_2 Q_1* from the standardizing maps Q of two triples of one layout, the worst
    ||Q*Q - I|| and ||Q* pi_p(e_b) Q - exact image||, and the largest V_j distance of their standard forms."""

    U: np.ndarray = field(repr=False)
    isometry: float = 0.0
    intertwining: float = 0.0
    v_match: float = 0.0
    kappa: int = 0

    def within(self) -> bool:
        """Whether each measure is at most its bound in EQUIVALENCE_TOLS."""
        return all(getattr(self, name) <= tol for name, tol in EQUIVALENCE_TOLS.items())

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in ("isometry", "intertwining", "v_match", "kappa")}


# -- the standard form ---------------------------------------------------------


def _units(algebra: Algebra, block: int, row: bool) -> np.ndarray:
    """The basis indices of e_(block,r,0) over r (``row``), else of e_(block,0,c) over c."""
    pairs = [(r, 0) if row else (0, r) for r in range(algebra.block_dims[block])]
    return np.array([algebra.basis_index(block, *pair) for pair in pairs])


def layout_kappa(algebra: Algebra, layout: np.ndarray) -> int:
    """kappa = sum over lambda of mu_lambda prod_p d_(lambda_p), the dimension
    of the standard form with this layout; exact on a layout of Python ints."""
    legs = np.prod(np.asarray(algebra.block_dims)[np.indices(layout.shape)], axis=0)
    return int((legs * layout).sum())


def standard_images(algebra: Algebra, layout: np.ndarray) -> tuple:
    """The m image stacks (d, kappa, kappa) of the standard form with this
    layout: pi_p(e_(b,r,c)) sends basis vector (lambda, r', i) with b_p = b
    and r'_p = c to the one with r'_p = r, exactly, and the others to 0."""
    images = np.zeros((layout.ndim, algebra.dim) + (layout_kappa(algebra, layout),) * 2, dtype=np.complex128)
    offset = 0
    for lam in np.ndindex(layout.shape):
        dims = tuple(algebra.block_dims[b] for b in lam)
        index = offset + np.arange(math.prod(dims) * int(layout[lam])).reshape(dims + (-1,))
        for p, b in enumerate(lam):
            for r, c in np.ndindex(dims[p], dims[p]):
                images[p, algebra.basis_index(b, r, c), index.take(r, axis=p), index.take(c, axis=p)] = 1.0
        offset += index.size
    return tuple(images)


def anchor_grams(phi):
    """(lambda, index, G_lambda) per block tuple lambda in C order: the Gram
    ``gram._gather`` reads at its anchors alpha_p = e_(b_p,0,c_p), in (c, j, s)
    order, and their flat Gram indices."""
    block = as_block_map(phi)
    for lam in np.ndindex((block.algebra.n_blocks,) * block.m):
        yield (lam, *_gather(block, [_units(block.algebra, b, row=False) for b in lam]))


def _over(x: np.ndarray, s: float) -> np.ndarray:
    """x / s for a real s, part by part: complex division rounds even where s divides exactly."""
    return (np.ascontiguousarray(x).view(np.float64) / s).view(np.complex128)


def _echelon(x: np.ndarray, cut: float, gram: bool):
    """Gram-Schmidt in column order over the columns of x, or with ``gram`` over the Hermitian
    part of a Gram (its echelon Cholesky factor), a column kept when its squared residual is
    above ``cut``: (kept orthonormal columns of x, M zero left of each row's real pivot, kept
    squared pivots, the largest rejected, with ``gram`` a floor under the lowest eigenvalue of the
    Hermitian part, else 0).  Echelon columns with positive pivots come back exactly."""
    res = (x + x.conj().T) / 2.0 if gram else x.copy()
    qs, rows, kept, rejected = [], [], [], -np.inf
    for c in range(x.shape[1]):
        piv2 = float(res[c, c].real if gram else np.vdot(res[:, c], res[:, c]).real)
        if not piv2 > cut:
            rejected = max(rejected, piv2)
            continue
        row = np.zeros(x.shape[1], dtype=np.complex128)
        if gram:
            row[c:] = _over(res[c, c:], np.sqrt(piv2))
            res[c:, c:] -= np.outer(row[c:].conj(), row[c:])
        else:
            qs.append(_over(res[:, c], np.sqrt(piv2)))
            row[c:] = qs[-1].conj() @ res[:, c:]
            res[:, c:] -= np.outer(qs[-1], row[c:])
        row[c] = np.sqrt(piv2)  # real, where round-off may leave an imaginary part
        rows.append(row)
        kept.append(piv2)
    q = np.array(qs, dtype=np.complex128).reshape(len(qs), len(x)).T
    floor = 0.0
    if gram:  # res is now the Hermitian part minus M* M, so Gershgorin's bound on it is a floor
        d = res.diagonal().real
        floor = float(np.min(d + np.abs(d) - np.abs(res).sum(axis=1), initial=0.0))
    return q, np.array(rows, dtype=np.complex128).reshape(len(rows), x.shape[1]), kept, rejected, floor


def _walk(like, blocks: dict, rank_tol: float, gram: bool):
    """``_echelon`` over each block tuple's anchors, cut at rank_tol times the
    largest squared anchor norm: (standard-form triple shaped like ``like``,
    the cut's margins, the kept anchors' orthonormal bases, with ``gram`` the
    blocks' eigenvalue floor over max(1, that norm)).  A ValueError
    names ``rank_tol`` when it is not a finite number >= 0, or when a kept
    pivot is within the walk's round-off."""
    if not np.isfinite(rank_tol) or rank_tol < 0:
        raise ValueError(f"rank_tol must be a finite number >= 0, got {rank_tol}")
    norms2 = [x.diagonal().real if gram else (x.real**2 + x.imag**2).sum(axis=0) for x in blocks.values()]
    top = float(max([0.0, *(x.max() for x in norms2 if x.size)]))
    scale = top or 1.0
    walks = {lam: _echelon(x, rank_tol * top, gram) for lam, x in blocks.items()}
    kept, bases = [p for w in walks.values() for p in w[2]], {lam: w[0] for lam, w in walks.items()}
    if kept and min(kept) <= sum(x.shape[1] for x in blocks.values()) * np.finfo(float).eps * scale:
        raise ValueError(
            f"rank_tol {rank_tol:g} keeps a spanning column whose residual against the kept columns "
            f"before it, {math.sqrt(min(kept) / scale):.1e} of the largest column norm, is within round-off"
        )
    nh = like.n * like.h  # row (lambda, r, i) of V is M_lambda[i, (r, j, s)]
    v = [f.reshape(len(f), -1, nh).transpose(1, 0, 2).reshape(-1, nh) for _, f, *_ in walks.values() if len(f)]
    layout = np.array([len(w[1]) for w in walks.values()], dtype=np.intp).reshape((like.algebra.n_blocks,) * like.m)
    v = np.concatenate([np.zeros((0, nh), dtype=np.complex128)] + v)
    rejected = max([0.0, *(w[3] for w in walks.values())])
    margins = (math.sqrt(min(kept) / scale) if kept else None, math.sqrt(rejected / scale))
    images = standard_images(like.algebra, layout)
    v_ops = tuple(np.hsplit(v, like.n))
    floor = min([0.0, *(w[4] for w in walks.values())]) / max(1.0, top)
    triple = DilationTriple(like.algebra, like.k, like.n, like.h, len(v), images, v_ops, layout, rank_tol)
    return triple, margins, bases, floor


def dilate(phi, rank_tol: float = RANK_TOL) -> DilationTriple:
    """The standard-form triple from the anchor Gram blocks, certified by ``verify_dilation``.
    The anchor blocks are classes of the Gram, so a certificate stands only where they also pass
    its Hermitian and PSD tests.  Only a map that fails one builds the Gram, for ``cp_refute`` to
    decide: ``NonHermitianGramError``, :class:`NotCompletelyPositiveError`, else, when the
    certificate failed, :class:`DilationObstructionError` with the triple's residuals."""
    block = as_block_map(phi)
    blocks = {lam: g for lam, _, g in anchor_grams(block)}
    triple, _, _, floor = _walk(block, blocks, rank_tol, gram=True)
    triple.meta["source"] = "anchor-gram"
    residuals = verify_dilation(block, triple)
    skew = max([0.0, *(np.abs(g - g.conj().T).max() for g in blocks.values() if g.size)])
    skew /= 1.0 + max([0.0, *(np.abs(g).max() for g in blocks.values() if g.size)])
    certified = certifies(residuals, block.coefficient_scale())
    if not certified or skew > GRAM_HERMITIAN_TOL or floor < -GRAM_PSD_TOL:
        refutation = cp_refute(block)
        if refutation is not None:
            raise NotCompletelyPositiveError(refutation.min_eigenvalue, refutation)
        if not certified:
            raise DilationObstructionError(residuals, triple.kappa)
    return triple


# -- verification -----------------------------------------------------------


def _batched_opnorm_max(mats: np.ndarray, floor: float = 0.0) -> float:
    """max spectral norm over the leading axes of a (..., a, b) stack, or
    ``floor`` (a norm already found elsewhere) when that is larger.  The
    Frobenius norm and sqrt(||A||_1 ||A||_inf) bound ||A||_2, so matrices are
    decomposed in decreasing order of the smaller bound until a bound times
    (1 + OPNORM_BOUND_SLACK), for its rounding, cannot beat the largest norm
    found: the full batched SVD's maximum to the bit.  A stack of zeros
    costs one pass; where the bounds are not finite, or squares of nonzero
    entries may underflow, the full batched SVD runs."""
    if not mats.any():  # empty, or every norm is 0
        return floor
    flat = mats.reshape(-1, mats.shape[-2], mats.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.abs(flat)
        holder = np.sqrt(mags.sum(axis=1).max(axis=1) * mags.sum(axis=2).max(axis=1))
        bound = np.minimum(np.sqrt(np.square(mags).sum(axis=(1, 2))), holder)
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
    return {"multiplicativity": mult, "star": star, "unitality": unital, "commutation": commutation_residual(reps)}


def theorem_form_values(algebra: Algebra, reps: Sequence[np.ndarray], v_ops: Sequence, k: int) -> np.ndarray:
    """Values V_i* pi_1(..) .. pi_m(..) V_j on all basis tuples, shape
    (d,)*k + (n*h, n*h) with (i, j) blocks of size h: the factory's
    definition and verification's target.  No kappa-by-kappa chain is
    formed: V* is folded into the first factor, which the middle factors act
    on from the right, and V into the last, so the last step is one GEMM
    over the basis indices; paired factors pi_p(e_a e_b) come from the
    structure constants after the V contraction where there is one."""
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


_VERIFIED = weakref.WeakKeyDictionary()  # map -> {digest of a triple's images and V: its report}


def verify_dilation(phi, triple: DilationTriple) -> DilationReport:
    """Residuals of the reconstruction identity and of the structural laws,
    kept for the map's lifetime under a digest of the triple's images and V:
    a certified triple, or a copy of it to the bit, is not verified again.
    The laws are ``law_residuals`` of the images, or 0.0 when ``is_standard``."""
    block = as_block_map(phi)
    alg, k = block.algebra, block.k
    if (alg, k, block.n, block.h) != (triple.algebra, triple.k, triple.n, triple.h):
        raise ValueError("triple shape does not match the map")
    arrays = [np.ascontiguousarray(x) for x in (*triple.reps, *triple.V)]
    key = hashlib.blake2b(repr([(x.dtype.str, x.shape) for x in arrays]).encode() + b"".join(map(bytes, arrays)))
    key = key.digest()
    held = _VERIFIED.setdefault(phi, {})
    if key not in held:
        vals = theorem_form_values(alg, triple.reps, triple.V, k)
        report = DilationReport(_reconstruction_residual(block, vals), 0.0, 0.0, 0.0, 0.0)
        held[key] = report if triple.is_standard() else replace(report, **law_residuals(alg, triple.reps))
    return replace(held[key])


def _reconstruction_residual(block, vals: np.ndarray) -> float:
    """max over basis tuples of ||vals - phi||, from differences formed a run
    of the first slot whose values fit ``RECONSTRUCTION_CHUNK_BYTES`` at a
    time (for each index of the slots before it), each passing the largest
    norm so far as ``_batched_opnorm_max``'s floor: the per-matrix SVD maximum."""
    h, lead = block.h, 0
    while lead < block.k - 1 and vals[(0,) * (lead + 1)].nbytes > RECONSTRUCTION_CHUNK_BYTES:
        lead += 1
    step = max(1, RECONSTRUCTION_CHUNK_BYTES // vals[(0,) * (lead + 1)].nbytes)
    worst = 0.0
    for outer in np.ndindex(vals.shape[:lead]):
        for start in range(0, vals.shape[lead], step):
            at = outer + (slice(start, start + step),)
            diff = np.array(vals[at])
            for i, j in np.ndindex(block.n, block.n):
                diff[..., i * h : (i + 1) * h, j * h : (j + 1) * h] -= block.entries[i][j].coeffs[at]
            worst = _batched_opnorm_max(diff, worst)
    return worst


# -- standardization and uniqueness ---------------------------------------------


def _applied(reps: Sequence[np.ndarray], units: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """pi_1(e_{u_1}) .. pi_m(e_{u_m}) x over the tuples of ``units``, as rows over (u_1..u_m, columns of x)."""
    for p in reversed(range(len(reps))):
        images = reps[p][units[p]]
        x = images.reshape(images.shape[:1] + (1,) * (x.ndim - 2) + images.shape[1:]) @ x
    x = np.moveaxis(x, -2, 0)
    return x.reshape(len(x), math.prod(x.shape[1:]))


def _standardize(triple: DilationTriple, rank_tol: float):
    """The anchor walk over a triple's own images: (standard form, report, bases)."""
    alg, m = triple.algebra, triple.m
    anchors = [_units(alg, b, row=False) for b in range(alg.n_blocks)]
    vs = triple.stacked_V()
    blocks = {lam: _applied(triple.reps, [anchors[b] for b in lam], vs) for lam in np.ndindex((alg.n_blocks,) * m)}
    standard, margins, bases, _ = _walk(triple, blocks, rank_tol, gram=False)
    return standard, MinimalityReport(standard.kappa, triple.kappa, standard.kappa == triple.kappa, *margins), bases


def minimal_compress(triple: DilationTriple, rank_tol: float = RANK_TOL) -> tuple[DilationTriple, MinimalityReport]:
    """The standard form of ``triple``, on the span of the representation
    products applied to sum_j V_j H: it dilates the same map, unitarily
    equivalent triples give the same one, and a standard form comes back."""
    standard, report, _ = _standardize(triple, rank_tol)
    standard.meta = {**triple.meta, "compressed_from": triple.kappa}
    return standard, report


def unitary_equivalence(t1: DilationTriple, t2: DilationTriple) -> EquivalenceReport:
    """Triples are unitarily equivalent when their standard forms have one
    layout and their Vs agree.  Q takes standard basis vector (lambda, r, i)
    to pi_1(e_(b_1,r_1,0)) .. pi_m(e_(b_m,r_m,0)) applied to anchor basis
    vector i of lambda; the report says how far Q is from an isometry that
    takes the triple's images to the exact ones."""
    forms = []
    for triple in (t1, t2):
        standard, walk, bases = _standardize(triple, RANK_TOL)
        if not walk.is_minimal:
            raise ValueError(f"triple is not minimal: spanning rank {walk.spanning_rank} != dimension {triple.kappa}")
        rows = [_units(triple.algebra, b, row=True) for b in range(triple.algebra.n_blocks)]
        parts = [_applied(triple.reps, [rows[b] for b in lam], q) for lam, q in bases.items()]
        forms.append((standard, np.concatenate([np.zeros((triple.kappa, 0), dtype=np.complex128)] + parts, axis=1)))
    (s1, q1), (s2, q2) = forms
    if not np.array_equal(s1.layout, s2.layout):  # kappa is the layout's
        raise ValueError(
            f"{'dimension' if t1.kappa != t2.kappa else 'layout'} mismatch after minimality: kappa {t1.kappa} vs "
            f"{t2.kappa}, multiplicities {s1.layout.ravel().tolist()} vs {s2.layout.ravel().tolist()} (not equivalent)"
        )
    isometry = intertwining = 0.0
    for triple, q, standard in ((t1, q1, s1), (t2, q2, s2)):
        isometry = _batched_opnorm_max(q.conj().T @ q - np.eye(triple.kappa), isometry)
        for rp, exact in zip(triple.reps, standard.reps):
            intertwining = _batched_opnorm_max(q.conj().T @ rp @ q - exact, intertwining)
    v_match = max((float(np.linalg.norm(x - y, 2)) for x, y in zip(s1.V, s2.V)), default=0.0) if t1.kappa else 0.0
    return EquivalenceReport(q2 @ q1.conj().T, isometry, intertwining, v_match, t1.kappa)


def block_state_vectors(phi, triple: DilationTriple | None = None):
    """Scalar-codomain form: vectors f_j in K with
    phi_ij(..) = <pi-products f_j, f_i>; requires h = 1."""
    block = as_block_map(phi)
    if block.h != 1:
        raise ValueError(f"block-state form requires scalar codomain, got h={block.h}")
    triple = dilate(block) if triple is None else triple
    return [vj[:, 0].copy() for vj in triple.V], verify_dilation(block, triple)
