"""Constructors and named fixtures.

``from_dilation_data`` turns an m-commuting family of unital
*-representations plus operators V_1..V_n into the block map whose entries
are V_i* pi_1(..) .. pi_m(..) V_j — the dilation theorem read backwards as a
generator.  ``random_icp`` builds a seeded corpus of such maps together
with their provenance triples.

The named fixtures are the concrete worked examples used throughout the
test suite: the trace pairing on matrix algebras, evaluation at a marked
point of a finite space, the Schur-multiplier block map, and the grid of
identical entry maps whose block-level invariance fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import serialize
from .algebra import Algebra, MatrixOverAlgebra
from .blockmap import BlockMultilinearMap
from .errors import SpecFormatError
from .multimap import MultilinearMap, arity_midpoint
from .stinespring import DilationTriple, commutation_residual, law_residuals, theorem_form_values
from .tolerances import REP_TOL


# -- representations ------------------------------------------------------


def representation_residuals(algebra: Algebra, images: np.ndarray) -> dict:
    """Multiplicativity / star / unitality residuals (spectral norms) of
    candidate basis images."""
    laws = law_residuals(algebra, [images]).items()
    return {name: value for name, value in laws if name != "commutation"}


def validate_representation(algebra: Algebra, images: np.ndarray) -> None:
    res = representation_residuals(algebra, images)
    if max(res.values()) > REP_TOL:
        raise ValueError(f"not a unital *-homomorphism (residuals {res})")


def canonical_representation(algebra: Algebra, multiplicities: Sequence[int]) -> np.ndarray:
    """Direct sum of block projections with the given multiplicities."""
    mults = list(multiplicities)
    if len(mults) != algebra.n_blocks or any(m < 0 for m in mults) or sum(mults) == 0:
        raise ValueError(f"bad multiplicities {multiplicities} for {algebra!r}")
    kappa = sum(m * d for m, d in zip(mults, algebra.block_dims))
    images = np.zeros((algebra.dim, kappa, kappa), dtype=np.complex128)
    for p in range(algebra.dim):
        b, r, c = algebra.basis_label(p)
        d = algebra.block_dims[b]
        unit = np.zeros((d, d), dtype=np.complex128)
        unit[r, c] = 1.0
        off = sum(m * dd for m, dd in zip(mults[:b], algebra.block_dims[:b]))
        blockimg = np.kron(np.eye(mults[b]), unit)
        images[p, off : off + mults[b] * d, off : off + mults[b] * d] = blockimg
    return images


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_representation(
    algebra: Algebra, rng: np.random.Generator, max_mult: int = 2, min_dim: int = 1
) -> np.ndarray:
    """Random unital *-representation: canonical multiplicities conjugated by
    a Haar unitary."""
    while True:
        mults = [int(rng.integers(0, max_mult + 1)) for _ in algebra.block_dims]
        kappa = sum(m * d for m, d in zip(mults, algebra.block_dims))
        if kappa >= max(1, min_dim):
            break
    images = canonical_representation(algebra, mults)
    u = haar_unitary(images.shape[1], rng)
    return np.einsum("ij,ajk,lk->ail", u, images, u.conj())


def tensor_commuting_reps(factors: Sequence[tuple[Algebra, np.ndarray]]) -> list[np.ndarray]:
    """pi_p = I (x) .. (x) rho_p (x) .. (x) I on the tensor product space.

    Distinct factors act on disjoint legs, so pairwise commutation is exact.
    """
    algebra = factors[0][0]
    for alg, images in factors:
        if alg != algebra:
            raise ValueError("factors must share the algebra")
        validate_representation(alg, images)
    dims = [images.shape[1] for _, images in factors]
    out = []
    for p, (_, images) in enumerate(factors):
        before = int(np.prod(dims[:p], dtype=int))
        after = int(np.prod(dims[p + 1 :], dtype=int))
        out.append(
            np.stack(
                [np.kron(np.kron(np.eye(before), img), np.eye(after)) for img in images]
            )
        )
    return out


# -- the theorem form as a generator ------------------------------------------


def from_dilation_data(
    algebra: Algebra,
    reps: Sequence[np.ndarray],
    v_ops: Sequence[np.ndarray],
    k: int,
) -> BlockMultilinearMap:
    """Block map with entries V_i* pi_1(a_m) pi_2(a_{m-1}a_{m+1}) .. V_j
    (odd k) or V_i* pi_1(a_m a_{m+1}) .. pi_m(a_1 a_{2m}) V_j (even k).

    Representations must form a genuinely commuting family of unital
    *-homomorphisms; entries of the result are invariant and the grid is
    symmetric by construction, and ``check`` verifies both.
    Block-level invariance holds (and is implied by entry invariance) only
    for n = 1 or k <= 2; for n >= 2, k >= 3 no nonzero block map is block
    invariant.
    """
    m = arity_midpoint(k)
    if len(reps) != m:
        raise ValueError(f"need {m} representations for arity {k}, got {len(reps)}")
    kappa = reps[0].shape[1]
    for images in reps:
        if images.shape != (algebra.dim, kappa, kappa):
            raise ValueError("representation image stacks have inconsistent shapes")
        validate_representation(algebra, images)
    comm = commutation_residual(reps)
    if comm > REP_TOL:
        raise ValueError(f"representations do not commute (residual {comm:.3e})")
    return _theorem_form_block(algebra, reps, v_ops, k)


def _theorem_form_block(
    algebra: Algebra,
    reps: Sequence[np.ndarray],
    v_ops: Sequence[np.ndarray],
    k: int,
) -> BlockMultilinearMap:
    """``from_dilation_data`` on representations already known to form a
    commuting family of unital *-homomorphisms of matching shapes."""
    kappa = reps[0].shape[1]
    h = v_ops[0].shape[1]
    for vj in v_ops:
        if vj.shape != (kappa, h):
            raise ValueError("operators V_j have inconsistent shapes")
    n = len(v_ops)
    vals = theorem_form_values(algebra, reps, v_ops, k)
    entries = [
        [
            MultilinearMap(algebra, k, h, vals[..., i * h : (i + 1) * h, j * h : (j + 1) * h])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return BlockMultilinearMap(entries)


# -- named fixtures --------------------------------------------------------


def trace_example(nmat: int = 2) -> MultilinearMap:
    """(A_1, A_2, A_3) -> ntr(A_1 A_3) ntr(A_2) I on M_n(C), with the
    normalized trace; positive and invariant."""
    algebra = Algebra([nmat])
    d = algebra.dim
    units = [np.zeros((nmat, nmat), dtype=np.complex128) for _ in range(d)]
    for p in range(d):
        _, r, c = algebra.basis_label(p)
        units[p][r, c] = 1.0
    eye = np.eye(nmat, dtype=np.complex128)
    coeffs = np.zeros((d, d, d, nmat, nmat), dtype=np.complex128)
    for p in range(d):
        for q in range(d):
            for r in range(d):
                coeffs[p, q, r] = (
                    np.trace(units[p] @ units[r]) / nmat * np.trace(units[q]) / nmat * eye
                )
    return MultilinearMap(algebra, 3, nmat, coeffs)


def point_evaluation_example(dim: int = 2, point: int = 0) -> MultilinearMap:
    """(f, g, h) -> f(x0) g(x0) h(x0) on functions over a finite space of the
    given size, with marked point x0: a character in each slot, so invariant
    and CP, dilated at kappa 1 with every residual exactly 0.0."""
    algebra = Algebra([1] * dim)
    coeffs = np.zeros((dim, dim, dim, 1, 1), dtype=np.complex128)
    coeffs[point, point, point, 0, 0] = 1.0
    return MultilinearMap(algebra, 3, 1, coeffs)


def worked_level2_tuple() -> list[MatrixOverAlgebra]:
    """The concrete 2x2 matrices over C^2 whose level-2 value has (1,1)
    entry exactly -1 for the marked-point evaluation map."""
    algebra = Algebra([1, 1])

    def mat(entries):
        coords = np.array(entries, dtype=np.complex128)
        return MatrixOverAlgebra(algebra, coords)

    a1 = mat([[[1, 1], [0, 0]], [[0, 0], [0, 0]]])
    a2 = mat([[[1, 0], [1, 0]], [[1, 0], [1, 0]]])
    a3 = mat([[[1, 0], [-2, 0]], [[-2, 0], [4, 0]]])
    return [a1, a2, a3]


def noninvariant_block_example() -> BlockMultilinearMap:
    """2x2 grid whose four entries are all Psi(a, b, c) = b a c on M_2(C).

    Each entry is invariant (the middle slot never moves), but the grid is
    not block invariant; the displayed instance below pins the failure.
    """
    algebra = Algebra([2])
    d = algebra.dim
    units = []
    for p in range(d):
        _, r, c = algebra.basis_label(p)
        e = np.zeros((2, 2), dtype=np.complex128)
        e[r, c] = 1.0
        units.append(e)
    coeffs = np.zeros((d, d, d, 2, 2), dtype=np.complex128)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                coeffs[a, b, c] = units[b] @ units[a] @ units[c]
    psi = MultilinearMap(algebra, 3, 2, coeffs)
    return BlockMultilinearMap.constant_grid(psi, 2)


def noninvariant_block_instance() -> dict:
    """The two argument triples of the failing invariance instance, with the
    migrating factor equal to the unit: lhs = (A1 B, A2, A3), rhs =
    (A1, A2, B A3)."""
    algebra = Algebra([2])

    def scalar_mat(entries):
        entries = np.asarray(entries, dtype=np.complex128)
        t = entries.shape[0]
        coords = np.zeros((t, t, algebra.dim), dtype=np.complex128)
        for i in range(t):
            for j in range(t):
                coords[i, j] = entries[i, j] * algebra.identity_coords
        return MatrixOverAlgebra(algebra, coords)

    a1 = scalar_mat([[1, 0], [0, 0]])
    b = scalar_mat([[0, 1], [1, 1]])
    a2 = scalar_mat([[1, 1], [2, 1]])
    a3 = scalar_mat([[1, 3], [0, 4]])
    return {"lhs": [a1 @ b, a2, a3], "rhs": [a1, a2, b @ a3]}


def commutative_invariant_family(gamma) -> MultilinearMap:
    """Scalar 3-linear maps sum_{p,r} gamma[p,r] a_p b_r c_p on C^d.

    These are exactly the invariant 3-linear scalar maps on a commutative
    algebra; they are positive precisely when gamma is entrywise >= 0, and
    their norm equals the entry sum, attained at the all-ones tuple.
    """
    gamma = np.asarray(gamma, dtype=np.complex128)
    if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1]:
        raise ValueError("pattern must be a square matrix")
    d = gamma.shape[0]
    coeffs = np.zeros((d, d, d, 1, 1), dtype=np.complex128)
    for p in range(d):
        for r in range(d):
            coeffs[p, r, p, 0, 0] = gamma[p, r]
    return MultilinearMap(Algebra([1] * d), 3, 1, coeffs)


def schur_block_map(lam) -> BlockMultilinearMap:
    """k = 1 block map [a_ij] -> [lam_ij a_ij]; CP exactly when lam is PSD."""
    lam = np.asarray(lam, dtype=np.complex128)
    if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
        raise ValueError("multiplier pattern must be a square matrix")
    algebra = Algebra([1])
    n = lam.shape[0]
    entries = [
        [MultilinearMap(algebra, 1, 1, lam[i, j].reshape(1, 1, 1)) for j in range(n)]
        for i in range(n)
    ]
    return BlockMultilinearMap(entries)


# -- corpus ------------------------------------------------------------------


def random_icp(
    algebra: Algebra,
    k: int,
    n: int,
    h: int,
    seed: int = 0,
    max_mult: int = 2,
    isometric_v: bool = False,
) -> tuple[BlockMultilinearMap, DilationTriple]:
    """Seeded theorem-form map with tensor-product commuting representations,
    returned together with its provenance triple."""
    rng = np.random.default_rng([seed, k, n, h, algebra.dim])
    m = arity_midpoint(k)
    factors = [(algebra, random_representation(algebra, rng, max_mult=max_mult)) for _ in range(m)]
    reps = tensor_commuting_reps(factors)
    kappa = reps[0].shape[1]
    if isometric_v and kappa < h:
        factors[0] = (algebra, random_representation(algebra, rng, max_mult=max_mult, min_dim=h))
        reps = tensor_commuting_reps(factors)
        kappa = reps[0].shape[1]
    v_ops = []
    for _ in range(n):
        z = (rng.standard_normal((kappa, h)) + 1j * rng.standard_normal((kappa, h))) / np.sqrt(2.0)
        if isometric_v:
            q, r = np.linalg.qr(z)
            z = q * (np.diag(r) / np.abs(np.diag(r)))
        v_ops.append(z)
    # tensor_commuting_reps validated each factor; I (x) rho (x) I keeps its
    # law residuals, and factors on disjoint legs commute exactly
    block = _theorem_form_block(algebra, reps, v_ops, k)
    triple = DilationTriple(
        algebra=algebra,
        k=k,
        n=n,
        h=h,
        kappa=kappa,
        reps=tuple(reps),
        V=tuple(v_ops),
        meta={"source": "generator", "seed": seed},
    )
    return block, triple


@dataclass
class CorpusEntry:
    name: str
    k: int
    n: int
    d: int
    h: int
    seed: int
    block_map: BlockMultilinearMap = field(repr=False)
    triple: DilationTriple = field(repr=False)
    unital_diagonal: bool = False


def _algebra_for(d: int, flavor: int) -> Algebra:
    if d == 2:
        return Algebra([1, 1])
    if d == 4:
        return Algebra([2]) if flavor % 2 == 0 else Algebra([1, 1, 1, 1])
    raise ValueError(f"corpus algebras have dimension 2 or 4, got {d}")


def build_corpus(seed: int = 0) -> list[CorpusEntry]:
    """Seeded corpus spanning k in 1..4, n in {1,2}, d in {2,4}, h in {1,2}.

    One instance per (k, n, d, h) combination plus light extras; a few
    entries use isometric V so the unital-diagonal properties are exercised.
    """
    entries = []
    idx = 0
    for k in (1, 2, 3, 4):
        for n in (1, 2):
            for d in (2, 4):
                for h in (1, 2):
                    algebra = _algebra_for(d, idx)
                    iso = idx % 6 == 0
                    block, triple = random_icp(
                        algebra, k, n, h, seed=seed + idx, isometric_v=iso
                    )
                    entries.append(
                        CorpusEntry(
                            name=f"icp-k{k}n{n}d{d}h{h}-{idx}",
                            k=k,
                            n=n,
                            d=d,
                            h=h,
                            seed=seed + idx,
                            block_map=block,
                            triple=triple,
                            unital_diagonal=iso,
                        )
                    )
                    idx += 1
    for extra in range(3):
        for k in (1, 2, 3, 4):
            for n in (1, 2):
                algebra = _algebra_for(2, 0)
                block, triple = random_icp(algebra, k, n, 1, seed=seed + 1000 + idx)
                entries.append(
                    CorpusEntry(
                        name=f"icp-extra-k{k}n{n}-{idx}",
                        k=k,
                        n=n,
                        d=2,
                        h=1,
                        seed=seed + 1000 + idx,
                        block_map=block,
                        triple=triple,
                    )
                )
                idx += 1
    return entries


# -- generator specs (CLI fixture addressing) -----------------------------------


def _spec_int(kind: str, key: str, value, low: int = 1, high: int | None = None) -> int:
    """Integer field of a generator spec, checked to lie in [low, high)."""
    value = serialize.json_int(value, f"{kind} spec field {key!r}")
    if value < low or (high is not None and value >= high):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise SpecFormatError(f"{kind} spec field {key!r} must be {bound}, got {value}")
    return value


def _spec_count(kind: str, what: str, count: int) -> None:
    """Refuse spec fields that size an array of ``count`` entries (``what``) beyond an intp."""
    top = int(np.iinfo(np.intp).max)
    if count > top:
        raise SpecFormatError(f"{kind} spec needs {what} <= {top}, got {count}")


def from_generator_spec(spec: dict):
    """Build a map from a {"kind": ...} fixture spec; returns a
    MultilinearMap or BlockMultilinearMap."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SpecFormatError("generator spec must be an object with a 'kind' key")
    kind = spec["kind"]
    if kind == "trace":
        return trace_example(_spec_int(kind, "n", spec.get("n", 2)))
    if kind == "eval":
        dim = _spec_int(kind, "dim", spec.get("dim", 2))
        _spec_count(kind, "dim**3", dim**3)
        return point_evaluation_example(dim, _spec_int(kind, "point", spec.get("point", 0), 0, dim))
    if kind == "schur":
        if "lam" not in spec:
            raise SpecFormatError("schur spec needs a 'lam' matrix")
        return schur_block_map(serialize.finite(serialize.matrix_from_json(spec["lam"]), "schur spec field 'lam'"))
    if kind == "psi":
        return noninvariant_block_example()
    if kind == "dilation":
        try:
            algebra = serialize.algebra_from_json(spec["algebra"])
            k = serialize.json_arity(spec["k"], f"{kind} spec field 'k'")
        except KeyError as exc:
            raise SpecFormatError(f"dilation spec missing field: {exc}") from exc
        n = _spec_int(kind, "n", spec.get("n", 1))
        h = _spec_int(kind, "h", spec.get("h", 1))
        _spec_count(kind, "(n*h)**2", (n * h) ** 2)
        seed = _spec_int(kind, "seed", spec.get("seed", 0), low=0)
        block, _ = random_icp(algebra, k, n, h, seed=seed)
        return block
    raise SpecFormatError(f"unknown generator kind {kind!r}")
