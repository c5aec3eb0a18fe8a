"""Operator-norm estimation for (block) multilinear maps and the norm
attainment checks.

The estimator is an alternating maximization: all slots but one are frozen,
the value is then linear in the free slot, and the largest singular value
is ascended by gradient steps (via its singular-vector pair) followed by
projection onto the operator-norm unit ball of the amplified algebra
(per-block singular value clip).  The returned value is certified only as a
LOWER bound of the true supremum; every theorem check here is therefore a
one-sided inequality with an explicit margin.

For scalar-valued maps on commutative algebras the supremum is attained on
the torus of unimodular coordinates and each slot has one removable global
phase, which yields the independent dense-grid oracle used to calibrate the
estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import (
    Amplification,
    MatrixOverAlgebra,
    amplified_algebra,
    element_norm,
    project_unit_ball,
    random_element,
)
from .blockmap import BlockMultilinearMap, as_block_map
from .gram import positivity_falsify
from .multimap import MultilinearMap, amplified_evaluate, chain_product
from .stinespring import DilationTriple, dilate

RELATIVE_MARGIN = 1e-6
BACKTRACK_STEPS = 12
# a step is taken only when it raises sigma by more than this relative amount,
# so last-bit round-off in the map cannot decide how long the ascent runs
ASCENT_RTOL = 1e-12


def unit_norm(phi) -> float:
    """Spectral norm of the value at the all-identities tuple."""
    return float(np.linalg.norm(as_block_map(phi).unit_value(), 2))


@dataclass
class NormEstimate:
    """A certified lower bound on the amplified norm, with its witness."""

    value: float
    level: int
    witness: list
    seed: int
    restarts: int
    iters: int
    restart_values: list = field(default_factory=list)

    def witness_norms(self, amp: Amplification) -> list[float]:
        return [element_norm(amp.embed(x)) for x in self.witness]

    def to_dict(self) -> dict:
        from . import serialize

        return {
            "value": self.value,
            "level": self.level,
            "seed": self.seed,
            "restarts": self.restarts,
            "iters": self.iters,
            "witness": [serialize.matrix_over_algebra_to_json(x) for x in self.witness],
        }


class _AscentProblem:
    """Alternating singular-value ascent at a fixed amplification level, on
    level-t matrices over M_n(A) (over A when n = 1)."""

    def __init__(self, block: BlockMultilinearMap, t: int):
        self.block = block
        self.t = t
        self.grid = block.chain_grid()
        self.amp = amplified_algebra(self.grid.arg_algebra, t)

    def value(self, mats: Sequence[MatrixOverAlgebra]) -> np.ndarray:
        return amplified_evaluate(self.block, self.t, mats)

    def project(self, coords: np.ndarray) -> MatrixOverAlgebra:
        x = MatrixOverAlgebra(self.grid.arg_algebra, coords)
        return self.amp.extract(project_unit_ball(self.amp.embed(x)))

    def random_start(self, rng: np.random.Generator) -> MatrixOverAlgebra:
        el = project_unit_ball(random_element(self.amp.algebra, rng))
        return self.amp.extract(el)

    def gradient(self, mats: Sequence[MatrixOverAlgebra], slot: int, value: np.ndarray) -> np.ndarray:
        """d(sigma)/d(slot coords) as a (t, t, dim) array (ascent direction) from
        the value at ``mats``: the chain over the stacks, with that slot open."""
        grid, t, n, h = self.grid, self.t, self.grid.n, self.grid.h
        size = t * n
        u_mat, _, vh_mat = np.linalg.svd(value)
        u = u_mat[:, 0].reshape(t, n, h).conj()
        v = vh_mat[0].conj().reshape(t, n, h)
        # weight[s*n+i, P, s'*n+j] = u[s, i]^* (phi_ij coefficients at P) v[s', j]
        uv = np.einsum("siu,tjv->ijuvst", u, v).reshape(n, n, h * h, t * t)
        weight = np.matmul(grid.ends, uv).reshape(n, n, -1, t, t).transpose(3, 0, 2, 4, 1)
        stacks = [grid.regroup(x) for x in mats]
        prefix = chain_product(stacks[:slot], size)
        suffix = chain_product(stacks[slot + 1 :], size)
        left = prefix.reshape(-1, size).T @ weight.reshape(prefix.shape[0] * prefix.shape[1], -1)
        grad = left.reshape(-1, suffix.shape[1] * size) @ suffix.reshape(size, -1).T
        return grid.ungroup(np.conj(grad).reshape(size, -1, size))


def norm_estimate(
    phi,
    t: int = 1,
    restarts: int = 16,
    iters: int = 30,
    seed: int = 0,
    pinned: dict | None = None,
) -> NormEstimate:
    """Best-of-restarts lower bound on the level-t norm.

    ``pinned`` maps slot indices to fixed arguments (as matrices over the
    map's argument algebra: A, or M_n(A) for a block map); those slots are
    held and never updated, which realizes the restricted searches used by
    the attainment theorems.  Restart r uses generator seed (seed, r), so
    doubling ``restarts`` never decreases the returned value.
    """
    if t < 1:
        raise ValueError(f"level must be >= 1, got {t}")
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    block = as_block_map(phi)
    problem = _AscentProblem(block, t)
    pinned = dict(pinned or {})
    for slot, mat in pinned.items():
        if mat.algebra != problem.grid.arg_algebra or mat.t != t:
            raise ValueError(f"pinned argument for slot {slot} has the wrong shape")
    best_sigma = -np.inf
    best_mats = None
    per_restart = []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        mats = [
            pinned[l] if l in pinned else problem.random_start(rng) for l in range(block.k)
        ]
        value = problem.value(mats)
        sigma = float(np.linalg.norm(value, 2))
        for _ in range(iters):
            improved = False
            for slot in range(block.k):
                if slot in pinned:
                    continue
                direction = problem.gradient(mats, slot, value)
                step = 1.0
                for _ in range(BACKTRACK_STEPS):
                    cand = problem.project(mats[slot].coords + step * direction)
                    cand_value = problem.value(mats[:slot] + [cand] + mats[slot + 1 :])
                    cand_sigma = float(np.linalg.norm(cand_value, 2))
                    if cand_sigma > sigma * (1.0 + ASCENT_RTOL):
                        mats[slot] = cand
                        value, sigma = cand_value, cand_sigma
                        improved = True
                        break
                    step /= 2.0
            if not improved:
                break
        per_restart.append(sigma)
        if sigma > best_sigma:
            best_sigma = sigma
            best_mats = mats
    return NormEstimate(
        value=best_sigma,
        level=t,
        witness=best_mats,
        seed=seed,
        restarts=restarts,
        iters=iters,
        restart_values=per_restart,
    )


def brute_force_commutative_norm(phi: MultilinearMap, phases: int = 64) -> float:
    """Dense-grid supremum for scalar maps on commutative algebras.

    The maximum of |value| over operator-norm unit balls sits on the torus
    of unimodular coordinates, and a global phase per slot is irrelevant, so
    the grid runs over (dim - 1) relative phases per slot.
    """
    if phi.h != 1:
        raise ValueError("grid oracle requires scalar codomain (h = 1)")
    if not phi.algebra.is_commutative:
        raise ValueError("grid oracle requires a commutative algebra")
    d, k = phi.algebra.dim, phi.k
    n_grid = phases ** (d - 1)
    if n_grid**k > 5 * 10**7:
        raise ValueError("grid too large; reduce phases or arity")
    theta = 2.0 * np.pi * np.arange(phases) / phases
    ring = np.exp(1j * theta)
    grid = np.ones((n_grid, d), dtype=np.complex128)
    for combo_idx, combo in enumerate(np.ndindex(*(phases,) * (d - 1))):
        for coord, ph in enumerate(combo):
            grid[combo_idx, coord + 1] = ring[ph]
    out = phi.coeffs.reshape((d,) * k)
    for i in range(k):
        # after i contractions the first i axes index grids, slot axis sits at i
        out = np.tensordot(grid, out, axes=(1, i))
    return float(np.abs(out).max())


# -- theorem checks -------------------------------------------------------------


@dataclass
class RussoDyeReport:
    """One-sided norm attainment check at level 1 for positive invariant maps."""

    unit_norm: float
    estimate: NormEstimate
    margin: float
    passed: bool
    invariant: bool
    counterexample: object
    unit_witness_value: float

    @property
    def hypothesis_failure(self) -> bool:
        return (not self.invariant) or (self.counterexample is not None) or (not self.passed)

    def to_dict(self) -> dict:
        return {
            "unit_norm": self.unit_norm,
            "estimate": self.estimate.to_dict(),
            "margin": self.margin,
            "passed": self.passed,
            "invariant": self.invariant,
            "positivity_counterexample": None
            if self.counterexample is None
            else self.counterexample.to_dict(),
            "unit_witness_value": self.unit_witness_value,
            "hypothesis_failure": self.hypothesis_failure,
        }


def russo_dye_check(
    phi: MultilinearMap,
    seed: int = 0,
    restarts: int = 16,
    iters: int = 30,
    trials: int = 200,
) -> RussoDyeReport:
    """Check that the level-1 norm estimate does not exceed the unit value.

    The hypotheses (invariance, positivity) are probed first; an estimate
    above the unit norm is classified as a hypothesis failure with the
    witness attached, never as a refutation of the attainment statement.
    """
    if not isinstance(phi, MultilinearMap):
        raise TypeError("norm attainment check applies to plain multilinear maps")
    invariant = phi.is_invariant()
    counterexample = positivity_falsify(phi, levels=(1,), trials=trials, seed=seed)
    est = norm_estimate(phi, t=1, restarts=restarts, iters=iters, seed=seed)
    u_norm = unit_norm(phi)
    passed = est.value <= u_norm * (1.0 + RELATIVE_MARGIN)
    # the unit tuple through the chain kernel: a cross-check of unit_value()
    one = MatrixOverAlgebra.identity(phi.algebra, 1)
    unit_witness_value = float(np.linalg.norm(amplified_evaluate(phi, 1, [one] * phi.k), 2))
    return RussoDyeReport(
        unit_norm=u_norm,
        estimate=est,
        margin=u_norm - est.value,
        passed=passed,
        invariant=invariant,
        counterexample=counterexample,
        unit_witness_value=unit_witness_value,
    )


@dataclass
class CbRussoDyeReport:
    """Per-level norm estimates against the unit value and the dilation bound."""

    unit_norm: float
    v_bound: float
    estimates: list
    per_level_ok: list
    v_bound_consistent: bool
    passed: bool

    def to_dict(self) -> dict:
        return {
            "unit_norm": self.unit_norm,
            "v_bound": self.v_bound,
            "estimates": [e.to_dict() for e in self.estimates],
            "per_level_ok": self.per_level_ok,
            "v_bound_consistent": self.v_bound_consistent,
            "passed": self.passed,
        }


def cb_russo_dye_check(
    phi,
    triple: DilationTriple | None = None,
    t_max: int = 3,
    restarts: int = 4,
    iters: int = 10,
    seed: int = 0,
) -> CbRussoDyeReport:
    """Estimates at levels 1..t_max never exceed the unit value, which in turn
    matches the squared norm of the dilation's V operators.

    Caller guarantees the hypotheses; passing a triple (or letting this
    function dilate) supplies the CP certificate.
    """
    block = as_block_map(phi)
    if triple is None:
        triple = dilate(block)
    u_norm = unit_norm(block)
    v_bound = triple.unit_norm_bound()
    estimates = [
        norm_estimate(block, t=t, restarts=restarts, iters=iters, seed=seed)
        for t in range(1, t_max + 1)
    ]
    per_level = [e.value <= u_norm * (1.0 + RELATIVE_MARGIN) for e in estimates]
    consistent = abs(v_bound - u_norm) <= 1e-8 * (1.0 + u_norm)
    return CbRussoDyeReport(
        unit_norm=u_norm,
        v_bound=v_bound,
        estimates=estimates,
        per_level_ok=per_level,
        v_bound_consistent=consistent,
        passed=all(per_level) and consistent,
    )


@dataclass
class CbBoundReport:
    unit_norm: float
    bound: float
    estimates: list
    per_level_ok: list
    passed: bool

    def to_dict(self) -> dict:
        return {
            "unit_norm": self.unit_norm,
            "bound": self.bound,
            "estimates": [e.to_dict() for e in self.estimates],
            "per_level_ok": self.per_level_ok,
            "passed": self.passed,
        }


def cb_16_bound_check(
    phi,
    t_max: int = 2,
    restarts: int = 4,
    iters: int = 10,
    seed: int = 0,
) -> CbBoundReport:
    """All level estimates stay below 2^4 times the unit value (arity 3 or 4)."""
    block = as_block_map(phi)
    if block.k not in (3, 4):
        raise ValueError(f"the 2^4 bound applies to arity 3 or 4, got {block.k}")
    u_norm = unit_norm(block)
    bound = 16.0 * u_norm
    estimates = [
        norm_estimate(block, t=t, restarts=restarts, iters=iters, seed=seed)
        for t in range(1, t_max + 1)
    ]
    per_level = [e.value <= bound * (1.0 + RELATIVE_MARGIN) for e in estimates]
    return CbBoundReport(
        unit_norm=u_norm,
        bound=bound,
        estimates=estimates,
        per_level_ok=per_level,
        passed=all(per_level),
    )
