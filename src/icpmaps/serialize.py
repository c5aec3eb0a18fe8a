"""JSON forms for every on-disk object.

Complex numbers are [re, im] pairs of doubles; matrices are row-major
nested lists.  Loaders validate shapes and raise :class:`SpecFormatError`
so the CLI can map malformed input to its own exit code.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import Algebra, AlgebraElement, MatrixOverAlgebra
from .blockmap import BlockMultilinearMap
from .errors import SpecFormatError
from .multimap import MultilinearMap


def dumps(obj) -> str:
    """Deterministic JSON: sorted keys, fixed layout, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- scalars / matrices -----------------------------------------------------


def complex_to_pair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def pair_to_complex(pair) -> complex:
    try:
        re, im = pair
        return complex(float(re), float(im))
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(f"expected a [re, im] pair, got {pair!r}") from exc


def matrix_to_json(mat) -> list:
    mat = np.asarray(mat, dtype=np.complex128)
    return [[complex_to_pair(z) for z in row] for row in mat]


def matrix_from_json(data, shape=None) -> np.ndarray:
    try:
        out = np.array([[pair_to_complex(z) for z in row] for row in data])
    except (TypeError, SpecFormatError) as exc:
        raise SpecFormatError(f"malformed matrix: {exc}") from exc
    if out.ndim != 2 or (shape is not None and out.shape != tuple(shape)):
        raise SpecFormatError(f"matrix has shape {out.shape}, expected {shape}")
    return out


def vector_to_json(vec) -> list:
    return [complex_to_pair(z) for z in np.asarray(vec, dtype=np.complex128)]


# -- algebra / elements -------------------------------------------------------


def algebra_to_json(algebra: Algebra) -> dict:
    return {"blocks": list(algebra.block_dims)}


def algebra_from_json(data) -> Algebra:
    if not isinstance(data, dict) or "blocks" not in data:
        raise SpecFormatError("algebra spec must be an object with a 'blocks' list")
    blocks = data["blocks"]
    if (
        not isinstance(blocks, list)
        or not blocks
        or any(not isinstance(b, int) or b < 1 for b in blocks)
    ):
        raise SpecFormatError(f"'blocks' must be a non-empty list of positive integers, got {blocks!r}")
    return Algebra(blocks)


def element_to_json(el: AlgebraElement) -> list:
    return [matrix_to_json(blk) for blk in el.blocks]


def element_from_json(algebra: Algebra, data) -> AlgebraElement:
    if not isinstance(data, list) or len(data) != algebra.n_blocks:
        raise SpecFormatError(f"element must list {algebra.n_blocks} blocks")
    blocks = [matrix_from_json(blk, (d, d)) for blk, d in zip(data, algebra.block_dims)]
    return AlgebraElement(algebra, blocks)


def matrix_over_algebra_to_json(mat: MatrixOverAlgebra) -> dict:
    return {
        "algebra": algebra_to_json(mat.algebra),
        "t": mat.t,
        "entries": [
            [element_to_json(mat.entry(i, j)) for j in range(mat.t)] for i in range(mat.t)
        ],
    }


def matrix_over_algebra_from_json(data) -> MatrixOverAlgebra:
    try:
        algebra = algebra_from_json(data["algebra"])
        t = int(data["t"])
        entries = data["entries"]
    except (KeyError, TypeError) as exc:
        raise SpecFormatError(f"malformed matrix-over-algebra: {exc}") from exc
    if len(entries) != t or any(len(row) != t for row in entries):
        raise SpecFormatError("entries grid does not match t")
    grid = [[element_from_json(algebra, cell) for cell in row] for row in entries]
    return MatrixOverAlgebra.from_entries(algebra, grid)


# -- maps ---------------------------------------------------------------------


def _coeffs_to_json(coeffs: np.ndarray, depth: int):
    if depth == 0:
        return matrix_to_json(coeffs)
    return [_coeffs_to_json(sub, depth - 1) for sub in coeffs]


def _coeffs_from_json(data, k: int, d: int, h: int) -> np.ndarray:
    def parse(node, depth):
        if depth == 0:
            return matrix_from_json(node, (h, h))
        if not isinstance(node, list) or len(node) != d:
            raise SpecFormatError(
                f"coefficient tensor level {k - depth} must list {d} entries"
            )
        return np.stack([parse(sub, depth - 1) for sub in node])

    return parse(data, k)


def map_to_json(phi: MultilinearMap) -> dict:
    return {
        "algebra": algebra_to_json(phi.algebra),
        "k": phi.k,
        "h": phi.h,
        "coeffs": _coeffs_to_json(phi.coeffs, phi.k),
    }


def map_from_json(data) -> MultilinearMap:
    try:
        algebra = algebra_from_json(data["algebra"])
        k = int(data["k"])
        h = int(data["h"])
        raw = data["coeffs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFormatError(f"malformed map spec: {exc}") from exc
    if k < 1 or h < 1:
        raise SpecFormatError(f"arity and codomain dimension must be >= 1, got k={k}, h={h}")
    coeffs = _coeffs_from_json(raw, k, algebra.dim, h)
    return MultilinearMap(algebra, k, h, coeffs)


def block_to_json(block: BlockMultilinearMap) -> dict:
    return {
        "n": block.n,
        "entries": [map_to_json(phi) for row in block.entries for phi in row],
    }


def block_from_json(data) -> BlockMultilinearMap:
    try:
        n = int(data["n"])
        flat = data["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFormatError(f"malformed block spec: {exc}") from exc
    if not isinstance(flat, list) or len(flat) != n * n:
        raise SpecFormatError(f"block spec needs {n * n} entry maps (row-major), got {len(flat)}")
    maps = [map_from_json(item) for item in flat]
    grid = [maps[i * n : (i + 1) * n] for i in range(n)]
    return BlockMultilinearMap(grid)


def load_map_spec(data):
    """Dispatch a JSON object to the right loader.

    Generator specs carry a 'kind'; block specs carry 'n' + 'entries';
    plain map specs carry 'coeffs'.
    """
    if not isinstance(data, dict):
        raise SpecFormatError("spec must be a JSON object")
    if "kind" in data:
        from . import factory

        return factory.from_generator_spec(data)
    if "entries" in data and "n" in data:
        return block_from_json(data)
    if "coeffs" in data:
        return map_from_json(data)
    raise SpecFormatError("spec is neither a generator, block map, nor map spec")


# -- gram / dilation ------------------------------------------------------------


def gram_to_json(gram) -> dict:
    return {
        "size": gram.size,
        "k": gram.k,
        "n": gram.n,
        "h": gram.h,
        "algebra": algebra_to_json(gram.algebra),
        "matrix": matrix_to_json(gram.matrix),
        "index_map": [
            {"factors": [int(f) for f in item["factors"]], "slot": item["slot"], "component": item["component"]}
            for item in gram.index_map
        ],
    }


def triple_to_json(triple, residuals: dict | None = None) -> dict:
    basis_legend = [list(triple.algebra.basis_label(p)) for p in range(triple.algebra.dim)]
    return {
        "algebra": algebra_to_json(triple.algebra),
        "k": triple.k,
        "n": triple.n,
        "h": triple.h,
        "kappa": triple.kappa,
        "rank_tol": triple.rank_tol,
        "basis_legend": basis_legend,
        "reps": [
            {f"e{b}": matrix_to_json(images[b]) for b in range(triple.algebra.dim)}
            for images in triple.reps
        ],
        "V": [matrix_to_json(vj) for vj in triple.V],
        "residuals": residuals or {},
    }


def triple_from_json(data):
    from .stinespring import DilationTriple

    try:
        algebra = algebra_from_json(data["algebra"])
        k = int(data["k"])
        n = int(data["n"])
        h = int(data["h"])
        kappa = int(data["kappa"])
        reps_raw = data["reps"]
        v_raw = data["V"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFormatError(f"malformed dilation triple: {exc}") from exc
    if min(k, n, h) < 1 or kappa < 0:
        raise SpecFormatError(
            f"dilation triple needs k, n, h >= 1 and kappa >= 0, got k={k}, n={n}, h={h}, kappa={kappa}"
        )
    m = (k + 1) // 2
    if not (isinstance(reps_raw, list) and len(reps_raw) == m and isinstance(v_raw, list) and len(v_raw) == n):
        raise SpecFormatError(f"dilation triple with k={k}, n={n} needs a list of {m} reps and one of {n} V")
    reps = []
    for per_p in reps_raw:
        try:
            images = np.stack(
                [matrix_from_json(per_p[f"e{b}"], (kappa, kappa)) for b in range(algebra.dim)]
            ) if kappa else np.zeros((algebra.dim, 0, 0), dtype=np.complex128)
        except (KeyError, TypeError) as exc:
            raise SpecFormatError(f"dilation triple reps must map e0..e{algebra.dim - 1}: {exc}") from exc
        reps.append(images)
    v_ops = tuple(matrix_from_json(vj, (kappa, h)) if kappa else np.zeros((0, h)) for vj in v_raw)
    return DilationTriple(
        algebra=algebra,
        k=k,
        n=n,
        h=h,
        kappa=kappa,
        reps=tuple(reps),
        V=v_ops,
        rank_tol=data.get("rank_tol"),
        meta={"source": "json"},
    )
