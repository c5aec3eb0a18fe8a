import numpy as np
import pytest

from icpmaps.algebra import Algebra
from icpmaps.factory import build_corpus
from icpmaps.multimap import MultilinearMap


@pytest.fixture(scope="session")
def corpus():
    return build_corpus(seed=0)


@pytest.fixture(scope="session")
def small_corpus(corpus):
    """A lighter slice covering every (k, n) combination once."""
    seen = set()
    out = []
    for entry in corpus:
        key = (entry.k, entry.n)
        if key not in seen:
            seen.add(key)
            out.append(entry)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def algebras():
    return {
        "c2": Algebra([1, 1]),
        "c3": Algebra([1, 1, 1]),
        "m2": Algebra([2]),
        "m2c": Algebra([2, 1]),
    }


@pytest.fixture(scope="session")
def non_invariant_psd_map():
    """k = 2 scalar map on M_2 with phi(e_a, e_b) = G[a*, b], G = z z*: its
    Gram is G, PSD, but the map is not invariant, so ker G is not preserved
    by left multiplication."""
    alg = Algebra([2])
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    g = z @ z.conj().T
    return MultilinearMap(alg, 2, 1, g[alg.star_perm][:, :, None, None])
