"""Truncated polynomial products: PolySpace.mul against independent references."""
import numpy as np
from hypothesis import given, settings, strategies as st

from homlie.polyjet import PolySpace

# subscripts over the leading axes, and the leading shapes of the factors
CONTRACTIONS = [
    ("ik,kj->ij", (2, 3), (3, 2)),
    ("lim,mjk->lkij", (2, 2, 2), (2, 2, 2)),
    ("pmb,p...->mb...", (3, 2, 2), (3, 2, 3)),
]


def _product_by_pairs(space, subscripts, a, b):
    """The truncated product as an explicit loop over monomial pairs."""
    lead = np.einsum(subscripts, a[..., 0], b[..., 0]).shape
    out = np.zeros(lead + (space.size,), dtype=object)
    for i, alpha in enumerate(space.monomials):
        for j, beta in enumerate(space.monomials):
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            if sum(gamma) <= space.degree:
                out[..., space.index[gamma]] += np.einsum(subscripts, a[..., i], b[..., j])
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CONTRACTIONS), st.integers(1, 3), st.integers(0, 4), st.data())
def test_float_product_is_pointwise_einsum(contraction, nvars, degree, data):
    # factor degrees sum to at most the truncation degree, so nothing is
    # truncated and the product is exact at every point
    subscripts, sa, sb = contraction
    space = PolySpace(nvars, degree)
    da = data.draw(st.integers(0, degree))
    db = data.draw(st.integers(0, degree - da))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal(sa + (space.size,)) * (space.degrees <= da)
    b = rng.standard_normal(sb + (space.size,)) * (space.degrees <= db)
    prod = space.mul(subscripts, a, b)
    assert prod.dtype == float
    for _ in range(3):
        x = rng.uniform(-1.0, 1.0, nvars)
        want = np.einsum(subscripts, space.evaluate(a, x), space.evaluate(b, x))
        got = space.evaluate(prod, x)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * (1.0 + np.max(np.abs(want))))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(CONTRACTIONS), st.integers(1, 3), st.integers(0, 3),
       st.integers(0, 2**32 - 1))
def test_integer_product_equals_pair_loop(contraction, nvars, degree, seed):
    # full-degree factors, so the truncation is exercised as well
    subscripts, sa, sb = contraction
    space = PolySpace(nvars, degree)
    rng = np.random.default_rng(seed)
    a = rng.integers(-9, 10, sa + (space.size,)).astype(object)
    b = rng.integers(-9, 10, sb + (space.size,)).astype(object)
    prod = space.mul(subscripts, a, b)
    want = _product_by_pairs(space, subscripts, a, b)
    assert prod.shape == want.shape and prod.dtype == object
    assert all(type(v) is int for v in prod.ravel().tolist())
    assert np.array_equal(prod, want)
