"""Truncated polynomial products: PolySpace.mul against independent references."""
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homlie import polyjet
from homlie.polyjet import PolySpace

# subscripts over the leading axes, and the leading shapes of the factors
CONTRACTIONS = [
    ("ik,kj->ij", (2, 3), (3, 2)),
    ("lim,mjk->lkij", (2, 2, 2), (2, 2, 2)),
    ("pmb,p...->mb...", (3, 2, 2), (3, 2, 3)),
]


def _tuple_tables(nvars, degree):
    """Monomials and index tables by tuple arithmetic, one pair at a time."""
    monomials = []
    for d in range(degree + 1):
        monomials += sorted(alpha for alpha in itertools.product(range(d + 1), repeat=nvars)
                            if sum(alpha) == d)
    index = {alpha: i for i, alpha in enumerate(monomials)}
    mul = [(a, b, index[tuple(x + y for x, y in zip(alpha, beta))])
           for a, alpha in enumerate(monomials) for b, beta in enumerate(monomials)
           if sum(alpha) + sum(beta) <= degree]
    lower = [[index[alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]] if alpha[k] else -1
              for k in range(nvars)] for alpha in monomials]
    return monomials, index, mul, lower


@pytest.mark.parametrize("nvars, degree", [(1, 0), (1, 6), (2, 4), (3, 5), (4, 3), (5, 2),
                                           (7, 0), (7, 3), (7, 5)])
def test_tables_equal_tuple_arithmetic(nvars, degree):
    space = PolySpace(nvars, degree)
    monomials, index, mul, lower = _tuple_tables(nvars, degree)
    assert space.monomials == tuple(monomials) and space.index == index
    assert space.size == len(monomials)
    assert space.degrees.tolist() == [sum(alpha) for alpha in monomials]
    assert list(zip(space._mul_i1.tolist(), space._mul_i2.tolist(),
                    space._mul_it.tolist())) == mul
    assert space.lower.tolist() == lower
    # diff maps x^alpha to alpha_k x^(alpha - e_k)
    for k in range(nvars):
        for a, alpha in enumerate(monomials):
            unit = space.zeros(exact=True)
            unit[a] = 1
            want = space.zeros(exact=True)
            if alpha[k]:
                want[lower[a][k]] = alpha[k]
            assert np.array_equal(space.diff(unit, k), want)


@pytest.mark.parametrize("point, dtype, kind", [
    ((Fraction(1, 2), -3, Fraction(2, 3)), object, Fraction),
    ((0, 0, 0), object, Fraction),
    ((0.5, -3.0, 2.0), float, np.float64),
    (np.array([0.3, -1.7, 2.1]), float, np.float64),
    ((0.5, -3, Fraction(2, 3)), float, np.float64),
])
def test_monomial_values_keep_type(point, dtype, kind):
    space = PolySpace(3, 4)
    vals = space.monomial_values(point)
    assert vals.shape == (space.size,) and vals.dtype == dtype
    assert all(type(v) is kind for v in vals)
    # the value of scalar arithmetic in each coordinate's own type
    for alpha, v in zip(space.monomials, vals):
        want = Fraction(1) if dtype is object else 1.0
        for x, a in zip(point, alpha):
            want = want * x ** a
        assert v == want


_TABLES = ("size", "degrees", "monomials", "index", "lower",
           "_exponents", "_mul_i1", "_mul_i2", "_mul_it")


@pytest.mark.parametrize("nvars, degree", [(1, 0), (3, 5), (7, 3)])
def test_spaces_of_one_truncation_share_read_only_tables(nvars, degree):
    first, second = PolySpace(nvars, degree), PolySpace(nvars, degree)
    assert first is not second
    fresh = polyjet._tables.__wrapped__(nvars, degree)
    for name in _TABLES:
        shared = getattr(first, name)
        assert getattr(second, name) is shared
        if isinstance(shared, np.ndarray):
            assert not shared.flags.writeable
            assert np.array_equal(shared, fresh[name]) and shared.dtype == fresh[name].dtype
        else:
            assert shared == fresh[name]
    with pytest.raises(ValueError):
        first.lower[0, 0] = 7
    with pytest.raises(TypeError):
        first.index[(0,) * nvars] = 7
    assert isinstance(first.monomials, tuple)


def test_codes_that_would_overflow_are_refused():
    # 3^41 > 2^63: the monomial codes of 40 variables at degree 2 do not fit
    with pytest.raises(ValueError, match="overflow"):
        PolySpace(40, 2)


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
