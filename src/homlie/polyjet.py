"""Dense truncated multivariate polynomial arithmetic.

Polynomials in nvars variables, truncated at a fixed total degree, are
stored as coefficient arrays whose last axis runs over all monomials
x^alpha with |alpha| <= degree in graded-lexicographic order: ascending
total degree, ties broken by lexicographic comparison of the exponent
tuples.  Index 0 is always the constant term.

Every table comes from one (size, nvars) array of exponents, built
grade by grade.  A code that is increasing in graded-lex order and
additive on exponents turns monomial products and quotients into
searchsorted lookups: the product table, and lower, the position of
alpha - e_k (-1 where alpha_k = 0) that diff and the recursion of
coordinates.metric_jet run on.  The tables of one (nvars, degree) are
built once and shared read-only by every PolySpace of that truncation,
from a cache of the TABLE_CACHE_SIZE most recently used ones; a
PolySpace itself is cheap to construct.

Leading axes are free, so a matrix of polynomials is simply an array of
shape (n, n, size).  The one product, mul, is an einsum contraction over
the leading axes named by its subscripts, with the truncated polynomial
product on the last axis: the partners of a monomial of degree d are the
prefix of the graded order with degree <= degree - d, each pair is
listed once in an index table, the factors are gathered along it, one
einsum contracts them, and np.add.at sums each pair into its product
monomial.  Both float64 and object (Python int or Fraction) coefficients
go through this one code path.  The exact callers in the coordinates
module scale their jets to integers first, so object arithmetic runs on
Python ints and never normalises a Fraction.

Truncation is degree-exact: multiplying two truncated polynomials gives
coefficients that agree with the untruncated product in every degree
<= the truncation degree, because total degree is additive.
"""

import functools
from fractions import Fraction
from types import MappingProxyType

import numpy as np

__all__ = ["PolySpace"]


# Tables of this many most recently used truncations are kept, so that a
# PolySpace of a truncation met before builds none.  metric_jet admits
# tables of at most 3 * MAX_JET_ENTRIES / nvars^2 ints (about 11 MB at
# nvars = 3); the jets of a degree sweep at one n fit.
TABLE_CACHE_SIZE = 8


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _tables(nvars, degree):
    """The read-only tables of one (nvars, degree), by attribute name."""
    base = degree + 1
    # code(alpha) = |alpha| base^nvars + the base-(degree+1) digits of
    # alpha: increasing in graded-lex order, and additive while every
    # digit stays <= degree, so searchsorted finds products and quotients
    weights = base ** nvars + base ** np.arange(nvars - 1, -1, -1)
    # grade d + 1 is grade d times each variable, sorted by code
    grades = [np.zeros((1, nvars), dtype=int)]
    for _ in range(degree):
        up = (grades[-1][:, None, :] + np.eye(nvars, dtype=int)).reshape(-1, nvars)
        _, first = np.unique(up @ weights, return_index=True)
        grades.append(up[first])
    exponents = np.concatenate(grades)
    size = len(exponents)
    degrees = exponents.sum(axis=1)
    code = exponents @ weights

    # multiplication table: the partners of monomial a are the prefix
    # of the graded order with degree <= degree - deg_a
    count = np.searchsorted(degrees, degree - degrees, side="right")
    mul_i1 = np.repeat(np.arange(size), count)
    mul_i2 = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    mul_it = np.searchsorted(code, code[mul_i1] + code[mul_i2])

    # lower[a, k]: position of alpha - e_k, or -1 where alpha_k = 0
    lower = np.where(exponents > 0, np.searchsorted(code, code[:, None] - weights), -1)

    monomials = tuple(map(tuple, exponents.tolist()))
    tables = {"size": size, "degrees": degrees, "monomials": monomials,
              "index": MappingProxyType({alpha: i for i, alpha in enumerate(monomials)}),
              "lower": lower, "_exponents": exponents,
              "_mul_i1": mul_i1, "_mul_i2": mul_i2, "_mul_it": mul_it}
    for value in tables.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return MappingProxyType(tables)


class PolySpace:
    """Tables for one (nvars, degree) truncation, shared read-only with
    every other PolySpace of the same truncation."""

    def __init__(self, nvars, degree):
        if nvars < 1 or degree < 0:
            raise ValueError("need nvars >= 1 and degree >= 0")
        if (degree + 1) ** (nvars + 1) > np.iinfo(np.int64).max:
            raise ValueError(f"{nvars} variables at degree {degree} overflow the monomial codes")
        self.nvars = nvars
        self.degree = degree
        vars(self).update(_tables(nvars, degree))

    # -- constructors -------------------------------------------------

    def zeros(self, shape=(), exact=False):
        """Zero coefficients: float64, or Python int 0 in an object array."""
        return np.zeros(tuple(shape) + (self.size,), dtype=object if exact else float)

    # -- arithmetic ----------------------------------------------------

    def mul(self, subscripts, a, b):
        """Truncated product contracted like np.einsum(subscripts, a, b).

        The subscripts name the leading axes only ("ik,kj->ij" is a
        matrix product of polynomial matrices, "..." is allowed); the
        last axis of a, b and the result holds the coefficients.
        """
        inputs, output = subscripts.split("->")
        sa, sb = inputs.split(",")
        z = next(ch for ch in "zyxwvutsrqponmlkjihgfedcba" if ch not in subscripts)
        a = np.asarray(a)
        b = np.asarray(b)
        prod = np.einsum(f"{sa}{z},{sb}{z}->{output}{z}",
                         a[..., self._mul_i1], b[..., self._mul_i2])
        out = self.zeros(prod.shape[:-1], prod.dtype == object)
        np.add.at(out, (Ellipsis, self._mul_it), prod)
        return out

    def diff(self, a, k):
        """Partial derivative in variable k; broadcasts over leading axes."""
        a = np.asarray(a)
        out = self.zeros(a.shape[:-1], a.dtype == object)
        src = np.flatnonzero(self._exponents[:, k])
        out[..., self.lower[src, k]] = a[..., src] * self._exponents[src, k]
        return out

    # -- evaluation ----------------------------------------------------

    def monomial_values(self, x):
        """Values of every basis monomial at the point x: Fractions when
        every coordinate is an int or a Fraction, float64 otherwise.

        Each coordinate is raised by its own type's power, so float
        points get the same bits as scalar arithmetic."""
        exact = all(isinstance(v, (int, Fraction)) for v in x)
        powers = np.array(list(x), dtype=object) ** self._exponents.astype(object)
        vals = powers.prod(axis=1, initial=Fraction(1) if exact else 1.0)
        return vals if exact else vals.astype(float)

    def evaluate(self, a, x):
        """Evaluate coefficients at the point x (per leading index)."""
        a = np.asarray(a)
        mv = self.monomial_values(x)
        if a.dtype == object or mv.dtype == object:
            return (a * mv).sum(axis=-1)
        return a @ mv
