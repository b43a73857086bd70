"""Dense truncated multivariate polynomial arithmetic.

Polynomials in nvars variables, truncated at a fixed total degree, are
stored as coefficient arrays whose last axis runs over all monomials
x^alpha with |alpha| <= degree in graded-lexicographic order: ascending
total degree, ties broken by lexicographic comparison of the exponent
tuples.  Index 0 is always the constant term.

Leading axes are free, so a matrix of polynomials is simply an array of
shape (n, n, size).  The one product, mul, is an einsum contraction over
the leading axes named by its subscripts, with the truncated polynomial
product on the last axis: every pair of monomials whose degrees fit is
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

import itertools
from fractions import Fraction

import numpy as np

__all__ = ["PolySpace", "monomial_tuples"]


def monomial_tuples(nvars, degree):
    """All exponent tuples with |alpha| <= degree, graded-lex order."""
    out = []
    for d in range(degree + 1):
        block = [alpha for alpha in itertools.product(range(d + 1), repeat=nvars)
                 if sum(alpha) == d]
        block.sort()
        out.extend(block)
    return out


class PolySpace:
    """Shared tables for one (nvars, degree) truncation."""

    def __init__(self, nvars, degree):
        if nvars < 1 or degree < 0:
            raise ValueError("need nvars >= 1 and degree >= 0")
        self.nvars = nvars
        self.degree = degree
        self.monomials = monomial_tuples(nvars, degree)
        self.size = len(self.monomials)
        self.index = {alpha: i for i, alpha in enumerate(self.monomials)}
        self.degrees = np.array([sum(a) for a in self.monomials], dtype=int)

        # multiplication table: all (i1, i2) with deg_i1 + deg_i2 <= degree
        i1, i2, it = [], [], []
        for a, alpha in enumerate(self.monomials):
            da = sum(alpha)
            for b, beta in enumerate(self.monomials):
                if da + sum(beta) > degree:
                    continue
                gamma = tuple(x + y for x, y in zip(alpha, beta))
                i1.append(a)
                i2.append(b)
                it.append(self.index[gamma])
        self._mul_i1 = np.array(i1, dtype=int)
        self._mul_i2 = np.array(i2, dtype=int)
        self._mul_it = np.array(it, dtype=int)

        # derivative tables: x^alpha -> alpha_k x^(alpha - e_k)
        self._diff_src = []
        self._diff_dst = []
        self._diff_fac = []
        for k in range(nvars):
            src, dst, fac = [], [], []
            for a, alpha in enumerate(self.monomials):
                if alpha[k] > 0:
                    beta = list(alpha)
                    beta[k] -= 1
                    src.append(a)
                    dst.append(self.index[tuple(beta)])
                    fac.append(alpha[k])
            self._diff_src.append(np.array(src, dtype=int))
            self._diff_dst.append(np.array(dst, dtype=int))
            self._diff_fac.append(np.array(fac, dtype=int))

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
        src = self._diff_src[k]
        if src.size:
            out[..., self._diff_dst[k]] = a[..., src] * self._diff_fac[k]
        return out

    # -- evaluation ----------------------------------------------------

    def value_at_zero(self, a):
        return np.asarray(a)[..., 0]

    def monomial_values(self, x):
        """Values of every basis monomial at the point x."""
        exact = all(isinstance(v, (int, Fraction)) for v in x)
        vals = []
        for alpha in self.monomials:
            v = Fraction(1) if exact else 1.0
            for xk, ak in zip(x, alpha):
                if ak:
                    v = v * xk ** ak
            vals.append(v)
        if exact:
            out = np.empty(len(vals), dtype=object)
            out[:] = vals
            return out
        return np.array(vals)

    def evaluate(self, a, x):
        """Evaluate coefficients at the point x (per leading index)."""
        a = np.asarray(a)
        mv = self.monomial_values(x)
        if a.dtype == object or mv.dtype == object:
            return (a * mv).sum(axis=-1)
        return a @ mv
