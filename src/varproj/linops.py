"""Linear operators for regularized separable least-squares problems.

The solvers only need a small operator algebra: dense matrices, symmetric
Toeplitz convolutions with a normalized Gaussian kernel, the weighted
first-difference regularizer W D, and the vertical stack [A; lambda*L] that
turns a Tikhonov-regularized problem into an ordinary least-squares operator.
Operators are matrix-free by contract: ``to_dense`` materializes one on
request, for tests, reports and the dense direct solve. They are immutable
after construction and safe to share across threads. A symmetric Toeplitz
operator whose first row has a narrow nonzero band (2k + 1 <= n/2 for its
last nonzero index k) is applied as a block Toeplitz matrix with B x B
blocks, B = max(k, 1), by one matrix-matrix product with its three distinct
nonzero blocks, and holds no n x n matrix; see ``SymmetricToeplitzOperator``.
For a stack of a block-applied operator over a weighted first difference,
``normal_band`` builds the Gram matrix S^T S from the first row in LAPACK
band storage, so 2k + 1 <= n/2 is the one rule for both band routes. It
keeps only the first kd' <= kd = 2k diagonals, past which the Gram's
entries weigh less than one unit roundoff of A^2 together (kd' is about
12 sigma for a Gaussian of width sigma, against kd of about 53 sigma);
the direct inner solver and the condition-number bound then use band
LAPACK routines on that band instead of the dense n x n Gram. The Gaussian
kernels drop their first-row entries below sqrt(tiny), so no product of
kernel entries, and no product of a kernel entry with a vector entry of at
least sqrt(tiny), is subnormal.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
from scipy.linalg import toeplitz

# Gaussian kernel entries below sqrt(tiny), about 1.49e-154, are set to
# zero; see gaussian_toeplitz.
_FLUSH_BELOW = math.sqrt(float(np.finfo(float).tiny))

# Columns per gemm in normal_band. At n = 1024, Gaussian widths 2 to 4 and
# one BLAS thread, normal_band took 0.2-0.6 ms with blocks of 32 or 64
# columns, 0.5-1.1 ms with 128 and 3.2-4.8 ms with 256.
_GRAM_BLOCK = 64

_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2


def _as_vector(v, length: int, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (length,):
        raise ValueError(f"{what}: expected a vector of length {length}, got shape {v.shape}")
    return v


class LinearOperator:
    """A rows-by-cols linear map with forward and adjoint actions.

    Subclasses implement ``_matvec`` and ``_rmatvec``, each returning a new
    array that the caller may overwrite. ``to_dense`` has a generic
    column-by-column fallback that structured subclasses override.
    """

    def __init__(self, rows: int, cols: int):
        rows = int(rows)
        cols = int(cols)
        if rows < 0 or cols < 1:
            raise ValueError(f"invalid operator shape ({rows}, {cols})")
        self.rows = rows
        self.cols = cols

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def matvec(self, v) -> np.ndarray:
        return self._matvec(_as_vector(v, self.cols, "matvec input"))

    def rmatvec(self, w) -> np.ndarray:
        return self._rmatvec(_as_vector(w, self.rows, "rmatvec input"))

    def to_dense(self) -> np.ndarray:
        out = np.empty((self.rows, self.cols))
        e = np.zeros(self.cols)
        for j in range(self.cols):
            e[j] = 1.0
            out[:, j] = self._matvec(e)
            e[j] = 0.0
        return out

    def _matvec(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _rmatvec(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class DenseOperator(LinearOperator):
    """Operator backed by an explicit matrix (copied and frozen)."""

    def __init__(self, a):
        a = np.array(a, dtype=float)
        if a.ndim != 2:
            raise ValueError("DenseOperator expects a 2-d array")
        a.setflags(write=False)
        super().__init__(a.shape[0], a.shape[1])
        self.a = a

    def _matvec(self, v):
        return self.a @ v

    def _rmatvec(self, w):
        return self.a.T @ w

    def to_dense(self):
        return self.a


class SymmetricToeplitzOperator(LinearOperator):
    """Symmetric Toeplitz operator defined by its first row.

    The apply is chosen once, when the operator is built, from the first
    row's nonzero band. With k the index of its last nonzero entry, each
    row of the matrix has at most 2k + 1 nonzeros. When that is at most
    n / 2, the matrix is applied as a block Toeplitz matrix with B x B
    blocks, B = max(k, 1): only three block diagonals are nonzero, and
    every block row holds the same three blocks T_-1, T_0 and T_+1. The
    apply (``_block_toeplitz_apply``) multiplies the zero-padded vector, as
    the rows of an nb x B matrix, by those three blocks in one level-3
    product, then adds the three results shifted by one block. It reads a
    3 x B x B array instead of the n x n matrix a dense apply streams, and
    the operator keeps only those blocks, built from the first 2B entries
    of the first row. Otherwise the dense matrix is built once and applied.
    The block apply sums each row in another order, so its results differ
    from ``to_dense() @ v`` by rounding only; the dense apply is
    ``to_dense() @ v`` exactly. ``to_dense`` returns the read-only dense
    matrix either way: the kept one on the dense route, and on the block
    route a new one at each call, which the operator does not keep.

    With one BLAS thread on a 2-core Intel Xeon, a block ``matvec`` took
    20-28 us against 398-430 us dense at n = 1024 and widths 2 to 4; at
    n = 128, which only widths up to about 1.2 take, it is slower than the
    dense one (the README and ``BENCH_block_apply.json`` have the table).
    """

    def __init__(self, first_row):
        first_row = np.array(first_row, dtype=float)
        if first_row.ndim != 1 or first_row.size < 1:
            raise ValueError("first_row must be a nonempty 1-d array")
        n = first_row.size
        super().__init__(n, n)
        first_row.setflags(write=False)
        self.first_row = first_row
        # 2k + 1 <= n/2 holds when every entry past index (n - 2) // 4 is zero.
        cut = (n - 2) // 4 + 1
        self._band_k = None
        if cut > 0 and not np.count_nonzero(first_row[cut:]):
            nonzero = np.flatnonzero(first_row)
            self._band_k = k = int(nonzero[-1]) if nonzero.size else 0
            b = max(k, 1)
            # n >= 4k + 2 >= 2b, and the entries past index k are zero, so
            # the top-left 2b x 2b corner holds T_0, T_+1 and T_-1.
            corner = toeplitz(first_row[: 2 * b])
            blocks = np.array([corner[b:, :b].T, corner[:b, :b].T, corner[:b, b:].T])
            blocks.setflags(write=False)
            # Shadows both dense methods on this instance only. The partial
            # holds no reference to the operator, so it makes no cycle.
            self._matvec = self._rmatvec = partial(_block_toeplitz_apply, b, -(-n // b),
                                                   blocks, n)
        else:
            self._dense = self._build_dense()

    def _build_dense(self) -> np.ndarray:
        dense = toeplitz(self.first_row)
        dense.setflags(write=False)
        return dense

    def _matvec(self, v):
        return self._dense @ v

    def _rmatvec(self, w):
        # symmetric: the adjoint action is the forward action
        return self._dense @ w

    def to_dense(self):
        return self._build_dense() if self._band_k is not None else self._dense


def _block_toeplitz_apply(b: int, nb: int, blocks: np.ndarray, n: int,
                          v: np.ndarray) -> np.ndarray:
    """T v for the n x n Toeplitz T whose B x B block rows are [T_-1 T_0 T_+1].

    ``blocks`` is the 3 x B x B array (T_-1^T, T_0^T, T_+1^T), ``b`` is B and
    ``nb`` = ceil(n / B). With V the nb x B rows of v padded with zeros,
    z[p] = V @ blocks[p] holds T_p v_j in its row j, and block i of T v is
    T_-1 v_(i-1) + T_0 v_i + T_+1 v_(i+1): z[1] plus z[0] shifted down and
    z[2] shifted up by one block, each a contiguous range of the flattened
    z[p]. Every call allocates its own arrays, so an operator can be
    applied from several threads at once.
    """
    padded = np.zeros(nb * b)
    padded[:n] = v
    z = (padded.reshape(nb, b) @ blocks).reshape(3, nb * b)
    y = z[1]
    y[b:] += z[0, :-b]
    y[:-b] += z[2, b:]
    return y[:n]


class FirstDifferenceOperator(LinearOperator):
    """The weighted (n-1) x n forward difference W D, W = diag(weights).

    D has -1 on the diagonal and +1 above; ``first_difference(n)`` is the
    plain D, with unit weights. ``add_gram`` adds the tridiagonal of
    lam^2 D^T W^2 D to a Gram matrix, for ``normal_band`` and the grid scan.
    """

    def __init__(self, weights):
        weights = np.array(weights, dtype=float)
        if weights.ndim != 1 or weights.size < 1:
            raise ValueError(f"weights must be a nonempty 1-d array, got shape {weights.shape}")
        super().__init__(weights.size, weights.size + 1)
        weights.setflags(write=False)
        self.weights = weights

    def _matvec(self, v):
        out = v[1:] - v[:-1]
        out *= self.weights
        return out

    def _rmatvec(self, w):
        w = self.weights * w
        out = np.empty(self.cols)
        out[0] = -w[0]
        np.subtract(w[:-1], w[1:], out=out[1:-1])
        out[-1] = w[-1]
        return out

    def to_dense(self):
        d = np.zeros((self.rows, self.cols))
        i = np.arange(self.rows)
        d[i, i] = -1.0
        d[i, i + 1] = 1.0
        return self.weights[:, None] * d

    def add_gram(self, lam: float, diagonal: np.ndarray, subdiagonal: np.ndarray) -> None:
        """Add the diagonal (length n) and subdiagonal (length n - 1) of
        lam^2 D^T W^2 D to ``diagonal`` and ``subdiagonal`` in place."""
        scaled = lam * self.weights
        sq = scaled * scaled
        diagonal[:-1] += sq
        diagonal[1:] += sq
        subdiagonal -= sq


class StackedOperator(LinearOperator):
    """The (m+q) x n vertical stack [A; lambda*L] of an m x n A over a q x n L.

    The forward action is the plain concatenation of the two block actions;
    the adjoint is A^T w_top + lambda * L^T w_bottom. With lambda = 0 the
    bottom block of the forward action is identically zero. The blocks are
    applied through their unchecked ``_matvec``/``_rmatvec``, since the
    stack's own public apply has already validated the input.
    """

    def __init__(self, top: LinearOperator, bottom: LinearOperator, lam: float):
        if top.cols != bottom.cols:
            raise ValueError(
                f"column mismatch: top has {top.cols} columns, bottom has {bottom.cols}"
            )
        lam = float(lam)
        if not lam >= 0.0:
            raise ValueError(f"lambda must be nonnegative, got {lam}")
        super().__init__(top.rows + bottom.rows, top.cols)
        self.top = top
        self.bottom = bottom
        self.lam = lam

    def _matvec(self, v):
        m = self.top.rows
        out = np.empty(self.rows)
        out[:m] = self.top._matvec(v)
        np.multiply(self.lam, self.bottom._matvec(v), out=out[m:])
        return out

    def _rmatvec(self, w):
        m = self.top.rows
        out = self.top._rmatvec(w[:m])
        bottom = self.bottom._rmatvec(w[m:])
        bottom *= self.lam
        out += bottom
        return out

    def to_dense(self):
        return np.vstack([self.top.to_dense(), self.lam * self.bottom.to_dense()])


def kept_diagonals(row: np.ndarray) -> int:
    """The smallest kd' >= 1 with 2 sum_{d > kd'} c_d <= u c_0 / 2, capped at
    n - 1.

    ``row`` is the first row of an n x n symmetric Toeplitz A, k is the index
    of its last nonzero (0 for a zero row), c_d = sum_t |a_t| |a_(t+d)| over
    -k <= t, t + d <= k is the autocorrelation of |a| (a_-t = a_t), and
    u = eps / 2. Every entry of diagonal d of A^2 = A^T A is a sum of some of
    the products in c_d, so |(A^2)[j + d, j]| <= c_d; and c_0 / 2 <=
    (A^2)[j, j] for every j. Before the cap the result is at most 2k, where
    c_d ends, or 1 when k = 0; an n x n matrix has no diagonal past n - 1.

    Keeping more diagonals than kd' drops a part of what kd' drops, so the
    bound holds for every band of at least kd' diagonals. For a Gaussian
    row kd' does not decrease as the width sigma grows: c_d / c_0 is about
    exp(-d^2 / (4 sigma^2)), which grows with sigma at every d. So the
    widest kernel's kd' covers every narrower one, which lets the grid scan
    (``deconv.objective_grid``) take one band per block of widths; the
    tests check this on the scan's lattice.
    """
    k = int(np.flatnonzero(row)[-1]) if row.any() else 0
    a = np.abs(row[: k + 1])
    full = np.concatenate([a[:0:-1], a])
    c = np.correlate(full, full, "full")[2 * k:]
    # dropped[d] = 2 sum_{e > d} c_e, for d = 0..2k.
    dropped = 2.0 * np.append(np.cumsum(c[:0:-1])[::-1], 0.0)
    return min(max(int(np.argmax(dropped <= _UNIT_ROUNDOFF * c[0] / 2)), 1), row.size - 1)


def normal_band(op: LinearOperator) -> np.ndarray | None:
    """The Gram matrix S^T S of S = [A; lam W D] in LAPACK lower band storage,
    to working precision, or None.

    Built exactly when A is a ``SymmetricToeplitzOperator`` applied by
    blocks, that is one whose first row has its last nonzero at index k with
    2k + 1 <= n / 2, and the bottom block is a ``FirstDifferenceOperator``
    (W = I for the plain D); for any other operator this returns None. The
    band keeps the diagonals d <= kd' of S^T S, with kd' <= kd = max(2k, 1)
    the smallest width >= 1 at which the bounds c_d of ``kept_diagonals``
    on the dropped diagonals of A^2 have
    2 sum_{d > kd'} c_d <= u c_0 / 2, u = eps / 2. Row d of the returned
    (kd' + 1) x n array holds diagonal d: ``band[d, j]`` is (S^T S)[j + d, j],
    and the last d entries of row d are zero. The dropped part P of S^T S
    is symmetric with ||P||_2 <= ||P||_inf <= u c_0 / 2, below u times every
    diagonal entry of A^2, whatever lam and W are, so dropping it stays
    within the rounding error of a Cholesky factorization of the band
    (Higham, Accuracy and Stability of Numerical Algorithms, Theorem 10.3).
    A Gaussian of width sigma has kd' about 12 sigma against kd about
    53 sigma (24 / 37 / 49 against 106 / 158 / 212 at widths 2 / 3 / 4).

    A^T A = A^2 is formed by gemm on blocks of columns, each restricted to
    the rows and columns its band touches and read from A's first row. So
    every kept entry is the same inner product of two columns of A as in
    the dense fl(A^T A), without terms that are exact zeros, summed in some
    order. Every full block that no end of A cuts reads the same Toeplitz
    window, so its product is taken once and copied; the gemm sees the
    same operands, so the copy is bit for bit the product it replaces.
    L^T L = D^T W^2 D is tridiagonal, and
    ``FirstDifferenceOperator.add_gram`` adds its (lam w_i)^2 terms directly.
    """
    if not (isinstance(op, StackedOperator) and isinstance(op.top, SymmetricToeplitzOperator)
            and op.top._band_k is not None and isinstance(op.bottom, FirstDifferenceOperator)):
        return None
    n = op.cols
    k = op.top._band_k
    row = op.top.first_row
    kept = kept_diagonals(row)
    # Below the diagonal, A^2 has nonzeros up to diagonal 2k; rows past
    # diagonal min(kept, 2k) of a block are not computed.
    reach = min(kept, 2 * k)
    # sym[n - 1 + d] = row[|d|] for |d| < n.
    sym = np.concatenate([row[:0:-1], row])
    step = sym.itemsize
    band = np.zeros((kept + 1, n), order="F")
    interior = None
    for j0 in range(0, n, _GRAM_BLOCK):
        j1 = min(j0 + _GRAM_BLOCK, n)
        w = j1 - j0
        # Columns j0..j1-1 of A are nonzero in rows i0..i1-1 only, and the
        # kept Gram rows they meet below the diagonal end before r1.
        i0, i1, r1 = max(j0 - k, 0), min(j1 + k, n), min(j1 + reach, n)
        # A full block that no end of A cuts reads the same window as every
        # other one, so the first such product serves them all.
        inner = w == _GRAM_BLOCK and j0 >= k and j1 + max(k, reach) <= n
        if inner and interior is not None:
            band[:, j0:j1] = interior
            continue
        # window = A[i0:i1, j0:r1], A[r, c] = sym[n - 1 + c - r], copied from
        # a strided view of sym into a C-ordered array for the gemm. Both
        # factors start at its first entry, so the last block, where r1 = j1,
        # is the same symmetric product (syrk) as one of A with itself.
        window = np.ndarray((i1 - i0, r1 - j0), buffer=sym, offset=(n - 1 - i0 + j0) * step,
                            strides=(-step, step)).copy()
        # block[r - j0, c - j0] = (A^T A)[r, c]; the rows past r1 stay zero.
        block = np.zeros((w + kept, w))
        np.matmul(window.T, window[:, :w], out=block[: r1 - j0])
        # Band row d of the block is block[d + c, c], c = 0..w-1.
        band[:, j0:j1] = np.ndarray((kept + 1, w), buffer=block, strides=(w * step, (w + 1) * step))
        if inner:
            interior = band[:, j0:j1]
    op.bottom.add_gram(op.lam, band[0], band[1, :-1])
    return band


def normal_band_error(op: StackedOperator, band: np.ndarray) -> tuple[float, float, float]:
    """The rounding terms (g, M, ||P||_2) of ``band = normal_band(op)``: G =
    S^T S + E - P with |E| <= g |S|^T |S| on the entries G keeps, E = 0 off
    them, P the dropped part, and M >= || |S|^T |S| ||_inf (Higham, Accuracy
    and Stability of Numerical Algorithms, sec. 3.5 and Lemma 6.6). With A's
    first row a_t (a_-t = a_t) up to its last nonzero index k, l1 = sum_t
    |a_t| and c_0 = sum_t a_t^2 over -k <= t <= k: a kept entry sums at most
    2k + 1 products of two entries of A, each rounded once, and at most two
    (lam w_i)^2, each rounded three times, so g = gamma_{2k+5}, with gamma_j
    = j u / (1 - j u), u = eps / 2. |A|^T |A| has row sums at most l1^2, and
    |L|^T |L|, L = lam W D, row sums 2 (L^T L)_jj <= 2 G_jj / (1 - g), so M =
    l1^2 + 2 max_j G_jj / (1 - g). ||P||_2 <= u c_0 / 2, as ``normal_band`` trims.
    """
    k = op.top._band_k
    a0 = abs(float(op.top.first_row[0]))
    tail = np.abs(op.top.first_row[1 : k + 1])
    l1 = a0 + 2.0 * float(tail.sum())
    ku = (2 * k + 5) * _UNIT_ROUNDOFF
    g = ku / (1.0 - ku)
    norm_bound = l1 * l1 + 2.0 * float(band[0].max()) / (1.0 - g)
    return g, norm_bound, _UNIT_ROUNDOFF / 2 * (a0 * a0 + 2.0 * float(tail @ tail))


def stack(top: LinearOperator, bottom: LinearOperator, lam: float) -> StackedOperator:
    """Stack a forward operator on top of a regularizer scaled by ``lam``."""
    return StackedOperator(top, bottom, lam)


def first_difference(n: int) -> FirstDifferenceOperator:
    """The (n-1) x n discrete first-derivative operator D (unit weights)."""
    if n < 2:
        raise ValueError(f"first difference needs n >= 2, got n={n}")
    return FirstDifferenceOperator(np.ones(n - 1))


def is_kernel_width(sigma: float) -> bool:
    """Whether sigma**3 is a positive finite double, that is 1.7e-108 <
    sigma < 5.6e102 or about: the widths the Gaussian kernels accept. The
    kernel derivative divides by sigma**3 and the kernel by 2 sigma**2: a
    cube that underflows to zero makes NaN rows, and one that overflows
    raises ``OverflowError``."""
    try:
        cube = float(sigma) ** 3
    except OverflowError:
        return False
    return 0.0 < cube < math.inf


def check_kernel_width(sigma: float) -> None:
    """Raise ``ValueError`` unless ``is_kernel_width(sigma)``."""
    if not is_kernel_width(sigma):
        raise ValueError(f"kernel width must be positive with a nonzero finite cube "
                         f"(about 1.7e-108 to 5.6e102), got {sigma}")


def _validate_kernel_args(sigma: float, n: int) -> None:
    check_kernel_width(sigma)
    if n < 2:
        raise ValueError(f"kernel needs n >= 2, got n={n}")


def _gaussian_generator(sigma: float, n: int) -> tuple[np.ndarray, float]:
    offsets = np.arange(n, dtype=float)
    g = np.exp(-(offsets**2) / (2.0 * sigma**2))
    return g, float(g.sum())


def _flush_subnormals(row: np.ndarray) -> np.ndarray:
    """Set the entries of magnitude below sqrt(tiny) to zero."""
    row[np.abs(row) < _FLUSH_BELOW] = 0.0
    return row


def gaussian_toeplitz(sigma: float, n: int) -> SymmetricToeplitzOperator:
    """Normalized Gaussian blur as an n x n symmetric Toeplitz operator.

    The first row is c * exp(-(j-1)^2 / (2 sigma^2)) for j = 1..n, with c the
    reciprocal of the unnormalized row sum, so the first row sums to one.

    The Gaussian tail is truncated at the square root of the smallest normal
    double: entries of magnitude below sqrt(``np.finfo(float).tiny``) (about
    1.49e-154) are set to zero, and every other entry is the formula's value
    bit for bit. The dropped entries lie far below the rounding error of any
    product with a row that sums to one. Kept, they make subnormal numbers,
    on which x86 processors take a slow path: the product of two of them in
    a Gram matrix A^T A, and the product of one with an entry of v below one
    in an apply. With the cut at sqrt(tiny), the product of two kept entries
    is always normal, and so is that of a kept entry with any vector entry
    of at least sqrt(tiny).

    Parameters
    ----------
    sigma : positive kernel width.
    n : signal length, at least 2.
    """
    return SymmetricToeplitzOperator(gaussian_row(sigma, n))


def gaussian_row(sigma: float, n: int) -> np.ndarray:
    """The first row of ``gaussian_toeplitz(sigma, n)``, as a new array."""
    _validate_kernel_args(sigma, n)
    g, total = _gaussian_generator(sigma, n)
    return _flush_subnormals(g / total)


def gaussian_toeplitz_derivative(sigma: float, n: int) -> SymmetricToeplitzOperator:
    """Entrywise derivative of ``gaussian_toeplitz`` with respect to sigma.

    Differentiates c(sigma) * exp(-(j-1)^2 / (2 sigma^2)) analytically,
    including the sigma-dependence of the normalizer c, so the derivative
    first row sums to zero. The derivative is taken of the untruncated
    Gaussian, and its own entries below sqrt(tiny) are then set to zero, as
    in ``gaussian_toeplitz``.
    """
    _validate_kernel_args(sigma, n)
    offsets = np.arange(n, dtype=float)
    g, total = _gaussian_generator(sigma, n)
    dg = g * offsets**2 / sigma**3
    dtotal = float(dg.sum())
    return SymmetricToeplitzOperator(_flush_subnormals(dg / total - g * (dtotal / total**2)))

