"""Matrix-free linear operators with adjoints, covariance weights and the
dense Hermitian positive definite solve.

The scalar field is complex throughout; real problems are the special case
with zero imaginary parts. All adjoints follow the inner product
``<x, y> = sum conj(x_i) * y_i``, which fixes them unambiguously.
"""

from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import lu_solve
from scipy.linalg.lapack import get_lapack_funcs, zgtcon, zgttrf, zgttrs

from .errors import (
    DimensionMismatchError,
    IllConditionedError,
    NotPositiveDefiniteError,
    RejectedInputError,
)

_HERMITIAN_RTOL = 1e-12
_HERMITIAN_BLOCK = 128  # tile side of the Hermitian check
_COND_LIMIT = 1e14


@lru_cache(maxsize=None)
def _lapack(name, *dtypes):
    """The LAPACK routine ``name`` for the common type of ``dtypes``, looked up once.

    The prefix is the one scipy picks from arrays of these dtypes, so a real
    Cholesky factor with a complex right-hand side takes ``zpotrs``.
    """
    return get_lapack_funcs((name,), [np.empty(0, dt) for dt in dtypes])[0]


def _read_only(a):
    """``a``, marked read-only so numpy refuses writes to it; returns ``a``.

    The flag does not stop LAPACK: an ``overwrite_a`` call may still write
    into an array it can use in place, so such calls get a copy.
    """
    a.setflags(write=False)
    return a


class LinearOperator:
    """Base class for matrix-free operators.

    Subclasses implement ``matvec`` (forward) and ``rmatvec`` (adjoint).
    ``shape`` is ``(range_dim, domain_dim)``.
    """

    def __init__(self, range_dim, domain_dim):
        self.range_dim = int(range_dim)
        self.domain_dim = int(domain_dim)

    @property
    def shape(self):
        return (self.range_dim, self.domain_dim)

    def matvec(self, x):
        raise NotImplementedError

    def rmatvec(self, y):
        raise NotImplementedError

    def to_dense(self):
        """Materialize the operator columnwise. Intended for small problems."""
        out = np.empty((self.range_dim, self.domain_dim), dtype=complex)
        e = np.zeros(self.domain_dim, dtype=complex)
        for k in range(self.domain_dim):
            e[k] = 1.0
            out[:, k] = self.matvec(e)
            e[k] = 0.0
        return out

    def __matmul__(self, x):
        return self.matvec(x)


class DenseOperator(LinearOperator):
    """Operator backed by an explicit 2-D array."""

    def __init__(self, matrix):
        matrix = np.atleast_2d(np.asarray(matrix))
        if matrix.ndim != 2:
            raise RejectedInputError("dense operator needs a 2-D array")
        super().__init__(matrix.shape[0], matrix.shape[1])
        self.matrix = matrix
        self._adjoint = None
        self._factor = None

    def matvec(self, x):
        return self.matrix @ x

    def rmatvec(self, y):
        if self._adjoint is None:
            self._adjoint = self.matrix.conj().T
        return self._adjoint @ y

    def to_dense(self):
        return self.matrix

    def solve(self, b, adjoint=False):
        """Solve ``A x = b`` (``A^H x = b`` with ``adjoint``) for square ``A``.

        The LU of the matrix (LAPACK ``getrf``) is computed on the first call
        and cached; an exactly zero pivot raises :class:`IllConditionedError`.
        ``b`` may hold one right-hand side per column.
        """
        if self._factor is None:
            lu, piv, info = _lapack("getrf", self.matrix.dtype)(self.matrix)
            if info > 0:
                raise IllConditionedError(
                    f"operator is singular: zero pivot at row {info} of its LU"
                )
            self._factor = (lu, piv)
        return lu_solve(self._factor, b, trans=2 if adjoint else 0, check_finite=False)


class TridiagonalOperator(LinearOperator):
    """Square operator stored by its three diagonals.

    ``lower[k] = A[k + 1, k]``, ``diag[k] = A[k, k]`` and
    ``upper[k] = A[k, k + 1]``. Products cost O(n); the operator is factored
    once with LAPACK ``gttrf`` (partial pivoting), and every later solve,
    forward or adjoint, and the condition estimate reuse that factor.
    """

    def __init__(self, lower, diag, upper):
        diag = np.asarray(diag, dtype=complex)
        lower = np.asarray(lower, dtype=complex)
        upper = np.asarray(upper, dtype=complex)
        n = diag.size
        if diag.ndim != 1 or lower.shape != (n - 1,) or upper.shape != (n - 1,):
            raise DimensionMismatchError(
                f"tridiagonal operator needs diagonals of lengths n - 1, n, n - 1; "
                f"got {lower.shape}, {diag.shape}, {upper.shape}"
            )
        super().__init__(n, n)
        self.lower = lower
        self.diag = diag
        self.upper = upper
        self._factor = None

    def matvec(self, x):
        x = np.asarray(x)
        y = self.diag * x
        y[:-1] += self.upper * x[1:]
        y[1:] += self.lower * x[:-1]
        return y

    def rmatvec(self, y):
        y = np.asarray(y)
        x = self.diag.conj() * y
        x[:-1] += self.lower.conj() * y[1:]
        x[1:] += self.upper.conj() * y[:-1]
        return x

    def to_dense(self):
        return np.diag(self.diag) + np.diag(self.lower, -1) + np.diag(self.upper, 1)

    def _lu(self):
        """The cached ``gttrf`` factor ``(dl, d, du, du2, ipiv, info)``.

        LAPACK completes the factorization even when a pivot is exactly
        zero (``info > 0``), so the factor is kept and :meth:`solve` raises.
        """
        if self._factor is None:
            self._factor = zgttrf(self.lower, self.diag, self.upper)
        return self._factor

    def solve(self, b, adjoint=False):
        *factor, info = self._lu()
        if info > 0:
            raise IllConditionedError(
                f"tridiagonal operator is singular: zero pivot at row {info}"
            )
        x, _ = zgttrs(*factor, b, trans="C" if adjoint else "N")
        return x

    def condition(self):
        """1-norm condition number, estimated in O(n) from the cached factor.

        The norm of ``A`` is exact (largest column sum of the three
        diagonals); the norm of ``A^{-1}`` is LAPACK's Hager-Higham estimate
        (``gtcon``), which can only fall short of the true value. A zero
        pivot gives ``inf``.
        """
        col = np.abs(self.diag)
        col[1:] += np.abs(self.upper)
        col[:-1] += np.abs(self.lower)
        *factor, _ = self._lu()
        rcond, _ = zgtcon(*factor, float(col.max()))
        return np.inf if rcond == 0 else 1.0 / rcond


class FunctionOperator(LinearOperator):
    """Operator defined by a pair of callables."""

    def __init__(self, range_dim, domain_dim, matvec, rmatvec):
        super().__init__(range_dim, domain_dim)
        self._matvec = matvec
        self._rmatvec = rmatvec

    def matvec(self, x):
        return self._matvec(x)

    def rmatvec(self, y):
        return self._rmatvec(y)


class SamplingOperator(LinearOperator):
    """Selection of state entries, one unit entry per row.

    Rows pick pairwise-distinct state indices, so ``P P^T = I`` on the
    receiver space and the adjoint is a scatter. The indices are kept as a
    read-only copy, so the caller's array may change without changing ``P``.
    """

    def __init__(self, receiver_indices, state_dim):
        idx = _read_only(np.array(receiver_indices, dtype=int).ravel())
        state_dim = int(state_dim)
        if idx.size == 0:
            raise RejectedInputError("sampling operator needs at least one index")
        if idx.min() < 0 or idx.max() >= state_dim:
            raise RejectedInputError(
                f"receiver indices must lie in [0, {state_dim}); got {idx}"
            )
        if len(np.unique(idx)) != len(idx):
            raise RejectedInputError("receiver indices must be distinct")
        super().__init__(len(idx), state_dim)
        self.receiver_indices = idx
        self.state_dim = state_dim

    @property
    def n_receivers(self):
        return len(self.receiver_indices)

    def matvec(self, x):
        x = np.asarray(x)
        return x[self.receiver_indices]

    def rmatvec(self, y):
        y = np.asarray(y)
        out = np.zeros(self.state_dim, dtype=np.result_type(y.dtype, float))
        out[self.receiver_indices] = y
        return out

    def to_dense(self):
        P = np.zeros((self.n_receivers, self.state_dim))
        P[np.arange(self.n_receivers), self.receiver_indices] = 1.0
        return P

    @cached_property
    def dense_adjoint(self):
        """``P^H = P^T`` as a read-only ``state_dim x n_receivers`` array, built once."""
        return _read_only(self.to_dense().T)


def check_condition(cond, what):
    """Reject a condition number that is not below ``_COND_LIMIT``.

    Raises :class:`IllConditionedError` carrying ``cond``; NaN is rejected.
    """
    if not cond < _COND_LIMIT:
        raise IllConditionedError(
            f"{what} condition {cond:.3e} exceeds {_COND_LIMIT:.0e}", condition=cond
        )


def _check_hermitian(M, what):
    """``M`` as a square array, checked finite and Hermitian.

    Rejects a non-square ``M``, and raises :class:`NotPositiveDefiniteError`
    unless ``||M - M^H|| <= _HERMITIAN_RTOL * ||M||``. The public entry
    points run this on the matrices callers hand them; the internal callers
    build theirs Hermitian bit for bit and skip it.

    The squared Frobenius norm of ``M - M^H`` is summed over the square
    tiles of its lower block triangle, each off-diagonal tile counted twice
    for its mirror image, so no full-size strided transpose is formed and
    the tiles stay in cache. The test is written so that NaN passes nothing:
    a NaN entry, or ``inf - inf`` in ``M - M^H``, makes it NaN and rejects.
    An infinite entry makes ``||M||`` infinite, which is rejected too.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise RejectedInputError(f"{what} must be square")
    asym2 = 0.0
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, rejected below
        for i in range(0, M.shape[0], _HERMITIAN_BLOCK):
            rows = slice(i, i + _HERMITIAN_BLOCK)
            for j in range(0, i + 1, _HERMITIAN_BLOCK):
                cols = slice(j, j + _HERMITIAN_BLOCK)
                tile = np.linalg.norm(M[rows, cols] - M[cols, rows].conj().T) ** 2
                asym2 += tile if i == j else 2.0 * tile
    if not np.sqrt(asym2) <= _HERMITIAN_RTOL * (np.linalg.norm(M) + 1e-300) < np.inf:
        raise NotPositiveDefiniteError(
            f"{what} is not finite and Hermitian to {_HERMITIAN_RTOL:.0e}"
        )
    return M


def _spd_factor(M, what):
    """Lower Cholesky factor of a Hermitian positive definite ``M`` (LAPACK ``potrf``).

    Reads only the lower triangle, so ``M`` must be Hermitian; nothing here
    checks that. The factor overwrites ``M`` whenever LAPACK can work on it
    directly (a Fortran-ordered array of a LAPACK type), so callers pass
    arrays they own; the strict upper triangle of the result is left as it
    was. Raises :class:`NotPositiveDefiniteError` when the factorization
    fails, which is the positivity test: a non-positive pivot stops it. A
    NaN pivot may not, so callers that cannot rule out a non-finite ``M``
    take :func:`spd_condition`, which then rejects it. Every Hermitian
    factorization in the package goes through here.
    """
    factor, info = _lapack("potrf", M.dtype)(M, lower=True, clean=False, overwrite_a=True)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"Cholesky factorization of the {what} failed: {info}-th leading "
            f"minor of the array is not positive definite"
        )
    return factor


def _potrs(factor, b):
    """``M^{-1} b`` from the lower Cholesky factor of ``M`` (LAPACK ``potrs``).

    The routine is taken for the common type of ``factor`` and ``b``, so a
    real ``M`` solves a complex ``b``. ``b`` may hold one right-hand side per
    column and is never overwritten. Every Hermitian solve in the package
    goes through here.
    """
    b = np.asarray(b)
    x, _ = _lapack("potrs", factor.dtype, b.dtype)(factor, b, lower=True)
    return x


def spd_condition(factor, norm_1):
    """``cond_1`` from the exact ``norm_1`` and the ``pocon`` estimate from ``factor``.

    ``factor`` is the lower Cholesky factor from :func:`_spd_factor`, which
    ``pocon`` reads in O(n^2). A NaN or infinite ``norm_1`` (a non-finite
    matrix) gives ``inf`` or NaN, both of which :func:`check_condition`
    rejects.
    """
    rcond, _ = _lapack("pocon", factor.dtype)(factor, norm_1, uplo="L")
    return np.inf if rcond == 0 else 1.0 / rcond


def _spd_solve(M, b, what):
    """Solve ``M x = b`` for a Hermitian ``M`` that the caller owns and drops.

    The shared solve behind :func:`dense_spd_solve` and the internal
    callers, which build ``M`` Hermitian bit for bit and so skip
    :func:`_check_hermitian`. The 1-norm (largest column sum) is taken
    before :func:`_spd_factor` factors ``M``, in place when it can; a
    ``pocon`` estimate of ``cond_1`` of 1e14 or more raises
    :class:`IllConditionedError`; :func:`_potrs` then solves.
    """
    norm_1 = np.abs(M).sum(axis=0).max()
    factor = _spd_factor(M, what)
    check_condition(spd_condition(factor, norm_1), what)
    b = np.asarray(b)
    n = factor.shape[0]
    if b.shape[0] != n:
        raise DimensionMismatchError(
            f"rhs leading dim {b.shape[0]} does not match matrix dim {n}"
        )
    return _potrs(factor, b)


def dense_spd_solve(M, b):
    """Cholesky solve of a Hermitian positive definite system.

    Accepts vector or matrix right-hand sides. ``M`` is checked square,
    finite and Hermitian, then a copy of it is factored, so the caller's
    array is never modified. The residual satisfies
    ``||M x - b|| / ||b|| <= O(eps) * cond(M)`` by backward stability of
    the factorization; a ``pocon`` estimate of ``cond_1`` of 1e14 or more
    raises :class:`IllConditionedError`.
    """
    M = _check_hermitian(M, "matrix")
    return _spd_solve(np.array(M, order="F"), b, "matrix")


def dot_test(op, trials=10, seed=0):
    """Maximum relative adjoint mismatch over random complex probes.

    For each trial draws x, y and evaluates
    ``|<Ax, y> - <x, A^H y>| / (||Ax|| ||y|| + ||x|| ||A^H y||)``.
    Deterministic for a given seed.
    """
    if trials < 1:
        raise RejectedInputError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(op.domain_dim) + 1j * rng.standard_normal(op.domain_dim)
        y = rng.standard_normal(op.range_dim) + 1j * rng.standard_normal(op.range_dim)
        ax = np.asarray(op.matvec(x)).ravel()
        aty = np.asarray(op.rmatvec(y)).ravel()
        lhs = np.vdot(ax, y.ravel())
        rhs = np.vdot(x, aty)
        scale = (
            np.linalg.norm(ax) * np.linalg.norm(y)
            + np.linalg.norm(x) * np.linalg.norm(aty)
            + 1e-300
        )
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


class CovarianceSpec:
    """Symmetric positive definite weight with apply and solve.

    Two kinds: diagonal (a scaled identity ``sigma2 * I`` is the diagonal of
    equal entries) and dense Hermitian positive definite. A dense matrix is
    checked finite and Hermitian, symmetrised, and Cholesky-factored once on
    construction; a failed factorization rejects it as not positive
    definite. ``cond`` is the ``pocon`` estimate of ``cond_1`` from that
    factor (``cond_1`` is at least ``cond_2`` for a Hermitian matrix),
    checked against the 1e14 limit on every solve; the factor is cached for
    the repeated solves of objective scans. The diagonal, the matrix and its
    factor are read-only arrays the weight owns, never the caller's.
    """

    DIAGONAL = "diagonal"
    DENSE = "dense-spd"

    def __init__(self, kind, dim, diag=None, matrix=None, factor=None, cond=None):
        self.kind = kind
        self.dim = int(dim)
        self._diag = diag
        self._matrix = matrix
        self._factor = factor
        self.cond = cond

    @classmethod
    def scaled_identity(cls, sigma2, dim):
        return cls.diagonal(np.full(int(dim), float(sigma2)))

    @classmethod
    def diagonal(cls, values):
        v = _read_only(np.array(values, dtype=float))
        if v.ndim != 1 or not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise NotPositiveDefiniteError("diagonal entries must be finite and > 0")
        return cls(cls.DIAGONAL, len(v), diag=v)

    @classmethod
    def dense(cls, matrix):
        M = _check_hermitian(matrix, "dense covariance")
        M = _read_only(0.5 * (M + M.conj().T))
        factor = _read_only(_spd_factor(np.array(M, order="F"), "dense covariance"))
        return cls(cls.DENSE, M.shape[0], matrix=M, factor=factor,
                   cond=float(spd_condition(factor, np.linalg.norm(M, 1))))

    def _check_dim(self, x):
        x = np.asarray(x)
        if x.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"covariance dim is {self.dim}, got array of shape {x.shape}"
            )
        return x

    def apply(self, x):
        x = self._check_dim(x)
        if self.kind == self.DIAGONAL:
            return self._diag * x if x.ndim == 1 else self._diag[:, None] * x
        return self._matrix @ x

    def solve(self, x):
        x = self._check_dim(x)
        if self.kind == self.DIAGONAL:
            return x / self._diag if x.ndim == 1 else x / self._diag[:, None]
        check_condition(self.cond, "covariance")
        return _potrs(self._factor, x)

    def to_dense(self):
        return np.diag(self._diag) if self.kind == self.DIAGONAL else self._matrix


def weighted_norm_sq(cov, r):
    """Quadratic form ``r^H cov^{-1} r`` as a nonnegative real scalar.

    The imaginary part of the form is discarded after asserting it is
    negligible relative to the real part.
    """
    r = np.asarray(r)
    if r.ndim != 1 or len(r) != cov.dim:
        raise DimensionMismatchError(
            f"covariance dim is {cov.dim}, got vector of shape {r.shape}"
        )
    w = cov.solve(r)
    z = np.vdot(r, w)
    if abs(z.imag) > 1e-10 * abs(z.real) + 1e-300:
        raise IllConditionedError(
            f"weighted norm has non-negligible imaginary part {z.imag:.3e} "
            f"(real part {z.real:.3e})"
        )
    val = float(z.real)
    if val < 0.0:
        floor = 1e-12 * float(np.linalg.norm(r) * np.linalg.norm(w)) + 1e-300
        if -val > floor:
            raise NotPositiveDefiniteError(
                f"quadratic form is negative ({val:.3e}); weight is not SPD"
            )
        val = 0.0
    return val
