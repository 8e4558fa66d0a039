"""Linear operators with adjoints, covariance weights and the Cholesky
factor and solve behind every Hermitian positive definite system.

The scalar field is complex throughout; real problems are the special case
with zero imaginary parts. All adjoints follow the inner product
``<x, y> = sum conj(x_i) * y_i``, which fixes them unambiguously.
"""

from functools import cached_property, lru_cache

import numpy as np
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
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0  # of IEEE double precision


@lru_cache(maxsize=None)
def _lapack(name, *dtypes):
    """The LAPACK routine ``name`` for the common type of ``dtypes``, looked up once.

    The prefix is the one scipy picks from arrays of these dtypes, so a real
    Cholesky factor with a complex right-hand side takes ``zpotrs``.
    """
    return get_lapack_funcs((name,), [np.empty(0, dt) for dt in dtypes])[0]


def _integer(value, what):
    """``value`` as an int, where ``int()`` alone would run 20.5 as 20 and True as 1.

    A boolean (numpy's too) or a float with a fractional part (NaN and
    infinities included) raises :class:`RejectedInputError`; 20.0 is 20.
    """
    if isinstance(value, (bool, np.bool_)) or (
        isinstance(value, (float, np.floating)) and not float(value).is_integer()
    ):
        raise RejectedInputError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _read_only(a):
    """``a``, marked read-only so numpy refuses writes to it; returns ``a``.

    The flag does not stop LAPACK: an ``overwrite_a`` call may still write
    into an array it can use in place, so such calls get a copy.
    """
    a.setflags(write=False)
    return a


class TridiagonalOperator:
    """Square operator stored by its three diagonals.

    ``lower[k] = A[k + 1, k]``, ``diag[k] = A[k, k]`` and
    ``upper[k] = A[k, k + 1]``. Products cost O(n); the operator is factored
    once with LAPACK ``gttrf`` (partial pivoting), and every later solve,
    forward or adjoint, and the condition estimate reuse that factor.

    With ``blocks = b`` the operator is a stack: ``b`` diagonal blocks of
    equal order whose couplings (the off-diagonal entries between two
    blocks) are exact zeros. ``gttrf`` then never interchanges rows across a
    block boundary, so each block's slice of the factor, and of every solve,
    is bit for bit the block's own.
    """

    def __init__(self, lower, diag, upper, blocks=1):
        diag = np.asarray(diag, dtype=complex)
        lower = np.asarray(lower, dtype=complex)
        upper = np.asarray(upper, dtype=complex)
        n = diag.size
        if diag.ndim != 1 or lower.shape != (n - 1,) or upper.shape != (n - 1,):
            raise DimensionMismatchError(
                f"tridiagonal operator needs diagonals of lengths n - 1, n, n - 1; "
                f"got {lower.shape}, {diag.shape}, {upper.shape}"
            )
        if not (blocks >= 1 and n % blocks == 0):
            raise DimensionMismatchError(f"cannot split order {n} into {blocks} blocks")
        nb = n // blocks
        if blocks > 1 and (lower[nb - 1::nb].any() or upper[nb - 1::nb].any()):
            raise RejectedInputError("couplings between blocks must be exact zeros")
        self.range_dim = n
        self.lower = lower
        self.diag = diag
        self.upper = upper
        self.blocks = blocks
        self._factor = None

    def matvec(self, x):
        x = np.asarray(x)
        y = self.diag * x
        y[:-1] += self.upper * x[1:]
        y[1:] += self.lower * x[:-1]
        return y

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
            block, row = divmod(info - 1, self.range_dim // self.blocks)
            where = f" of block {block}" if self.blocks > 1 else ""
            raise IllConditionedError(
                f"tridiagonal operator is singular: zero pivot at row {row + 1}{where}"
            )
        x, _ = zgttrs(*factor, b, trans="C" if adjoint else "N")
        return x

    def condition(self, block):
        """1-norm condition number of block ``block`` of the stack, estimated in O(n).

        It is read from that block's slice of the cached factor (its row
        interchanges shifted to the block's own rows), which is the block's
        own factor; block 0 of a one-block operator is the whole factor. The
        norm of the block is exact (largest column sum of its three
        diagonals); the norm of its inverse is LAPACK's Hager-Higham
        estimate (``gtcon``), which can only fall short of the true value. A
        zero pivot gives ``inf``.
        """
        dl, d, du, du2, ipiv, _ = self._lu()
        nb = self.range_dim // self.blocks
        s = block * nb
        lower, upper = self.lower[s:s + nb - 1], self.upper[s:s + nb - 1]
        dl, d, du = dl[s:s + nb - 1], d[s:s + nb], du[s:s + nb - 1]
        du2, ipiv = du2[s:s + nb - 2], ipiv[s:s + nb] - s
        col = np.abs(self.diag[s:s + nb])
        col[1:] += np.abs(upper)
        col[:-1] += np.abs(lower)
        rcond, _ = zgtcon(dl, d, du, du2, ipiv, float(col.max()))
        return np.inf if rcond == 0 else 1.0 / rcond


class SamplingOperator:
    """Selection of state entries, one unit entry per row.

    Rows pick pairwise-distinct state indices, so ``P P^T = I`` on the
    receiver space and the adjoint is a scatter. Each index is taken by
    :func:`_integer`, so 3.7 or True is rejected rather than read as row 3
    or 1. The indices are kept as a read-only copy, so the caller's array may
    change without changing ``P``.
    """

    def __init__(self, receiver_indices, state_dim):
        # object dtype keeps each entry as given: [True, 5] stays a bool and an int
        entries = np.array(receiver_indices, dtype=object)
        if entries.ndim != 1:
            raise RejectedInputError(f"receiver indices must be one sequence, got {entries.shape}")
        idx = _read_only(np.array([_integer(i, "a receiver") for i in entries], dtype=int))
        state_dim = _integer(state_dim, "the state dimension")
        if idx.size == 0:
            raise RejectedInputError("sampling operator needs at least one index")
        if idx.min() < 0 or idx.max() >= state_dim:
            raise RejectedInputError(
                f"receiver indices must lie in [0, {state_dim}); got {idx}"
            )
        if len(np.unique(idx)) != len(idx):
            raise RejectedInputError("receiver indices must be distinct")
        self.receiver_indices = idx
        self.state_dim = state_dim

    @property
    def n_receivers(self):
        return len(self.receiver_indices)

    def matvec(self, x):
        x = np.asarray(x)
        return x[self.receiver_indices]

    def to_dense(self):
        P = np.zeros((self.n_receivers, self.state_dim))
        P[np.arange(self.n_receivers), self.receiver_indices] = 1.0
        return P

    @cached_property
    def dense_adjoint(self):
        """``P^H = P^T`` as a read-only ``state_dim x n_receivers`` array, built once.

        It is complex and in Fortran order, the layout LAPACK solves take a
        right-hand side in, so the adjoint solves against it convert nothing.
        """
        return _read_only(np.asfortranarray(self.to_dense().T, dtype=complex))


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
    unless ``||M - M^H|| <= _HERMITIAN_RTOL * ||M||``.
    :meth:`CovarianceSpec.dense` runs this on the matrix a caller hands it;
    the internal callers build theirs Hermitian bit for bit and skip it.

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


def _spd_solve(M, b, what, floor=None):
    """Solve ``M_i x_i = b_i`` for each Hermitian ``M_i`` of a stack that the caller owns and drops.

    The package's one dense Hermitian positive definite solve, of the blocks
    of ``K + sigma_m``. ``M`` has shape ``(s, k, k)`` and ``b`` holds one
    right-hand side (or one per column) per block; the result is the list of
    the ``s`` solutions. The internal callers build every block Hermitian
    bit for bit and so skip :func:`_check_hermitian`.

    The blocks' 1-norms (largest column sums) are taken in one pass, before
    :func:`_spd_factor` factors each block, in place when it can, and
    :func:`_potrs` solves it. Each block's ``cond_1`` is checked against
    1e14 in two steps, as :func:`~xfwi.wavemodel.assemble_A` does. ``floor``
    is None, or a pair ``(low, slope)`` such that every block's smallest
    eigenvalue is at least ``lambda_i = low - slope ||M_i||_1``. A positive
    ``lambda_i`` gives the free bound
    ``cond_1 = ||M_i||_1 ||M_i^{-1}||_1 <= sqrt(k) ||M_i||_1 / lambda_i``,
    since ``||M_i^{-1}||_1 <= sqrt(k) ||M_i^{-1}||_2``. Only a block whose
    bound is not below 1e14 (or does not exist) gets the ``pocon`` estimate,
    and an estimate not below 1e14 raises :class:`IllConditionedError`. The
    estimate never exceeds ``cond_1``, which never exceeds the bound, so the
    bound accepts nothing the estimate would reject.
    """
    b = np.asarray(b)
    s, k = M.shape[:2]
    if b.shape[:2] != (s, k):
        raise DimensionMismatchError(f"rhs of shape {b.shape} for {s} matrices of order {k}")
    norms = np.abs(M).sum(axis=1).max(axis=1).tolist()
    # the bound is below 1e14 for a norm below this; none is for a NaN norm
    limit = -np.inf if floor is None else floor[0] / (floor[1] + k**0.5 / _COND_LIMIT)
    x = []
    for i, norm_1 in enumerate(norms):
        factor = _spd_factor(M[i], what)
        if not norm_1 < limit:
            check_condition(spd_condition(factor, norm_1), what)
        x.append(_potrs(factor, b[i]))
    return x


class CovarianceSpec:
    """Symmetric positive definite weight, applied to vectors and stacks.

    Two kinds: diagonal (a scaled identity ``sigma2 * I`` is the diagonal of
    equal entries) and dense Hermitian positive definite. A dense matrix is
    checked finite and Hermitian and symmetrised, and a Cholesky
    factorization of a copy (:func:`_spd_factor`) rejects it as not positive
    definite when it fails; the factor is not kept, since the weight is only
    applied or added to a matrix that :func:`_spd_solve` factors. The
    diagonal and the matrix are read-only arrays the weight owns, never the
    caller's.
    """

    DIAGONAL = "diagonal"
    DENSE = "dense-spd"

    def __init__(self, kind, dim, diag=None, matrix=None):
        self.kind = kind
        self.dim = int(dim)
        self._diag = diag
        self._matrix = matrix

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
        _spd_factor(np.array(M, order="F"), "dense covariance")  # the positivity test
        return cls(cls.DENSE, M.shape[0], matrix=M)

    def _check_dim(self, x):
        # a vector, or a matrix of columns (or a stack of them: leading axes)
        x = np.asarray(x)
        if x.shape[0 if x.ndim == 1 else -2] != self.dim:
            raise DimensionMismatchError(
                f"covariance dim is {self.dim}, got array of shape {x.shape}"
            )
        return x

    def apply(self, x):
        """``sigma x`` for a vector, a matrix of columns or a stack of such matrices."""
        x = self._check_dim(x)
        if self.kind == self.DIAGONAL:
            return self._diag * x if x.ndim == 1 else self._diag[:, None] * x
        return self._matrix @ x

    def to_dense(self):
        return np.diag(self._diag) if self.kind == self.DIAGONAL else self._matrix
