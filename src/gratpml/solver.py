"""Sparse direct solution of the reduced system with health reporting.

The element matrices are complex symmetric, and the quasi-periodic fold
keeps the reduced matrix structurally symmetric: its sparsity pattern equals
that of its transpose, and A(alpha)^T = A(-alpha) for the Bloch parameter
alpha.  The matrix itself is complex symmetric only at normal incidence
(alpha = 0); it is never Hermitian and it is indefinite.

The matrix is factored once by SuperLU (via scipy) in single precision
(complex64), and the solution is refined in double precision (complex128),
the sparse form of LAPACK's ``zcgesv`` (Langou et al., SC'06; Buttari et
al., ACM TOMS 34(4), 2008): half the bytes per factor value, residuals at
the double-precision level.  The factorization runs in SuperLU's symmetric
mode: minimum degree ordering on the pattern of A + A^T, with threshold
pivoting that prefers the diagonal.  Minimum degree's result depends on the
input order, because it breaks its ties by equation index: ``build_dofmap``
numbers the equations by height, then x, and on that order the factors carry
little supernode padding.

Only normalized values are cast: the factor is that of A / max|A_ij|, and
every right-hand side is divided by its largest modulus before a solve and
the result scaled back.  So the magnitudes of A and b cannot overflow the
cast, and only values below about 1e-38 of the largest one underflow.
Refinement follows ``zcgesv``: the residual r = b - A x is
formed in double precision, and corrections A d = r are solved with the
factor until ||r||_inf <= ||x||_inf ||A||_inf eps_64 sqrt(n), at most
``ITERMAX`` = 30 of them.  A correction that does not reduce ||r||_inf ends
the refinement as a failure.  When the single-precision attempt fails (the
factorization raises, refinement fails, the resonance gate trips, a value
is not finite, or the residual exceeds ``RESIDUAL_RTOL``), the system is
factored once more in double precision with the same ordering and partial
pivoting, refined by the same rule; its first check normally passes with
no correction.

A vanishing pivot signals a discrete resonance (the truncated problem can
be singular for unlucky parameter combinations even when the continuous one
is well posed).  No attempt extracts the factors: reading ``SuperLU.L`` or
``SuperLU.U`` makes SuperLU build CSC copies of both, which stay alive with
the factor and on a large system set the peak memory of the solve.  Both
attempts gate on ||b||_inf / (||A||_inf ||x||_inf) of the refined solution
and the unscaled A, which costs nothing.  Since ||x|| <= ||A^-1|| ||b|| for
the exact solution, it is an upper bound on 1 / kappa_inf(A), so a value
<= ``PIVOT_RTOL`` proves kappa_inf(A) >= 1 / ``PIVOT_RTOL``.  The bound
depends on b: a right-hand side with no component along the near-null
direction of A gets a correct solution and passes.  A solution x = 0 (b = 0,
or a refinement that failed at its first step) certifies nothing, so the
certificate then comes from one probe solve with the factor, y = A^-1 1
for the right-hand side of all ones, as ||1||_inf / (||A||_inf ||y||_inf).
zcgesv itself tests no pivot: refinement with a single-precision factor
fails once kappa eps_32 nears 1, and that failure already sends the solve
to the fallback; the bound catches a factor that is exact in single
precision but singular in double, such as diag(1, 1e-16).

Besides the solution we report the relative residual, the number of
corrections, the fill-in, the certificate (``pivot_ratio``) and the
precision of the factor that produced the solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import SparseSystem

__all__ = ["SolverError", "SolveReport", "solve_system"]

#: Threshold of the resonance gate: a system whose ||b||_inf / (||A||_inf
#: ||x||_inf) is at or below it is treated as numerically singular.
PIVOT_RTOL = 1e-14

#: Relative residual above which the report is flagged as suspect.
RESIDUAL_RTOL = 1e-10

#: Most refinement corrections per solve (LAPACK zcgesv's ITERMAX).
ITERMAX = 30

#: SuperLU settings tried in turn, both with the ordering of
#: ``_factor_and_solve``: (precision, keyword arguments of splu, dtype of
#: the factor).  The threshold stays above zero because the matrix is
#: indefinite.
_SYMMETRIC = (
    "single",
    {"diag_pivot_thresh": 0.01, "options": {"SymmetricMode": True}},
    np.complex64,
)
_FALLBACK = ("double", {"diag_pivot_thresh": 1.0}, np.complex128)


class SolverError(RuntimeError):
    """The reduced system is numerically singular or the solve failed."""


@dataclass(frozen=True)
class SolveReport:
    """Diagnostics of one sparse direct solve.

    ``lu_nnz`` is SuperLU's own count of the factor's entries,
    ``SuperLU.nnz``, on either attempt.  ``pivot_ratio`` is the value the
    resonance gate compared with ``PIVOT_RTOL``: ||b||_inf / (||A||_inf
    ||x||_inf), an upper bound on 1 / kappa_inf(A), with b and x replaced by
    the all-ones vector and its probe solve when x = 0 (``inf`` for an empty
    system).
    """

    n: int
    nnz: int
    lu_nnz: int
    residual: float
    pivot_ratio: float
    ok: bool
    #: Precision of the factor that produced the solution: "single", or
    #: "double" after a fallback ("none" for an empty system).
    precision: str
    #: Refinement corrections after the first solve with the factor.
    refinements: int

    @property
    def fill_factor(self) -> float:
        return self.lu_nnz / max(self.nnz, 1)

    def __str__(self) -> str:
        flag = "ok" if self.ok else "SUSPECT"
        return (
            f"n={self.n} nnz={self.nnz} fill={self.fill_factor:.1f}x "
            f"residual={self.residual:.2e} pivot_ratio={self.pivot_ratio:.2e} "
            f"precision={self.precision} refinements={self.refinements} "
            f"[{flag}]"
        )


def solve_system(system: SparseSystem) -> tuple[np.ndarray, SolveReport]:
    """LU-factor and solve ``system``; raise SolverError when singular.

    The single-precision symmetric-mode attempt is tried first; the
    double-precision fallback, with the same ordering and partial pivoting,
    runs only when it raises, fails to refine, trips the resonance gate or
    leaves a residual above ``RESIDUAL_RTOL``.  Both attempts gate on the
    same certificate (see the module docstring).

    Returns
    -------
    (x, report)
        Solution vector of length ``system.n`` and the diagnostics record.
        ``report.ok`` is False when the fallback's refinement fails too or
        its relative residual exceeds ``RESIDUAL_RTOL`` (the solution is
        still returned, with ``report.precision == "double"``).
    """
    a = system.matrix.tocsc()
    if not a.has_canonical_format:
        # the factored matrix shares a's index arrays, which splu would sort
        # and merge in place
        a = a.copy()
        a.sum_duplicates()
    b = system.rhs
    n = a.shape[0]
    if n == 0:
        empty = SolveReport(0, 0, 0, 0.0, np.inf, True, "none", 0)
        return np.zeros(0, dtype=complex), empty
    scale = np.abs(a.data).max() if a.nnz else 0.0
    if scale == 0.0:
        raise SolverError("assembled matrix is identically zero")
    # ||A||_inf, the largest row sum of |A|; |A_ij| is not kept, since an
    # array of size nnz alive during the factorization adds to its peak
    norm_a = np.bincount(a.indices, weights=np.abs(a.data), minlength=n).max()

    try:
        x, report = _factor_and_solve(a, b, scale, norm_a, *_SYMMETRIC)
        if report.ok:
            return x, report
    except SolverError:
        pass
    return _factor_and_solve(a, b, scale, norm_a, *_FALLBACK)


def _factor_and_solve(
    a, b, scale: float, norm_a: float, precision: str, kwargs: dict, dtype
) -> tuple[np.ndarray, SolveReport]:
    """Factor ``a / scale`` in ``dtype`` and refine; raise SolverError when
    the resonance gate trips (see the module docstring)."""
    # the values of a / scale are cast straight into the factor's precision
    # (the product rounds as scipy's a / scale does), and the index arrays
    # are shared with a, not copied
    scaled = np.multiply(
        a.data, 1.0 / scale, out=np.empty(a.nnz, dtype), casting="same_kind"
    )
    try:
        lu = splu(
            type(a)((scaled, a.indices, a.indptr), shape=a.shape),
            permc_spec="MMD_AT_PLUS_A",
            **kwargs,
        )
    except RuntimeError as exc:  # SuperLU signals exact singularity this way
        raise SolverError(f"sparse factorization failed: {exc}") from exc

    x, r, corrections, converged = _refine(a, b, lu, scale, norm_a, dtype)
    b_inf, x_inf = np.abs(b).max(), np.abs(x).max()
    if x_inf == 0.0:  # b = 0, or refinement failed at its first step
        probe = lu.solve(np.ones(a.shape[0], dtype))
        b_inf, x_inf = 1.0, np.abs(probe).max() / scale
    pivot_ratio = _gate(b_inf / norm_a / x_inf)

    norm_b = float(np.linalg.norm(b))
    residual = float(np.linalg.norm(r))
    if norm_b > 0.0:
        residual /= norm_b
    report = SolveReport(
        n=a.shape[0],
        nnz=int(a.nnz),
        lu_nnz=int(lu.nnz),
        residual=residual,
        pivot_ratio=pivot_ratio,
        ok=converged and residual <= RESIDUAL_RTOL,
        precision=precision,
        refinements=corrections,
    )
    return x, report


def _gate(ratio) -> float:
    """``ratio`` as a float; raise SolverError when it is <= ``PIVOT_RTOL``
    or not a number."""
    ratio = float(ratio)
    if not ratio > PIVOT_RTOL:
        raise SolverError(
            f"numerically singular system (||b|| / (||A|| ||x||) = "
            f"{ratio:.3e}); the discrete problem appears resonant -- perturb "
            "the frequency or refine the mesh"
        )
    return ratio


def _refine(
    a, b: np.ndarray, lu, scale: float, norm_a: float, dtype
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Iterative refinement of A x = b by the stopping rule of ``zcgesv``.

    ``lu`` factors ``a / scale`` in ``dtype``, and ``norm_a`` is
    ||A||_inf.  Starts from x = 0, so the first step is the plain solve.
    Returns the last iterate that reduced the residual, that residual, the
    number of corrections after the first solve, and whether the stopping
    test ||r||_inf <= ||x||_inf ||A||_inf eps_64 sqrt(n) was met.
    """
    n = a.shape[0]
    tol = norm_a * np.finfo(np.float64).eps * np.sqrt(n)
    x = np.zeros(n, dtype=complex)
    r = np.asarray(b, dtype=complex)
    r_norm = np.abs(r).max()
    for solves in range(ITERMAX + 2):
        if r_norm <= tol * np.abs(x).max():
            return x, r, max(solves - 1, 0), True
        if solves == ITERMAX + 1:
            break
        # r / r_norm and the factor's values are at most 1 in modulus
        d = lu.solve((r / r_norm).astype(dtype, copy=False))
        x_new = x + d.astype(complex, copy=False) * (r_norm / scale)
        r_new = b - a @ x_new
        r_new_norm = np.abs(r_new).max()
        if not r_new_norm < r_norm:  # no reduction, or not finite
            break
        x, r, r_norm = x_new, r_new, r_new_norm
    return x, r, max(solves - 1, 0), False
