"""Sparse direct solution of the reduced system with health reporting.

The element matrices are complex symmetric, and the quasi-periodic fold
keeps the reduced matrix structurally symmetric: its sparsity pattern equals
that of its transpose, and A(alpha)^T = A(-alpha) for the Bloch parameter
alpha.  The matrix itself is complex symmetric only at normal incidence
(alpha = 0); it is never Hermitian and it is indefinite.  SuperLU (via scipy)
is therefore run in its symmetric mode first: minimum degree ordering on the
pattern of A + A^T, with threshold pivoting that prefers the diagonal.
Minimum degree's result depends on the input order, because it breaks its
ties by equation index: ``build_dofmap`` numbers the equations by height,
then x, and on that order the factors carry little supernode padding.  When
that factorization fails, or fails the pivot or residual gate below, the
system is refactored once with SuperLU's default COLAMD column ordering and
partial pivoting.  Besides the solution we report the relative residual, the
LU fill-in, the ordering that produced the solution, and the smallest pivot
scaled by the matrix magnitude; a vanishing pivot signals a discrete
resonance (the truncated problem can be singular for unlucky parameter
combinations even when the continuous one is well posed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import SparseSystem

__all__ = ["SolverError", "SolveReport", "solve_system"]

#: Pivot threshold relative to max |A_ij| below which the factorization is
#: treated as numerically singular.
PIVOT_RTOL = 1e-14

#: Relative residual above which the report is flagged as suspect.
RESIDUAL_RTOL = 1e-10

#: SuperLU settings tried in turn: (ordering, keyword arguments of splu).
#: The threshold stays above zero because the matrix is indefinite.
_SYMMETRIC = (
    "MMD_AT_PLUS_A",
    {"diag_pivot_thresh": 0.01, "options": {"SymmetricMode": True}},
)
_FALLBACK = ("COLAMD", {})


class SolverError(RuntimeError):
    """The reduced system is numerically singular or the solve failed."""


@dataclass(frozen=True)
class SolveReport:
    """Diagnostics of one sparse direct solve.

    ``lu_nnz`` is ``L.nnz + U.nnz`` of the extracted factors.  SuperLU's own
    count, ``SuperLU.nnz``, is not the same number: it also counts the
    padding of its supernodes, which depends on the equation order.  On the
    final systems of the shipped runs it is about 0.5 % (flat) and 0.1 %
    (sharp) larger (scipy 1.17).
    """

    n: int
    nnz: int
    lu_nnz: int
    residual: float
    pivot_ratio: float
    ok: bool
    #: SuperLU column ordering of the factorization that produced the
    #: solution: "MMD_AT_PLUS_A", or "COLAMD" after a fallback ("none" for
    #: an empty system).
    ordering: str

    @property
    def fill_factor(self) -> float:
        return self.lu_nnz / max(self.nnz, 1)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        flag = "ok" if self.ok else "SUSPECT"
        return (
            f"n={self.n} nnz={self.nnz} fill={self.fill_factor:.1f}x "
            f"residual={self.residual:.2e} min_pivot={self.pivot_ratio:.2e} "
            f"ordering={self.ordering} [{flag}]"
        )


def solve_system(system: SparseSystem) -> tuple[np.ndarray, SolveReport]:
    """LU-factor and solve ``system``; raise SolverError when singular.

    The symmetric-mode factorization is tried first; the COLAMD fallback
    runs only when it raises, trips the pivot gate or leaves a residual
    above ``RESIDUAL_RTOL``.

    Returns
    -------
    (x, report)
        Solution vector of length ``system.n`` and the diagnostics record.
        ``report.ok`` is False when the relative residual exceeds
        ``RESIDUAL_RTOL`` after the fallback too (the solution is still
        returned).
    """
    a = system.matrix.tocsc()
    b = system.rhs
    if a.shape[0] == 0:
        empty = SolveReport(0, 0, 0, 0.0, np.inf, True, "none")
        return np.zeros(0, dtype=complex), empty
    scale = np.abs(a.data).max() if a.nnz else 0.0
    if scale == 0.0:
        raise SolverError("assembled matrix is identically zero")

    try:
        x, report = _factor_and_solve(a, b, scale, *_SYMMETRIC)
        if report.ok:
            return x, report
    except SolverError:
        pass
    return _factor_and_solve(a, b, scale, *_FALLBACK)


def _factor_and_solve(
    a, b, scale: float, ordering: str, kwargs: dict
) -> tuple[np.ndarray, SolveReport]:
    """One factorization with ``ordering``; raise SolverError when singular.

    ``lu.U`` is read once, for the pivots.  That access makes SuperLU build
    CSC copies of both factors, L and U, which stay alive with ``lu``: on a
    large system they set the peak memory of the solve.  ``lu.L`` then
    returns the copy already built.
    """
    try:
        lu = splu(a, permc_spec=ordering, **kwargs)
    except RuntimeError as exc:  # SuperLU signals exact singularity this way
        raise SolverError(f"sparse factorization failed: {exc}") from exc

    u = lu.U
    pivots = np.abs(u.diagonal())
    pivot_ratio = float(pivots.min() / scale)
    if pivot_ratio <= PIVOT_RTOL:
        raise SolverError(
            "numerically singular system (min |pivot| = "
            f"{pivots.min():.3e} vs scale {scale:.3e}); the discrete problem "
            "appears resonant -- perturb the frequency or refine the mesh"
        )

    x = lu.solve(b)
    norm_b = float(np.linalg.norm(b))
    residual = float(np.linalg.norm(a @ x - b))
    if norm_b > 0.0:
        residual /= norm_b
    report = SolveReport(
        n=a.shape[0],
        nnz=int(a.nnz),
        lu_nnz=int(lu.L.nnz + u.nnz),
        residual=residual,
        pivot_ratio=pivot_ratio,
        ok=residual <= RESIDUAL_RTOL,
        ordering=ordering,
    )
    return x, report
