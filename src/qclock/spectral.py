"""Assembly and diagonalization of local Hamiltonians.

One scatter helper (qcore._scatter_entries) maps each term's nonzero
entries to their global (row, col) indices; assemble sums them in term
order into a plain read-only Hermitian array. The matvec used by the
iterative eigensolver, the residual check and the energy helpers is
matrix-free: it runs the few fused groups of LocalHamiltonian.fused (each
the weighted sum of several terms on the union of their supports) through
qcore.apply_local, so each product passes over the state once per group,
not once per term. Its sums are ordered by group, so its results can
differ from the assembled matrix's at rounding level. Dense handles up to
12 qubits, matrix-free up to 16. The dense route factors the assembled
matrix with qcore._eigh, which solves each connected block of its nonzero
pattern on its own: a clock Hamiltonian splits wherever a register qubit
is only acted on diagonally (an all-reject circuit's accept ancilla) or
the gates only permute basis states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse.linalg

from .errors import ConvergenceError, ValidationError
from .qcore import (
    _RESIDUAL_TARGET, DENSE_QUBIT_CAP, QUBIT_CAP, PureState, _check_hermitian,
    _check_qubit_count, _eigh, _scatter_entries, apply_local, fmt_float,
    named_stream,
)
from .clockham import LocalHamiltonian

# matrix-free products allowed per Lanczos solve, about ten times what a
# 14-qubit random 3-local Hamiltonian takes
_LANCZOS_MATVECS = 2000

__all__ = [
    "PromiseGap", "SpectralReport", "assemble", "matvec",
    "min_eigenvalue", "propagation_spectrum", "check_promise",
    "serialize_report",
]


@dataclass(frozen=True)
class PromiseGap:
    """Spectral promise: witness side lambda <= a, no-witness side >= b."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValidationError(f"promise needs a < b, got a={self.a}, b={self.b}")


class SpectralReport(NamedTuple):
    min_eigenvalue: float
    spectrum: tuple          # k lowest eigenvalues, ascending
    ground_state: PureState
    method: str              # dense | iterative
    residual: float
    seed: int


def assemble(h: LocalHamiltonian) -> np.ndarray:
    """Dense Hermitian matrix of the weighted term sum, as a read-only array."""
    n = h.num_qubits
    _check_qubit_count(n, DENSE_QUBIT_CAP, "dense assembly")
    total = np.zeros((2 ** n, 2 ** n), dtype=complex)
    positions = []
    for term in h.terms:
        # one term's (row, col) pairs never repeat, so fancy-index += is
        # exact, and terms add in list order
        rows, cols, vals = _scatter_entries(term.matrix, term.support, n)
        total[rows, cols] += term.weight * vals
        positions.append((rows, cols))
    # every entry off the terms' positions is zero, so checking those
    # positions against their mirrors is the whole Hermitian check, in O(nnz)
    for at in positions:
        _check_hermitian(total, "assemble: weighted sum", at=at)
    total.flags.writeable = False
    return total


def matvec(h: LocalHamiltonian, vec: np.ndarray) -> np.ndarray:
    """H @ vec for a vector or a 2^n x m block of columns, summed over the
    fused groups of h.fused; no 2^n matrix is materialized."""
    n = h.num_qubits
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim not in (1, 2) or vec.shape[0] != 2 ** n:
        raise ValidationError(f"vector shape {vec.shape} does not match {n} qubits")
    out = np.zeros_like(vec)
    for support, matrix in h.fused:
        out += apply_local(matrix, support, n, vec)
    return out


def min_eigenvalue(h: LocalHamiltonian, k: int = 6, method: str = "auto",
                   seed: int = 0, residual_target: float = _RESIDUAL_TARGET) -> SpectralReport:
    """Lowest k eigenvalues and the ground eigenvector.

    method: dense (exact, <= 12 qubits), iterative (matrix-free Lanczos,
    <= 16 qubits, deterministic seeded start vector), or auto. Lanczos stops
    once every Ritz pair's absolute residual is below about
    2 * residual_target, and fails with ConvergenceError once it has spent
    _LANCZOS_MATVECS products, or when a total weight past
    residual_target / eps leaves a returned pair above that residual. The
    returned ground pair is residual-checked against `residual_target`
    relative to the operator scale max(1, total_weight): backward error
    grows with ||H||, and clock penalties push ||H|| to L^12.
    """
    n = h.num_qubits
    dim = 2 ** n
    if k < 1:
        raise ValidationError(f"requested k={k} eigenvalues")
    if method == "auto":
        method = "dense" if n <= DENSE_QUBIT_CAP else "iterative"
    elif method not in ("dense", "iterative"):
        raise ValidationError(f"unknown method {method!r}")
    if method == "iterative":
        _check_qubit_count(n, QUBIT_CAP, "iterative min_eigenvalue")
    if k > dim - 2 or dim < 8:
        # ARPACK needs k < dim-1 and room for the Krylov basis
        method = "dense"
    if method == "dense":
        evals, evecs = _eigh(assemble(h), k)
    else:
        # Lanczos on sigma*I - H with which="LA": the ground state of H
        # becomes the dominant end of a PSD operator, which restarted
        # Lanczos tracks far more reliably than "SA" does on spectra
        # with heavy interior clustering. sigma = total weight is a
        # certified bound on ||H|| (every term has norm <= 1).
        sigma = h.total_weight
        op = scipy.sparse.linalg.LinearOperator(
            (dim, dim), matvec=lambda v: sigma * v - matvec(h, v),
            dtype=complex,
        )
        v0 = named_stream(seed, "eigsh-start").standard_normal(dim)
        # ARPACK stops once every Ritz pair has ||r|| <= tol * |theta|, and
        # theta, an eigenvalue of sigma*I - H, is at most 2 sigma: so the
        # absolute residual stays within about 2 * residual_target, and a
        # Ritz value with residual r lies within r of an eigenvalue of H
        ncv = min(max(2 * k + 1, 20), dim)
        eps = np.finfo(float).eps
        tol = max(residual_target / max(1.0, sigma), eps)
        # ARPACK takes ncv + 1 products before its first restart and at most
        # ncv - k at each one, so this restart cap keeps within the budget
        # (a budget below one restart still allows one)
        restarts = max(1, (_LANCZOS_MATVECS - ncv - 1) // (ncv - k))
        try:
            evals, evecs = scipy.sparse.linalg.eigsh(
                op, k=k, which="LA", v0=v0, ncv=ncv, maxiter=restarts, tol=tol,
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            best = None
            if len(exc.eigenvalues):
                resid = _pair_residuals(h, sigma - exc.eigenvalues.real, exc.eigenvectors)
                best = float(resid.min())
            raise ConvergenceError(
                f"Lanczos did not converge within {_LANCZOS_MATVECS} matvecs",
                best_residual=best) from None
        evals = sigma - evals
        order = np.argsort(evals)
        evals, evecs = evals[order], evecs[:, order]
        if tol * max(1.0, sigma) > residual_target:
            # tol sits at machine epsilon, where the stop certifies only
            # about 2 eps sigma, so the pairs' own residuals must certify them
            resid = _pair_residuals(h, evals, evecs)
            if resid.max() > 2 * residual_target:
                raise ConvergenceError(
                    f"Lanczos pair residual {resid.max():.3e} above 2 * "
                    f"{residual_target:.1e}; at a total weight of {sigma:.3e}, "
                    f"float64 products resolve only about {eps * sigma:.1e}",
                    best_residual=float(resid.min()))

    ground = np.asarray(evecs[:, 0], dtype=complex)
    ground = ground / np.linalg.norm(ground)
    residual = float(np.linalg.norm(matvec(h, ground) - evals[0] * ground))
    scale = max(1.0, h.total_weight)
    if residual > residual_target * scale:
        raise ConvergenceError(
            f"ground pair residual {residual:.3e} above "
            f"{residual_target:.1e} * scale {scale:.3e}",
            best_residual=residual,
        )
    return SpectralReport(
        min_eigenvalue=float(evals[0]),
        spectrum=tuple(float(v) for v in evals),
        ground_state=PureState(n, ground),
        method=method,
        residual=residual,
        seed=int(seed),
    )


def _pair_residuals(h: LocalHamiltonian, evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """||H v - lambda v|| of each eigenpair, from one block matvec."""
    return np.linalg.norm(matvec(h, evecs) - evecs * evals, axis=0)


def propagation_spectrum(length: int) -> np.ndarray:
    """Eigenvalues 1 - cos(pi k / (L+1)), k = 0..L, of the conjugated walk."""
    if length < 1:
        raise ValidationError(f"circuit length {length} must be >= 1")
    k = np.arange(length + 1)
    return 1.0 - np.cos(np.pi * k / (length + 1))


def check_promise(h: LocalHamiltonian, gap: PromiseGap, **solver_kwargs):
    """Verdict on which side of the promise the ground energy falls.

    Returns (verdict, report) with verdict in {low, high, violated}.
    """
    report = min_eigenvalue(h, **solver_kwargs)
    lam = report.min_eigenvalue
    if lam <= gap.a:
        verdict = "low"
    elif lam >= gap.b:
        verdict = "high"
    else:
        verdict = "violated"
    return verdict, report


def serialize_report(report: SpectralReport) -> str:
    lines = [
        f"lambda_min {fmt_float(report.min_eigenvalue)}",
        "spectrum " + " ".join(fmt_float(v) for v in report.spectrum),
        f"method {report.method}",
        f"residual {fmt_float(report.residual)}",
        f"seed {report.seed}",
    ]
    return "\n".join(lines) + "\n"
