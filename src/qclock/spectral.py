"""Assembly and diagonalization of local Hamiltonians.

Matrices built from terms are scattered, and products with a state are
multiplied, in one register layout (qcore._support_first). Every dense
consumer reads one CSR matrix, built by _sparse_sum from the terms'
weighted entries (qcore._scatter_entries) and checked Hermitian once;
assemble densifies it into a plain read-only array.
matvec, used by Lanczos, its residual checks and the energy helpers, is
matrix-free: it runs the few fused groups of LocalHamiltonian.fused through
apply_local, once per group, not once per term. Its sums are ordered by
group, so they can differ from the assembled matrix's at rounding level.
Dense handles up to 12 qubits, matrix-free up to 16.

The dense route of min_eigenvalue builds that CSR H once and splits its
basis at the largest gap of the sorted diagonal. When a computed
certificate shows that the upper part is a penalized block (a clock
Hamiltonian's illegal clock states under their L**12 penalty), that block
is eliminated exactly (_eliminated_levels): the levels come from the Schur
complement on the low block, at the finite penalty, with no 2^n x 2^n
array, each solved by qcore._eigh. Without a certificate, or when that
solve fails, the same CSR is densified, as in assemble, and factored by
qcore._eigh, each connected block of its nonzero pattern on its own: a
clock Hamiltonian splits wherever a register qubit is only acted on
diagonally (an all-reject circuit's accept ancilla) or the gates only
permute basis states. The ground pair's residual is taken on the matrix
solved.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse.linalg

from .errors import ConvergenceError, ResourceLimitError, ValidationError
from .qcore import (
    _RESIDUAL_TARGET, DENSE_QUBIT_CAP, QUBIT_CAP, PureState, _check_hermitian,
    _check_qubit_count, _eigh, _scatter_entries, apply_local, fmt_float,
    named_stream,
)
from .clockham import LocalHamiltonian

# matrix-free products allowed per Lanczos solve, about ten times what a
# 14-qubit random 3-local Hamiltonian takes
_LANCZOS_MATVECS = 2000
# Jacobi sweeps allowed per solve with the penalized block, and evaluations
# of its Schur complement allowed per wanted level (see _eliminated_levels)
_JACOBI_SWEEPS = 40
_SCHUR_TRIALS = 3

__all__ = [
    "SpectralReport", "assemble", "matvec", "min_eigenvalue",
    "propagation_spectrum", "serialize_report",
]


class SpectralReport(NamedTuple):
    min_eigenvalue: float
    spectrum: tuple          # k lowest eigenvalues, ascending
    ground_state: PureState
    method: str              # dense | iterative
    residual: float
    seed: int


def assemble(h: LocalHamiltonian) -> np.ndarray:
    """Dense Hermitian matrix of the weighted term sum, as a read-only array."""
    return _dense(_sparse_sum(h))


def _sparse_sum(h: LocalHamiltonian) -> scipy.sparse.csr_array:
    """The weighted term sum as one CSR matrix, checked Hermitian; its entries
    are sorted stably by position, so each position's repeats add in term order."""
    _check_qubit_count(h.num_qubits, DENSE_QUBIT_CAP, "dense assembly")
    dim = 2 ** h.num_qubits
    parts = [(np.zeros(0, int), np.zeros(0, int), np.zeros(0, complex))]
    for term in h.terms:
        rows, cols, vals = _scatter_entries(term.matrix, term.support, h.num_qubits)
        parts.append((rows, cols, term.weight * vals))
    rows, cols, vals = (np.concatenate(part) for part in zip(*parts))
    order = np.argsort(rows * dim + cols, kind="stable")
    full = scipy.sparse.csr_array((vals[order], (rows[order], cols[order])), shape=(dim, dim))
    _check_hermitian(full, "assemble: weighted sum")
    return full


def _dense(full: scipy.sparse.csr_array) -> np.ndarray:
    """full as a dense read-only array."""
    total = full.toarray()
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
    <= 16 qubits, deterministic seeded start vector), or auto. Dense is a
    direct solve of the full operator, built once as a CSR matrix: a
    penalized block certified by _eliminated_levels (every illegal clock
    state at the default clock penalty) is eliminated exactly, and the k
    levels come from its Schur complement on the low block; without a
    certificate that CSR is densified and factored with zheevr, block by block
    (qcore._eigh). Lanczos stops once every Ritz pair's absolute residual
    is below about 2 * residual_target, and fails with ConvergenceError
    once it has spent _LANCZOS_MATVECS products, or when a total weight
    past residual_target / eps leaves a returned pair above that residual;
    a k so large that one restart would pass that budget is a
    ResourceLimitError before any product.
    The returned ground pair is residual-checked (on the matrix a dense
    solve factored, through matvec after Lanczos) against residual_target
    relative to the operator scale max(1, total_weight): backward error
    grows with ||H||, and clock penalties push ||H|| to L^12.
    """
    n = h.num_qubits
    dim = 2 ** n
    if k < 1:
        raise ValidationError(f"requested k={k} eigenvalues")
    if not 0 < residual_target < np.inf:
        raise ValidationError(f"residual_target {residual_target} must be finite and > 0")
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
        solved = _sparse_sum(h)
        found = _eliminated_levels(solved, k)
        if found is None:
            solved = _dense(solved)
            found = _eigh(solved, k)
        evals, evecs = found
    else:
        # ARPACK takes ncv + 1 products before its first restart and at most
        # ncv - k at each one; a k whose first restart alone would pass the
        # budget is refused before any product or allocation
        ncv = min(max(2 * k + 1, 20), dim)
        if ncv + 1 + (ncv - k) > _LANCZOS_MATVECS:
            raise ResourceLimitError(
                f"Lanczos for k={k} eigenvalues needs {ncv + 1 + (ncv - k)} "
                f"matvecs to restart once, above the budget of {_LANCZOS_MATVECS}")
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
        eps = np.finfo(float).eps
        tol = max(residual_target / max(1.0, sigma), eps)
        # the most restarts within the budget: at least one, by the check above
        restarts = (_LANCZOS_MATVECS - ncv - 1) // (ncv - k)
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
        except scipy.sparse.linalg.ArpackError as exc:
            # sigma*I - H is exactly 0 when H has no terms or sums to w*I
            raise ConvergenceError(str(exc)) from None
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

    ground = evecs[:, 0] / np.linalg.norm(evecs[:, 0])
    product = solved @ ground if method == "dense" else matvec(h, ground)
    residual = float(np.linalg.norm(product - evals[0] * ground))
    # freed first, so the report's copy of ground does not pin their heap space
    solved = found = None
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


def _eliminated_levels(full: scipy.sparse.csr_array, k: int):
    """(levels, vectors): the k lowest eigenpairs of H = full, from
    _sparse_sum, with its penalized block eliminated exactly, or None when
    the split below is not certified.

    H's basis is split at the largest gap of the sorted diagonal into a
    low block A and a penalized block B. The split is
    certified when the Gershgorin floor of B, min(H_ii - sum_{j in B, j != i}
    |H_ij|), lies above the Gershgorin ceiling of A, which bounds every
    eigenvalue of H_AA: by Cauchy interlacing the |A| lowest levels of H then
    lie below the floor, H_BB - lambda is positive definite at each, and each
    is the fixed point lambda = mu_j(S(lambda)) of the Schur complement
    S(lambda) = H_AA - H_AB (H_BB - lambda)^-1 H_BA (Feshbach map).
    (H_BB - lambda)^-1 is applied by Jacobi sweeps, the partial sums of its
    Neumann series in D^-1 O (D the diagonal of H_BB, O the rest, R_i the
    row sums of |O|), each contracting by rho = max R_i / (D_i - lambda), so
    the tail is at most rho / (1 - rho) times the last sweep's largest
    entry. S is evaluated at a trial lambda. A level is accepted when that
    tail's effect on S plus the shift of S between the trial and the level,
    c |mu_j - lambda| / (1 - c) with c = ||H_AB||^2 / (floor - ceiling)^2,
    is at rounding level, sqrt(|A|) eps max(1, ||H_AA||_inf); a level not
    yet accepted becomes the next trial. Each vector is lifted as
    [v_A; -(H_BB - lambda_j)^-1 H_BA v_A] and normalised. No 2^n x 2^n
    array is formed. S is solved by qcore._eigh, which retries zheevr once
    in the reversed basis; None is returned when that fails too.
    """
    dim = full.shape[0]
    if dim < 2:
        return None
    diag = full.diagonal().real
    order = np.argsort(diag, kind="stable")
    cut = int(np.argmax(np.diff(diag[order]))) + 1
    if k > cut:
        return None
    low, high = np.sort(order[:cut]), np.sort(order[cut:])
    rows_a = full[low]
    h_aa, h_ab = rows_a[:, low], rows_a[:, high]
    h_bb = full[high][:, high]
    d = diag[high]
    off = h_bb - scipy.sparse.diags_array(h_bb.diagonal())
    spread = abs(off).sum(axis=1)
    floor = float((d - spread).min())
    abs_aa = abs(h_aa).sum(axis=1)
    ceiling = float((diag[low] + abs_aa - np.abs(h_aa.diagonal())).max())
    if not floor > ceiling:
        return None
    abs_ab = abs(h_ab)
    norm_ab = float(np.sqrt(abs_ab.sum(axis=0).max() * abs_ab.sum(axis=1).max()))
    c = (norm_ab / (floor - ceiling)) ** 2
    if not c < 1:
        return None
    tol = np.sqrt(cut) * np.finfo(float).eps * max(1.0, float(abs_aa.max()))
    coupling = h_ab.conj().T                 # H_BA
    # ||H_AB E|| <= reach * max|E| for an error E in (H_BB - lambda)^-1 H_BA
    reach = norm_ab * np.sqrt(cut * d.size)

    def resolvent(rhs, lam, scale):
        # (H_BB - lam)^-1 rhs, sparse or dense, as the partial sums of its
        # Neumann series in D^-1 O (Jacobi sweeps), and a bound on the max
        # entry of what is left once scale times that bound is below tol / 2
        inv = scipy.sparse.diags_array(1 / (d - lam))
        rho = float((spread / (d - lam)).max())
        x = term = inv @ rhs
        for _ in range(_JACOBI_SWEEPS):
            term = -(inv @ (off @ term))
            x = x + term
            err = rho / (1 - rho) * float(abs(term).max())
            if scale * err <= tol / 2:
                return x, err
        return None, None

    levels = np.zeros(k)
    picked = np.zeros((cut, k), dtype=complex)
    done = np.zeros(k, dtype=bool)
    lam = float(diag[low].min())
    for _ in range(1 + _SCHUR_TRIALS * k):
        x, err = resolvent(coupling, lam, reach)
        if x is None:
            return None
        s = (h_aa - h_ab @ x).toarray()
        try:
            mu, vecs = _eigh(s, k)
        except ConvergenceError:
            return None
        bound = (reach * err + c * np.abs(mu - lam)) / (1 - c)
        new = ~done & (bound <= tol)
        levels[new], picked[:, new] = mu[new], vecs[:, new]
        done |= new
        if done.all():
            break
        lam = min(float(mu[np.argmin(done)]), ceiling)
    else:
        return None
    evecs = np.zeros((dim, k), dtype=complex)
    evecs[low] = picked
    # each lift solves at its own level, so the ground pair's residual
    # is at rounding level; ||H_BB|| <= max(D + R) scales its error
    lift_scale = float((d + spread).max()) * np.sqrt(d.size)
    for j in range(k):
        x, _ = resolvent(coupling @ picked[:, j], levels[j], lift_scale)
        if x is None:
            return None
        evecs[high, j] = -x
    evecs /= np.linalg.norm(evecs, axis=0)
    order = np.argsort(levels, kind="stable")
    return levels[order], evecs[:, order]


def _pair_residuals(h: LocalHamiltonian, evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """||H v - lambda v|| of each eigenpair, from one block matvec."""
    return np.linalg.norm(matvec(h, evecs) - evecs * evals, axis=0)


def propagation_spectrum(length: int) -> np.ndarray:
    """Eigenvalues 1 - cos(pi k / (L+1)), k = 0..L, of the conjugated walk."""
    if length < 1:
        raise ValidationError(f"circuit length {length} must be >= 1")
    k = np.arange(length + 1)
    return 1.0 - np.cos(np.pi * k / (length + 1))


def serialize_report(report: SpectralReport) -> str:
    lines = [
        f"lambda_min {fmt_float(report.min_eigenvalue)}",
        "spectrum " + " ".join(fmt_float(v) for v in report.spectrum),
        f"method {report.method}",
        f"residual {fmt_float(report.residual)}",
        f"seed {report.seed}",
    ]
    return "\n".join(lines) + "\n"
