"""Independent references for the benchmark's correctness checks.

Nothing here calls into qclock: gates, registers and Hamiltonians are
rebuilt from the instance descriptions, so agreement with qclock's output is
evidence, not tautology. All of it runs outside the timed regions.

Clock instances are checked against the penalty -> infinity limit: the
restriction of H1 = in + out + prop to the legal clock states
|x> (x) |1^t 0^(L-t)>. By the projection lemma of Kempe, Kitaev and Regev
(SIAM J. Comput. 35, 2006), the ground energy of the full Hamiltonian with
clock penalty J lies in [lambda_legal - ||H1||^2 / (J - 2 ||H1||),
lambda_legal]. A float64 solve adds rounding of order eps * ||H||; the
accepted budget is

    leak + C_ROUND * eps * total_weight,  C_ROUND = sqrt(dim),

where dim = 2^n is the dimension of the full register: rounding errors
accumulated over the dim-long inner products of a dense Hermitian
eigensolver grow like sqrt(dim) for independent roundings. The constant is
fixed by that argument, not fitted to observed errors. At 10 qubits and
L = 7 that budget is about 0.7 of the 1/L^3 gap, so a second bound applies
as well: |lambda - lambda_legal| may not exceed a quarter of the gap, which
keeps half of the verdict margin (the verdict threshold sits at half the
gap). How much of the gap a run uses is reported as
spectral.energy_err_over_gap.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

_R = 1.0 / math.sqrt(2.0)
GATES = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
    "H": np.array([[_R, _R], [_R, -_R]]),
    "S": np.diag([1, 1j]),
    "T": np.diag([1, np.exp(0.25j * np.pi)]),
    "CNOT": np.eye(4)[[0, 1, 3, 2]],
    "CZ": np.diag([1, 1, 1, -1]),
}
EPS = float(np.finfo(float).eps)
GAP_SHARE = 0.25       # largest accepted |lambda - lambda_legal| * L^3


def gate_on_register(label: str, targets, width: int) -> np.ndarray:
    """Full-register matrix of one gate, by contracting it into the identity."""
    k = len(targets)
    g = np.asarray(GATES[label], dtype=complex).reshape((2,) * (2 * k))
    dim = 2 ** width
    t = np.eye(dim, dtype=complex).reshape((2,) * width + (dim,))
    t = np.tensordot(g, t, axes=(list(range(k, 2 * k)), list(targets)))
    t = np.moveaxis(t, list(range(k)), list(targets))
    return t.reshape(dim, dim)


def legal_hamiltonian(spec) -> np.ndarray:
    """in + out + prop on the legal clock basis, index x * (L+1) + t."""
    w, length = spec.width, spec.length
    dw = 2 ** w
    h = np.zeros((dw, length + 1, dw, length + 1), dtype=complex)
    x = np.arange(dw)
    bit = lambda q: (x >> (w - 1 - q)) & 1  # noqa: E731 - qubit 0 is the high bit
    ancilla_ones = sum((bit(q) for q in range(spec.n_input, w)), np.zeros(dw, int))
    h[x, 0, x, 0] += ancilla_ones
    h[x, length, x, length] += 1 - bit(spec.accept)
    eye = np.eye(dw)
    for t, (label, targets) in enumerate(spec.gates, start=1):
        u = gate_on_register(label, targets, w)
        h[:, t, :, t] += 0.5 * eye
        h[:, t - 1, :, t - 1] += 0.5 * eye
        h[:, t, :, t - 1] -= 0.5 * u
        h[:, t - 1, :, t] -= 0.5 * u.conj().T
    d = dw * (length + 1)
    return h.reshape(d, d)


def legal_spectrum(spec) -> np.ndarray:
    return np.linalg.eigvalsh(legal_hamiltonian(spec))


class ClockBudget:
    """Penalty, total weight, projection-lemma leak and the accepted error
    for a circuit compiled at the default clock penalty L**12."""

    def __init__(self, spec):
        length = spec.length
        self.penalty = float(length) ** 12
        self.h1_norm = spec.n_ancilla + 1 + 1.5 * length  # sum of in/out/prop weights
        self.total_weight = math.comb(length, 2) * self.penalty + self.h1_norm
        self.leak = self.h1_norm ** 2 / (self.penalty - 2 * self.h1_norm)
        self.c_round = math.sqrt(2 ** spec.num_qubits)
        self.delta = self.leak + self.c_round * EPS * self.total_weight
        self.gap = 1.0 / length ** 3
        # verdict threshold: perfect instances sit at 0, all-reject ones at or
        # above the 1/L^3 floor (criterion 03 measures lambda * L^3 >= 1.0)
        self.threshold = 0.5 * self.gap
        self.accuracy = GAP_SHARE * self.gap


def gibbs_reference(evals: np.ndarray, temp: float):
    """(mean energy, ln Z) of the legal spectrum; illegal clock states carry
    Boltzmann weight exp(-J/T), which is zero in float64 here."""
    e0 = float(evals[0])
    wts = np.exp(-(evals - e0) / temp)
    z = wts.sum()
    return float(np.dot(wts, evals) / z), -e0 / temp + math.log(z)


def gibbs_tolerance(mean: float, delta: float, temp: float) -> float:
    """Bound on |<E>_computed - <E>_ref| when every low eigenvalue is off by
    at most delta: Boltzmann weights then move by at most exp(2 delta / T)
    in ratio, and the energies themselves by delta (legal energies are >= 0)."""
    return delta + abs(mean) * math.expm1(2.0 * delta / temp)


def sparse_hamiltonian(spec) -> scipy.sparse.csr_matrix:
    """CSR matrix of a weighted local term list: entry (a, b) of a term on
    support s lands on every row/column pair that agrees off s and reads
    a / b on s."""
    n = spec.num_qubits
    idx = np.arange(2 ** n, dtype=np.int64)
    rows, cols, vals = [], [], []
    for weight, support, matrix in spec.terms:
        k = len(support)
        shifts = [n - 1 - q for q in support]
        base = idx[(idx & sum(1 << s for s in shifts)) == 0]
        place = np.array([sum(((a >> (k - 1 - j)) & 1) << s for j, s in enumerate(shifts))
                          for a in range(2 ** k)], dtype=np.int64)
        a, b = np.nonzero(matrix)
        rows.append((place[a, None] | base).ravel())
        cols.append((place[b, None] | base).ravel())
        vals.append(np.repeat(weight * matrix[a, b], base.size))
    dim = 2 ** n
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim))


def sparse_ground_energy(mat: scipy.sparse.csr_matrix):
    """(lambda_min, residual) by shift-free Lanczos on the CSR matrix."""
    v0 = np.ones(mat.shape[0], dtype=complex)
    evals, evecs = scipy.sparse.linalg.eigsh(mat, k=1, which="SA", v0=v0, tol=1e-10)
    v = evecs[:, 0] / np.linalg.norm(evecs[:, 0])
    return float(evals[0]), float(np.linalg.norm(mat @ v - evals[0] * v))


def vote_reference(k: int, eps: float):
    """Threshold l, exact rejection, KL and sqrt(k) bounds of the k-vote at
    single-copy acceptance 1 - eps, with the binomial tail in exact rationals."""
    frac = 1.0 - eps - k ** -0.25
    l = math.ceil(round(k * frac, 9))
    cut = math.floor(round(k * frac, 9))
    p = Fraction(1) - Fraction(eps)
    exact = float(sum(math.comb(k, i) * p ** i * (1 - p) ** (k - i) for i in range(cut + 1)))
    a, b = l / k, 1.0 - eps
    kl = a * math.log2(a / b) + (1 - a) * math.log2((1 - a) / (1 - b))
    return l, cut, exact, min(1.0, (l + 1) * 2.0 ** (-k * kl)), 2.0 ** (-math.sqrt(k) / math.log(2))
