"""Gibbs states and temperature bounds (Boltzmann constant fixed to 1).

Populations follow exp(-E_j / T) / Z, accumulated after subtracting the
ground energy so nothing overflows. The mean-energy bound

    <E>_T <= a + (d-a)/2 + e^(n ln 2) e^(-(d-a)/(2T)) E_max

holds whenever the ground energy is >= a (second term counts every state
above a + (d-a)/2 at its worst weight), and picking T small enough makes
the Gibbs mean land on the witness side of a promise.

Each entry point assembles H once per call. gibbs_reports serves a whole
temperature list from one eigenvalues-only factorisation, and gibbs_decide
uses it too. The two states come back as square-root factors, never as
2^n x 2^n matrices: gibbs_state as V sqrt(p) over the occupied levels, and
ground_projector_state as V / sqrt(r) over the r ground vectors, found by
at most two subset solves by index and one eigenvalues-only count between
them. Those factors come from two matrix-level helpers, gibbs_factor and
ground_space_factor, which also serve the legal-clock matrices of the
witness pipeline. Every solve is qcore._eigh's, which factors each
connected block of the matrix's nonzero pattern on its own and merges the
levels, so a ground space or the occupied levels may span several blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .qcore import _DEGENERACY_TOL, DensityMatrix, _eigh
from .clockham import LocalHamiltonian
from .spectral import assemble

_LN2 = math.log(2.0)
_GROUND_SUBSET = 8      # first subset size of the ground-space solve

__all__ = [
    "Temperature", "ThermalReport", "EnergyBound", "DecisionTemperature",
    "gibbs_factor", "gibbs_state", "gibbs_reports",
    "ground_projector_state", "ground_space_factor", "mean_energy_bound",
    "decision_temperature", "gibbs_decide",
]


@dataclass(frozen=True)
class Temperature:
    """Strictly positive, finite temperature; the T -> 0 limit has its own
    path (ground_space_factor)."""

    value: float

    def __post_init__(self):
        if not (self.value > 0.0 and math.isfinite(self.value)):
            raise ValidationError(f"temperature {self.value} must be > 0 and finite")


class ThermalReport(NamedTuple):
    mean_energy: float
    partition_function: float
    populations: tuple    # ascending energy order
    e_min: float
    e_max: float


class EnergyBound(NamedTuple):
    rhs: float
    cutoff: float


class DecisionTemperature(NamedTuple):
    temperature: Temperature
    decision_energy: float


def _as_temperature(t) -> Temperature:
    return t if isinstance(t, Temperature) else Temperature(float(t))


def _thermal_report(evals: np.ndarray, temp: Temperature) -> ThermalReport:
    e_min = float(evals[0])
    with np.errstate(over="ignore"):    # a gap over a tiny T is inf, exp(-inf) = 0
        shifted = np.exp(-(evals - e_min) / temp.value)
    z_shifted = shifted.sum()
    pops = shifted / z_shifted
    # Z in absolute units, on Python floats: exp underflows to 0 and the
    # product overflows to inf, both silently; only exp itself raises
    try:
        z = float(z_shifted) * math.exp(-e_min / temp.value)
    except OverflowError:    # z_shifted >= 1, so Z is past float range
        z = math.inf
    return ThermalReport(
        mean_energy=float(np.dot(pops, evals)),
        partition_function=z,
        populations=tuple(float(p) for p in pops),
        e_min=e_min,
        e_max=float(evals[-1]),
    )


def gibbs_factor(mat: np.ndarray, t):
    """Gibbs state of a dense Hermitian matrix as a square-root factor;
    returns (V sqrt(p), report).

    The report comes from the eigenvalues-only factorisation, exactly as
    gibbs_reports gives it. p are that report's populations, V the
    eigenvectors of the levels with p > 0, from a subset solve of the same
    matrix.
    """
    temp = _as_temperature(t)
    report = _thermal_report(_eigh(mat, vectors=False), temp)
    pops = np.array(report.populations)
    occupied = int(np.count_nonzero(pops))    # pops fall with energy
    _, evecs = _eigh(mat, occupied)
    return evecs * np.sqrt(pops[:occupied]), report


def gibbs_state(h: LocalHamiltonian, t):
    """Gibbs state of the assembled Hamiltonian; returns (state, report),
    from gibbs_factor."""
    factor, report = gibbs_factor(assemble(h), t)
    return DensityMatrix(h.num_qubits, factor=factor), report


def gibbs_reports(h: LocalHamiltonian, temps) -> tuple:
    """Thermal reports at each temperature from one eigenvalues-only
    factorisation of H; no density matrix is built. Entry i equals
    gibbs_state(h, temps[i])[1]."""
    temps = [_as_temperature(t) for t in temps]
    evals = _eigh(assemble(h), vectors=False)
    return tuple(_thermal_report(evals, temp) for temp in temps)


def ground_space_factor(mat: np.ndarray, degeneracy_tol: float = _DEGENERACY_TOL):
    """Maximally mixed state over the ground space of a dense Hermitian
    matrix, as the square-root factor V / sqrt(r).

    The ground space is every eigenvector within degeneracy_tol of the
    lowest eigenvalue. A subset solve asks for the lowest _GROUND_SUBSET
    eigenpairs; if all are in it and more remain, an eigenvalues-only solve
    of every level counts those at or below lowest + degeneracy_tol, and one
    more subset solve asks for exactly that many. V holds the r ground vectors.
    """
    if not 0 <= degeneracy_tol < np.inf:
        raise ValidationError(f"degeneracy_tol {degeneracy_tol} must be finite and >= 0")
    evals, evecs = _eigh(mat, _GROUND_SUBSET)
    if evals[-1] - evals[0] <= degeneracy_tol and len(evals) < len(mat):
        # a tolerance below rounding (0, say) can count fewer; keep the first then
        count = np.count_nonzero(_eigh(mat, vectors=False) <= evals[0] + degeneracy_tol)
        if count > len(evals):
            evals, evecs = _eigh(mat, count)
    vecs = evecs[:, evals - evals[0] <= degeneracy_tol]
    return vecs / np.sqrt(vecs.shape[1])


def ground_projector_state(h: LocalHamiltonian, degeneracy_tol: float = _DEGENERACY_TOL):
    """T -> 0 limit: maximally mixed state over the ground space of the
    assembled Hamiltonian, from ground_space_factor."""
    factor = ground_space_factor(assemble(h), degeneracy_tol)
    return DensityMatrix(h.num_qubits, factor=factor)


def mean_energy_bound(a: float, d: float, n: int, e_max: float, t) -> EnergyBound:
    """Upper bound on the Gibbs mean energy when the ground energy is >= a."""
    temp = _as_temperature(t)
    if not d > a:
        raise ValidationError(f"bound needs d > a, got a={a}, d={d}")
    if n < 1:
        raise ValidationError(f"qubit count n={n} must be >= 1")
    if e_max < a:
        raise ValidationError(f"e_max {e_max} below ground floor a={a}")
    cutoff = a + 0.5 * (d - a)
    exponent = n * _LN2 - 0.5 * (d - a) / temp.value
    rhs = cutoff + math.exp(exponent) * e_max if exponent < 700 else math.inf
    return EnergyBound(float(rhs), float(cutoff))


def _decision_energy(length: int) -> float:
    """The promise's decision energy d = 1/(2(L+1)) for a length-L clock."""
    return 1.0 / (2.0 * (length + 1))


def decision_temperature(epsilon: float, length: int, n: int) -> DecisionTemperature:
    """Temperature and decision energy for promise classification.

    T = (1-2 eps) / (4 ln2 (L+1) n), decision energy d = 1/(2(L+1)); n
    counts the compiled instance's input, ancilla and clock qubits.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValidationError(f"epsilon {epsilon} outside (0, 1/2)")
    if length < 1 or n < 1:
        raise ValidationError("length and n must be >= 1")
    t = (1.0 - 2.0 * epsilon) / (4.0 * _LN2 * (length + 1) * n)
    return DecisionTemperature(Temperature(t), _decision_energy(length))


def _verdict(mean_energy: float, decision_energy: float) -> str:
    """The thermal decision: witness-exists when mean <= d, else no-witness."""
    return "witness-exists" if mean_energy <= decision_energy else "no-witness"


def gibbs_decide(h: LocalHamiltonian, t, decision_energy: float | None = None):
    """Classify by Gibbs mean energy; returns (verdict, report).

    witness-exists when mean <= decision_energy, no-witness otherwise.
    Passing a DecisionTemperature uses its temperature and, unless
    overridden, its decision energy d.
    """
    if isinstance(t, DecisionTemperature):
        if decision_energy is None:
            decision_energy = t.decision_energy
        t = t.temperature
    if decision_energy is None or not math.isfinite(decision_energy):
        raise ValidationError(f"decision energy must be finite, got {decision_energy}")
    report = gibbs_reports(h, [t])[0]
    return _verdict(report.mean_energy, decision_energy), report
