"""Witness extraction from low-energy states, and the POVM verifier.

The extraction map undoes the history correlation: pull the state back
through the history transform and keep the input register. Both steps and
the energy run on the state's square-root factor F (rho = F F^dag): the
inverse clock-controlled gates act on the columns of F, the input-register
trace is A A^dag for a reshape A of the pulled-back factor, and tr(rho H)
sums <f|H f> with a matrix-free H. No 2^N x 2^N matrix is formed, only
the 2^n x 2^n witness on the input register. For the verifier,
a term of weight w_j is drawn with probability w_j / total_weight and its
matrix measured as a two-outcome POVM, so the overall acceptance is
1 - tr(rho H) / total_weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConsistencyError, ValidationError
from .qcore import DensityMatrix, RegisterLayout, named_stream
from .circuit import Circuit, Gate, accept_probability, optimal_witness
from .clockham import (
    LocalHamiltonian, compile_circuit, history_pull_back, term_expectation,
)
from .spectral import matvec

__all__ = [
    "WitnessParams", "WitnessResult", "extract_witness", "povm_verifier_accept",
    "povm_verifier_sample", "replicate_circuit", "prepare_witness",
    "sufficient_copies", "hamiltonian_energy",
]


@dataclass(frozen=True)
class WitnessParams:
    """Pipeline parameters: copy count k, RNG seed."""

    k: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"copy count k={self.k} must be >= 1")


class WitnessResult(NamedTuple):
    witness: DensityMatrix      # state on the input register
    accept_probability: float   # of the original circuit on the witness
    energy: float               # tr(rho H) of the supplied low-energy state
    flags: tuple                # subset of {"no-witness-regime", "degenerate"}
    k: int
    seed: int


def hamiltonian_energy(rho: DensityMatrix, h: LocalHamiltonian) -> float:
    """tr(rho H) = sum_i <f_i|H f_i> over the columns f_i of rho's factor,
    with H applied matrix-free (no assembly)."""
    if rho.num_qubits != h.num_qubits:
        raise ValidationError("state and Hamiltonian qubit counts differ")
    f = rho.factor
    return float(np.vdot(f, matvec(h, f)).real)


def _witness_tail(rho: DensityMatrix, c: Circuit, meta: Circuit,
                  pick: int | None = None):
    """Read an input witness of c out of a state of meta's register.

    meta is c or its k-copy replica. rho's factor F is pulled back to
    W^dag F through meta's history transform W. The trace of
    W^dag F F^dag W onto input block i is A A^dag, where A is W^dag F
    reshaped so that block i's qubits index the rows. The witness is the
    uniform mixture over the k blocks, or block `pick` alone. Returns
    (witness, acceptance of c on it).
    """
    pulled = history_pull_back(meta, rho.factor)
    n = c.n_input
    blocks = range(meta.n_input // n) if pick is None else (pick,)
    sigma = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in blocks:
        a = pulled.reshape(2 ** (i * n), 2 ** n, -1).swapaxes(0, 1).reshape(2 ** n, -1)
        sigma += a @ a.conj().T
    sigma = DensityMatrix(n, sigma / len(blocks))
    return sigma, accept_probability(c, sigma).accept_probability


def extract_witness(rho: DensityMatrix, c: Circuit,
                    ham: LocalHamiltonian | None = None) -> WitnessResult:
    """Pull rho back through the history transform, keep the input register.

    ham defaults to compile_circuit(c); pass the Hamiltonian that produced
    rho when a non-default clock penalty was used, so the reported energy
    matches.
    """
    expected = c.n_input + c.n_ancilla + c.length
    if rho.num_qubits != expected:
        raise ValidationError(
            f"state has {rho.num_qubits} qubits, compiled register needs {expected}"
        )
    if ham is None:
        ham = compile_circuit(c)
    elif ham.num_qubits != expected:
        raise ValidationError("Hamiltonian register does not match the circuit")
    sigma, acc = _witness_tail(rho, c, c, pick=0)
    energy = hamiltonian_energy(rho, ham)
    return WitnessResult(sigma, acc, energy, (), 1, 0)


def povm_verifier_accept(rho: DensityMatrix, h: LocalHamiltonian) -> float:
    """Acceptance 1 - tr(rho H)/total_weight of the term-sampling verifier."""
    total = h.total_weight
    if total <= 0:
        raise ValidationError("verifier needs at least one term")
    energy = hamiltonian_energy(rho, h)
    if energy > total + 1e-9:
        raise ConsistencyError(
            f"tr(rho H) = {energy!r} exceeds total weight {total!r}"
        )
    return 1.0 - energy / total


def povm_verifier_sample(rho: DensityMatrix, h: LocalHamiltonian,
                         shots: int, seed: int = 0):
    """Monte Carlo of the two-stage verifier; returns (estimate, stderr).

    Every term matrix must have spectrum inside [0, 1] to be a POVM
    element; hopping terms of compiled Hamiltonians do not qualify.
    """
    if shots < 1:
        raise ValidationError(f"shots {shots} must be >= 1")
    total = h.total_weight
    if total <= 0:
        raise ValidationError("verifier needs at least one term")
    reject_probs = np.array([term_expectation(rho, t) for t in h.terms])
    slack = 1e-9
    if reject_probs.min() < -slack or reject_probs.max() > 1.0 + slack:
        bad = reject_probs.min() if reject_probs.min() < -slack else reject_probs.max()
        raise ConsistencyError(
            f"term rejection probability {bad!r} outside [0, 1]; "
            "terms must be PSD with norm <= 1 to act as POVM elements"
        )
    reject_probs = np.clip(reject_probs, 0.0, 1.0)
    weights = np.array([t.weight for t in h.terms]) / total
    rng = named_stream(seed, "povm-shots")
    chosen = rng.choice(len(h.terms), size=shots, p=weights)
    rejected = rng.random(shots) < reject_probs[chosen]
    estimate = 1.0 - rejected.mean()
    stderr = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / shots)
    return float(estimate), float(stderr)


def replicate_circuit(c: Circuit, k: int):
    """k disjoint copies on one register (inputs first, then ancillas).

    Copy i keeps its own input block [i*n, (i+1)*n) and ancilla block;
    returns (meta_circuit, accept_qubits) with one accept per copy.
    """
    if k < 1:
        raise ValidationError(f"copy count {k} must be >= 1")
    if k == 1:
        return c, (c.accept_qubit,)
    n, m = c.n_input, c.n_ancilla

    def remap(q: int, copy: int) -> int:
        if q < n:
            return copy * n + q
        return k * n + copy * m + (q - n)

    gates = []
    for copy in range(k):
        for g in c.gates:
            targets = tuple(remap(q, copy) for q in g.targets)
            matrix = g.matrix if g.label in ("U1", "U2") else None
            gates.append(Gate(g.label, targets, matrix))
    accepts = tuple(remap(c.accept_qubit, copy) for copy in range(k))
    meta = Circuit(RegisterLayout(k * n, k * m), tuple(gates), accepts[0], c.epsilon)
    return meta, accepts


LowEnergySource = Callable[[LocalHamiltonian, float], DensityMatrix]


def prepare_witness(c: Circuit, params: WitnessParams, source: LowEnergySource,
                    clock_penalty: float | None = None,
                    target_energy: float | None = None,
                    sample_register: bool = False) -> WitnessResult:
    """Full pipeline: replicate, compile, cool, extract, restrict, grade.

    The k-copy meta-verifier carries one out-term per copy (the majority
    comparator itself is classical post-processing and is never compiled).
    The witness is the uniform mixture over the k input sub-registers, or
    one seeded choice when sample_register is set. When the circuit has no
    witness (max acceptance <= epsilon) the result is flagged and the
    source's energy target is not enforced.
    """
    opt = optimal_witness(c)
    flags = []
    no_witness = opt.probability <= c.epsilon + 1e-12
    if no_witness:
        flags.append("no-witness-regime")
    if opt.degenerate:
        flags.append("degenerate")

    meta, accepts = replicate_circuit(c, params.k)
    h = compile_circuit(meta, clock_penalty=clock_penalty, accept_qubits=accepts)
    target = (1.0 / (2.0 * (meta.length + 1))
              if target_energy is None else float(target_energy))
    if not math.isfinite(target):
        raise ValidationError(f"target energy {target} must be finite")
    rho = source(h, target)
    if not isinstance(rho, DensityMatrix) or rho.num_qubits != h.num_qubits:
        raise ValidationError("low-energy source returned a mismatched state")
    energy = hamiltonian_energy(rho, h)
    if not no_witness and energy > target + 1e-9:
        raise ConsistencyError(
            f"low-energy source achieved {energy!r}, above target {target!r}"
        )

    pick = None
    if sample_register:
        pick = int(named_stream(params.seed, "register-choice").integers(params.k))
    sigma, acc = _witness_tail(rho, c, meta, pick)
    return WitnessResult(sigma, acc, energy, tuple(flags), params.k, params.seed)


def sufficient_copies(delta: float) -> int:
    """Smallest k with k > 16/delta^4 (reported only, never allocated)."""
    if not 0.0 < delta <= 1.0:
        raise ValidationError(f"delta {delta} outside (0, 1]")
    return int(math.floor(16.0 / delta ** 4)) + 1
