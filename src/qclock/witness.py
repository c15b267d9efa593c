"""Witness extraction from low-energy states, and the POVM verifier.

prepare_witness cools the legal-clock restriction H' of the (replicated)
circuit, clockham.legal_hamiltonian: the clock penalty -> infinity limit of
the compiled Hamiltonian, already in the history frame, of dimension
2^w (L+1) instead of 2^(w+L). A low-energy source maps H' alone to a
square-root factor F of a state on it (rho = F F^dag); the energy is
<F|H' F>, and the input-register trace of F F^dag is A A^dag for a reshape
A of F, so the witness is built from the factor A. No 2^N register is
compiled, assembled or pulled back. extract_witness takes a
user's state on the full compiled register instead: its factor is pulled
back through the history transform W, and the same trace follows. Only the
2^n x 2^n witness on the input register is ever formed as a matrix. For the
verifier, a term of weight w_j is drawn with probability w_j / total_weight
and its matrix measured as a two-outcome POVM, so the overall acceptance is
1 - tr(rho H) / total_weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConsistencyError, ValidationError
from .qcore import DensityMatrix, RegisterLayout, _check_factor, named_stream
from .circuit import (
    EXPLICIT_LABELS, Circuit, Gate, _accept_on, _optimal_on, acceptance_operator,
)
from .clockham import (
    LocalHamiltonian, _legal_dimension, _projection_leak, compile_circuit,
    history_pull_back, legal_hamiltonian, term_expectation,
)
from .spectral import matvec
from .thermal import _decision_energy

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
    leak: float = 0.0           # _projection_leak of the default compiled H when
                                # the energy was taken on the legal restriction


def hamiltonian_energy(rho: DensityMatrix, h: LocalHamiltonian) -> float:
    """tr(rho H) = sum_i <f_i|H f_i> over the columns f_i of rho's factor,
    with H applied matrix-free (no assembly)."""
    if rho.num_qubits != h.num_qubits:
        raise ValidationError("state and Hamiltonian qubit counts differ")
    f = rho.factor
    return float(np.vdot(f, matvec(h, f)).real)


def _witness_tail(f: np.ndarray, m: np.ndarray, meta: Circuit,
                  pick: int | None = None):
    """Read an input witness of c out of a history-frame factor F of meta.

    m is c's acceptance operator; meta is c or its k-copy replica. F's rows
    lead with meta's input and ancilla register x: x (L+1) + t for a
    legal_hamiltonian factor, or x 2^L + clock bits for a full-register
    factor pulled back through W. The trace of F F^dag onto input block i
    is A A^dag, where A is F reshaped so that block i's qubits index the
    rows. The witness is the uniform mixture over the k blocks, or block
    `pick` alone: the state with factor [A_1 ... A_k] / sqrt(k). Returns
    (witness, acceptance of c on it).
    """
    n = len(m).bit_length() - 1
    blocks = range(meta.n_input // n) if pick is None else (pick,)
    a = np.hstack([f.reshape(2 ** (i * n), 2 ** n, -1).swapaxes(0, 1).reshape(2 ** n, -1)
                   for i in blocks])
    sigma = DensityMatrix(n, factor=a / math.sqrt(len(blocks)))
    return sigma, _accept_on(m, sigma)


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
    sigma, acc = _witness_tail(history_pull_back(c, rho.factor),
                               acceptance_operator(c), c, pick=0)
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
            matrix = g.matrix if g.label in EXPLICIT_LABELS else None
            gates.append(Gate(g.label, targets, matrix))
    accepts = tuple(remap(c.accept_qubit, copy) for copy in range(k))
    meta = Circuit(RegisterLayout(k * n, k * m), tuple(gates), accepts[0], c.epsilon)
    return meta, accepts


LowEnergySource = Callable[[np.ndarray], np.ndarray]


def prepare_witness(c: Circuit, params: WitnessParams, source: LowEnergySource,
                    target_energy: float | None = None,
                    sample_register: bool = False) -> WitnessResult:
    """Full pipeline: replicate, restrict, cool, grade, extract.

    The k-copy meta-verifier carries one out-term per copy (the majority
    comparator itself is classical post-processing and is never compiled).
    source(H') cools H' = legal_hamiltonian(meta, accepts), the clock
    penalty -> infinity limit, and returns a square-root factor F with rows
    indexed x (L+1) + t; thermal.ground_space_factor and
    thermal.gibbs_factor fit. The energy is <F|H' F>; it must not exceed
    target_energy, by default the promise's decision energy 1/(2(L+1)) of
    meta. result.leak is clockham._projection_leak(meta, accepts): how far
    the compiled Hamiltonian's ground energy at the default penalty may lie
    below H''s. For a finite penalty, compile meta and call extract_witness
    on its state. The witness is the uniform mixture over the k input
    sub-registers, or one seeded choice when sample_register is set. When
    the circuit has no witness (max acceptance <= epsilon) the result is
    flagged and the energy target is not enforced.
    """
    # the cap comes before the k L replicated gates are built
    _legal_dimension(params.k * (c.n_input + c.n_ancilla), params.k * c.length)
    meta, accepts = replicate_circuit(c, params.k)
    target = (_decision_energy(meta.length)
              if target_energy is None else float(target_energy))
    if not math.isfinite(target):
        raise ValidationError(f"target energy {target} must be finite")
    h = legal_hamiltonian(meta, accepts)
    m = acceptance_operator(c)
    opt = _optimal_on(m)
    flags = []
    no_witness = opt.probability <= c.epsilon + 1e-12
    if no_witness:
        flags.append("no-witness-regime")
    if opt.degenerate:
        flags.append("degenerate")
    f = _check_factor(source(h), len(h), "low-energy source")
    energy = float(np.vdot(f, h @ f).real)
    if not no_witness and energy > target + 1e-9:
        raise ConsistencyError(
            f"low-energy source achieved {energy!r}, above target {target!r}"
        )

    pick = None
    if sample_register:
        pick = int(named_stream(params.seed, "register-choice").integers(params.k))
    sigma, acc = _witness_tail(f, m, meta, pick)
    return WitnessResult(sigma, acc, energy, tuple(flags), params.k, params.seed,
                         _projection_leak(meta, accepts))


def sufficient_copies(delta: float) -> int:
    """Smallest k with k > 16/delta^4 (reported only, never allocated)."""
    if not 0.0 < delta <= 1.0:
        raise ValidationError(f"delta {delta} outside (0, 1]")
    # exact in rationals: 16/delta^4 overflows a float below about 1e-77
    return math.floor(16 / Fraction(delta) ** 4) + 1
