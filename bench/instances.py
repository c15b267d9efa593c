"""Seeded instance generators for the benchmark.

Every instance is drawn from a generator keyed by (seed, op index, family),
so the same seed always yields the same inputs and no two ops of a run share
one. Instances are plain descriptions; the workloads turn them into circuit
files or qclock objects outside the timed region.
"""

from __future__ import annotations

import zlib
from typing import NamedTuple

import numpy as np

ONE_QUBIT = ("I", "X", "Y", "Z", "H", "S", "T")
TWO_QUBIT = ("CNOT", "CZ")
EPSILON = 0.25


def stream(seed: int, index: int, family: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index), zlib.crc32(family.encode())])


class CircuitSpec(NamedTuple):
    n_input: int
    n_ancilla: int
    accept: int
    gates: tuple          # ((label, (q, ...)), ...), gates[0] applied first
    perfect: bool         # some input is accepted with certainty; else none is

    @property
    def width(self) -> int:
        return self.n_input + self.n_ancilla

    @property
    def length(self) -> int:
        return len(self.gates)

    @property
    def num_qubits(self) -> int:
        return self.width + self.length

    def to_text(self) -> str:
        lines = [f"n_input {self.n_input}", f"n_ancilla {self.n_ancilla}",
                 f"accept {self.accept}", f"epsilon {EPSILON}"]
        lines += [f"gate {label} " + " ".join(map(str, targets))
                  for label, targets in self.gates]
        return "\n".join(lines) + "\n"


def _random_gates(rng, qubits: int, length: int) -> tuple:
    gates = []
    for _ in range(length):
        if qubits >= 2 and rng.random() < 0.4:
            a, b = rng.choice(qubits, size=2, replace=False)
            gates.append((str(rng.choice(TWO_QUBIT)), (int(a), int(b))))
        else:
            gates.append((str(rng.choice(ONE_QUBIT)), (int(rng.integers(qubits)),)))
    return tuple(gates)


def perfect_circuit(rng, n_input: int, length: int) -> CircuitSpec:
    """No ancillas: the accept projector pulled back through any unitary has
    eigenvalue 1, so some input is accepted with certainty."""
    return CircuitSpec(n_input, 0, int(rng.integers(n_input)),
                       _random_gates(rng, n_input, length), True)


def all_reject_circuit(rng, n_input: int, length: int) -> CircuitSpec:
    """The accept qubit is an ancilla no gate touches, so it always reads 0."""
    return CircuitSpec(n_input, 1, n_input,
                       _random_gates(rng, n_input, length), False)


class LocalSpec(NamedTuple):
    num_qubits: int
    terms: tuple          # ((weight, support, matrix), ...)


def _unit_interval_hermitian(rng, k: int) -> np.ndarray:
    d = 2 ** k
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = (a + a.conj().T) / 2
    lo, hi = np.linalg.eigvalsh(m)[[0, -1]]
    m = (m - lo * np.eye(d)) / (hi - lo)
    return (m + m.conj().T) / 2


def local_hamiltonian(rng, num_qubits: int, num_terms: int) -> LocalSpec:
    """Terms on 1 to 3 random qubits, each PSD with spectrum in [0, 1] and a
    weight in [0.2, 2], as in acceptance criterion 08."""
    terms = []
    for _ in range(num_terms):
        k = int(rng.integers(1, 4))
        support = tuple(sorted(int(q) for q in rng.choice(num_qubits, size=k, replace=False)))
        matrix = _unit_interval_hermitian(rng, k)
        terms.append((float(rng.uniform(0.2, 2.0)), support, matrix))
    return LocalSpec(num_qubits, tuple(terms))


class Distinct:
    """Draws instances for successive op indices and redraws on a repeat, so
    no input is seen twice in one process."""

    def __init__(self, seed: int, family: str, draw):
        self.seed, self.family, self.draw = seed, family, draw
        self._seen = set()

    def __call__(self, index: int):
        rng = stream(self.seed, index, self.family)
        while True:
            spec = self.draw(rng, index)
            key = repr(spec) if isinstance(spec, CircuitSpec) else _local_key(spec)
            if key not in self._seen:
                self._seen.add(key)
                return spec


def _local_key(spec: LocalSpec) -> bytes:
    return b"".join(np.asarray(m).tobytes() + repr((w, s)).encode()
                    for w, s, m in spec.terms)
