"""Verifier circuits: gate list over an input+ancilla register, one accept qubit.

A circuit accepts an input state rho when measuring the accept qubit of
U (rho (x) |0...0><0...0|) U^dag in the computational basis yields 1. Gates
are applied in list order (gates[0] first). That probability is tr(M rho)
for the acceptance operator M = A^dag Pi A, where A = U restricted to
zeroed ancillas and Pi projects the accept qubit onto 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ParseError, ValidationError
from .qcore import (
    _DEGENERACY_TOL, DENSE_QUBIT_CAP, DensityMatrix, PureState, RegisterLayout,
    _check_qubit_count, _check_unitary, _content_lines, _eigh, _entry_lines,
    _parse_entry_lines, _qubit_bits, apply_local, expectation, fmt_float,
)

__all__ = [
    "NAMED_GATES", "Gate", "Circuit", "OptimalWitness", "circuit_unitary",
    "apply_gates", "accept_probability", "acceptance_operator",
    "optimal_witness", "parse_circuit", "serialize_circuit",
]

_SQ2 = 1.0 / np.sqrt(2.0)

# spec'd named gate set; S = diag(1, i), T = diag(1, e^{i pi/4})
NAMED_GATES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "S": np.diag([1.0, 1j]).astype(complex),
    "T": np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex),
}

EXPLICIT_LABELS = ("U1", "U2")  # arbitrary 1- and 2-qubit unitaries


@dataclass(frozen=True)
class Gate:
    label: str
    targets: tuple
    matrix: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        targets = tuple(int(q) for q in self.targets)
        object.__setattr__(self, "targets", targets)
        if len(set(targets)) != len(targets):
            raise ValidationError(f"Gate {self.label}: duplicate targets {targets}")
        if any(q < 0 for q in targets):
            raise ValidationError(f"Gate {self.label}: negative target in {targets}")
        if self.label in NAMED_GATES:
            if self.matrix is not None:
                raise ValidationError(f"Gate {self.label}: named gates fix their matrix")
            object.__setattr__(self, "matrix", NAMED_GATES[self.label])
        elif self.label in EXPLICIT_LABELS:
            if self.matrix is None:
                raise ValidationError(f"Gate {self.label}: explicit matrix required")
            m = np.array(self.matrix, dtype=complex)
            m.flags.writeable = False
            object.__setattr__(self, "matrix", m)
        else:
            raise ValidationError(f"unknown gate label {self.label!r}")
        k = len(targets)
        if self.matrix.shape != (2 ** k, 2 ** k):
            raise ValidationError(
                f"Gate {self.label}: {k} targets but matrix shape {self.matrix.shape}"
            )
        _check_unitary(self.matrix, f"Gate {self.label}")


@dataclass(frozen=True)
class Circuit:
    """Gate sequence with layout (n inputs, m ancillas), accept qubit, epsilon."""

    layout: RegisterLayout
    gates: tuple
    accept_qubit: int
    epsilon: float = 0.25

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        lay = self.layout
        if lay.n_clock != 0:
            raise ValidationError("Circuit layout must not carry a clock register")
        if lay.n_input < 1:
            raise ValidationError("Circuit needs at least one input qubit")
        if len(self.gates) < 1:
            raise ValidationError("Circuit needs at least one gate")
        width = lay.n_input + lay.n_ancilla
        for g in self.gates:
            if max(g.targets) >= width:
                raise ValidationError(
                    f"Gate {g.label} targets {g.targets} outside register of {width}"
                )
        if not 0 <= self.accept_qubit < width:
            raise ValidationError(f"accept qubit {self.accept_qubit} outside register")
        if not 0.0 < self.epsilon <= 1.0 / 3.0:
            raise ValidationError(f"epsilon {self.epsilon} outside (0, 1/3]")

    @property
    def n_input(self) -> int:
        return self.layout.n_input

    @property
    def n_ancilla(self) -> int:
        return self.layout.n_ancilla

    @property
    def length(self) -> int:
        return len(self.gates)


class OptimalWitness(NamedTuple):
    state: PureState
    probability: float
    degenerate: bool


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full-register unitary U = G_L ... G_1 (gates[0] applied first), as a
    read-only 2^w x 2^w array. A register past DENSE_QUBIT_CAP is refused
    before anything is allocated. Each gate was checked unitary when it
    was built, so the product is not checked again."""
    n = c.n_input + c.n_ancilla
    _check_qubit_count(n, DENSE_QUBIT_CAP, "circuit_unitary")
    u = apply_gates(c, np.eye(2 ** n, dtype=complex))
    u.flags.writeable = False
    return u


def apply_gates(c: Circuit, vec: np.ndarray) -> np.ndarray:
    """Apply the gate sequence to a full-register vector or block of columns."""
    n = c.n_input + c.n_ancilla
    for g in c.gates:
        vec = apply_local(g.matrix, g.targets, n, vec)
    return vec


def _conjugate_diagonal(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """A^dag diag(d) A for a real vector d, made exactly Hermitian."""
    mat = (a.conj().T * d) @ a
    return 0.5 * (mat + mat.conj().T)


def accept_probability(c: Circuit, rho_input: DensityMatrix) -> float:
    """P(accept qubit reads 1) after running c on rho_input with |0..0> ancillas."""
    if rho_input.num_qubits != c.n_input:
        raise ValidationError(
            f"input state has {rho_input.num_qubits} qubits, circuit expects {c.n_input}"
        )
    return _accept_on(acceptance_operator(c), rho_input)


def _accept_on(m: np.ndarray, rho_input: DensityMatrix) -> float:
    """tr(M rho_input) clipped to [0, 1], for an acceptance operator M."""
    p = expectation(rho_input, m)
    return min(max(p, 0.0), 1.0)


def acceptance_operator(c: Circuit) -> np.ndarray:
    """M on the input register with <psi|M|psi> = accept probability, as a
    read-only 2^n x 2^n array. M is Hermitian by construction: it is the
    average of A^dag Pi A and its conjugate transpose."""
    n, m = c.n_input, c.n_ancilla
    # columns of U with ancillas at |0..0>
    a = circuit_unitary(c)[:, np.arange(2 ** n) << m]
    mat = _conjugate_diagonal(a, _qubit_bits(n + m, c.accept_qubit))
    mat.flags.writeable = False
    return mat


def optimal_witness(c: Circuit, degeneracy_tol: float = _DEGENERACY_TOL) -> OptimalWitness:
    """Input state maximizing acceptance; flagged when the maximum is degenerate."""
    if not 0 <= degeneracy_tol < np.inf:
        raise ValidationError(f"degeneracy_tol {degeneracy_tol} must be finite and >= 0")
    return _optimal_on(acceptance_operator(c), degeneracy_tol)


def _optimal_on(m: np.ndarray, degeneracy_tol: float = _DEGENERACY_TOL) -> OptimalWitness:
    """optimal_witness for an acceptance operator M: its top eigenpair."""
    evals, evecs = _eigh(m)
    top = evals[-1]
    degenerate = len(evals) > 1 and (top - evals[-2]) <= degeneracy_tol
    vec = evecs[:, -1]
    vec = vec / np.linalg.norm(vec)
    return OptimalWitness(PureState(len(m).bit_length() - 1, vec),
                          float(np.clip(top, 0.0, 1.0)), bool(degenerate))


# --- circuit text format ----------------------------------------------------
#
#   n_input 2
#   n_ancilla 1
#   accept 0
#   epsilon 0.25
#   gate H 0
#   gate U1 1        <- followed by 4 (U1) or 16 (U2) `re im` lines, row-major

def parse_circuit(text: str) -> Circuit:
    lines = _content_lines(text)
    fields = {}
    gates = []
    i = 0
    while i < len(lines):
        lineno, content = lines[i]
        parts = content.split()
        key = parts[0]
        if key in ("n_input", "n_ancilla", "accept"):
            if len(parts) != 2:
                raise ParseError(f"expected `{key} <int>`", line=lineno)
            if key in fields:
                raise ParseError(f"duplicate field {key}", line=lineno)
            try:
                fields[key] = int(parts[1])
            except ValueError:
                raise ParseError(f"bad integer {parts[1]!r}", line=lineno) from None
            i += 1
        elif key == "epsilon":
            if len(parts) != 2:
                raise ParseError("expected `epsilon <real>`", line=lineno)
            if key in fields:
                raise ParseError("duplicate field epsilon", line=lineno)
            try:
                fields[key] = float(parts[1])
            except ValueError:
                raise ParseError(f"bad real {parts[1]!r}", line=lineno) from None
            i += 1
        elif key == "gate":
            if len(parts) < 3:
                raise ParseError("expected `gate LABEL q [q2]`", line=lineno)
            label = parts[1]
            try:
                targets = tuple(int(p) for p in parts[2:])
            except ValueError:
                raise ParseError(f"bad target in {content!r}", line=lineno) from None
            matrix = None
            i += 1
            if label in EXPLICIT_LABELS:
                k = 1 if label == "U1" else 2
                count = 4 ** k
                vals = _parse_entry_lines(lines[i:], lineno, count)
                matrix = vals.reshape(2 ** k, 2 ** k)
                i += count
            try:
                gates.append(Gate(label, targets, matrix))
            except ValidationError as exc:
                raise ParseError(str(exc), line=lineno) from None
        else:
            raise ParseError(f"unknown directive {key!r}", line=lineno)
    for req in ("n_input", "n_ancilla", "accept"):
        if req not in fields:
            raise ParseError(f"missing field {req}", line=lines[-1][0] if lines else 1)
    try:
        return Circuit(
            RegisterLayout(fields["n_input"], fields["n_ancilla"]),
            tuple(gates),
            fields["accept"],
            fields.get("epsilon", 0.25),
        )
    except ValidationError as exc:
        raise ParseError(str(exc), line=lines[0][0] if lines else 1) from None


def serialize_circuit(c: Circuit) -> str:
    """Canonical text form: fixed field order, 17 significant digits."""
    out = [
        f"n_input {c.n_input}",
        f"n_ancilla {c.n_ancilla}",
        f"accept {c.accept_qubit}",
        f"epsilon {fmt_float(c.epsilon)}",
    ]
    for g in c.gates:
        out.append("gate " + g.label + " " + " ".join(str(q) for q in g.targets))
        if g.label in EXPLICIT_LABELS:
            out.extend(_entry_lines(g.matrix.reshape(-1)))
    return "\n".join(out) + "\n"
