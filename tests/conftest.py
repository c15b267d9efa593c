"""Shared builders for the test suite.

Randomized tests draw from seeded generators so every run sees the same
instances. Oracles inside tests are written independently of the package
internals (explicit kron loops, direct matrix exponentials, brute-force
binomial sums) so agreement is evidence, not tautology.
"""

import os
import zlib
from pathlib import Path

import numpy as np
import pytest

import qclock
from qclock import (
    Circuit, DensityMatrix, Gate, LocalHamiltonian, LocalTerm, PureState,
    RegisterLayout,
)

GATE_POOL = ("I", "X", "Y", "Z", "H", "S", "T")
TWO_QUBIT_POOL = ("CNOT", "CZ")


def rng_for(name: str, seed: int = 20260819) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def random_circuit(rng, n_input=None, n_ancilla=None, length=None,
                   epsilon: float = 0.25) -> Circuit:
    """Random circuit from the named-gate pool with a valid accept qubit."""
    if n_input is None:
        n_input = int(rng.integers(1, 4))
    if n_ancilla is None:
        n_ancilla = int(rng.integers(0, max(1, 5 - n_input)))
    if length is None:
        length = int(rng.integers(1, 6))
    total = n_input + n_ancilla
    gates = []
    for _ in range(length):
        if total >= 2 and rng.random() < 0.4:
            a, b = rng.choice(total, size=2, replace=False)
            gates.append(Gate(str(rng.choice(TWO_QUBIT_POOL)), (int(a), int(b))))
        else:
            gates.append(Gate(str(rng.choice(GATE_POOL)),
                              (int(rng.integers(0, total)),)))
    accept = int(rng.integers(0, total))
    return Circuit(RegisterLayout(n_input, n_ancilla), tuple(gates),
                   accept_qubit=accept, epsilon=epsilon)


def perfect_circuit(rng, n_input: int, length: int) -> Circuit:
    """No-ancilla circuit; its acceptance operator has a +1 eigenvector,
    so the best witness is accepted with probability exactly 1."""
    c = random_circuit(rng, n_input=n_input, n_ancilla=0, length=length)
    return c


def all_reject_circuit(rng, n_input: int, length: int) -> Circuit:
    """Accept qubit is an ancilla no gate touches: acceptance 0 always."""
    gates = []
    for _ in range(length):
        gates.append(Gate(str(rng.choice(GATE_POOL)),
                          (int(rng.integers(0, n_input)),)))
    return Circuit(RegisterLayout(n_input, 1), tuple(gates),
                   accept_qubit=n_input, epsilon=0.25)


def random_pure_state(rng, num_qubits: int) -> PureState:
    v = rng.normal(size=2 ** num_qubits) + 1j * rng.normal(size=2 ** num_qubits)
    return PureState(num_qubits, v / np.linalg.norm(v))


def random_density_matrix(rng, num_qubits: int, rank=None) -> DensityMatrix:
    d = 2 ** num_qubits
    r = rank or d
    a = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = a @ a.conj().T
    return DensityMatrix(num_qubits, m / np.trace(m).real)


def random_unit_interval_hermitian(rng, k: int) -> np.ndarray:
    """Random Hermitian with spectrum inside [0, 1] (valid POVM element)."""
    d = 2 ** k
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = (a + a.conj().T) / 2
    lo, hi = np.linalg.eigvalsh(m)[[0, -1]]
    if hi - lo < 1e-12:
        return np.eye(d) * 0.5
    return (m - lo * np.eye(d)) / (hi - lo)


def random_povm_hamiltonian(rng, num_qubits: int, num_terms: int) -> LocalHamiltonian:
    """3-local terms, each PSD with norm <= 1, positive weights."""
    terms = []
    for _ in range(num_terms):
        k = int(rng.integers(1, min(4, num_qubits + 1)))
        support = tuple(sorted(int(x) for x in
                               rng.choice(num_qubits, size=k, replace=False)))
        mat = random_unit_interval_hermitian(rng, k)
        terms.append(LocalTerm("in", float(rng.uniform(0.2, 2.0)), support, mat))
    return LocalHamiltonian(num_qubits, tuple(terms))


def _embed_oracle(matrix: np.ndarray, support, n: int) -> np.ndarray:
    """Dense 2^n x 2^n copy of a matrix on `support`: explicit kron against
    identities plus an index-permutation via axis reordering."""
    d = 2 ** n
    # build in support order then permute axes into register order
    rest = [q for q in range(n) if q not in support]
    full = np.kron(matrix, np.eye(2 ** len(rest)))
    order = list(support) + rest
    tensor = full.reshape((2,) * (2 * n))
    inv = np.argsort(order)
    tensor = tensor.transpose(tuple(inv) + tuple(np.array(inv) + n))
    return tensor.reshape(d, d)


def assemble_oracle(h: LocalHamiltonian) -> np.ndarray:
    """Independent dense assembly, written from scratch."""
    n = h.num_qubits
    d = 2 ** n
    out = np.zeros((d, d), dtype=complex)
    for t in h.terms:
        out += t.weight * _embed_oracle(t.matrix, t.support, n)
    return out


def unitary_oracle(c: Circuit) -> np.ndarray:
    """Independent full-register unitary G_L ... G_1, as dense products of
    the embedded gates, written from scratch."""
    n = c.n_input + c.n_ancilla
    u = np.eye(2 ** n, dtype=complex)
    for g in c.gates:
        u = _embed_oracle(g.matrix, g.targets, n) @ u
    return u


def history_transform_oracle(c: Circuit) -> np.ndarray:
    """Independent dense history transform W = W_L ... W_1, written from
    scratch: W_t = U_t (x) |1><1| + I (x) |0><0| on (gate targets, clock
    qubit t), embedded on the compiled register and multiplied densely."""
    width = c.n_input + c.n_ancilla
    n = width + c.length
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    w = np.eye(2 ** n, dtype=complex)
    for t, g in enumerate(c.gates, start=1):
        step = (np.kron(g.matrix, p1)
                + np.kron(np.eye(2 ** len(g.targets)), p0))
        w = _embed_oracle(step, list(g.targets) + [width + t - 1], n) @ w
    return w


def partial_trace_oracle(rho: np.ndarray, keep, n: int) -> np.ndarray:
    """Reduced matrix on the sorted qubits in `keep`, by index arithmetic
    over all basis pairs (qubit 0 is the most significant bit)."""
    keep = sorted(keep)
    drop = [x for x in range(n) if x not in keep]
    out = np.zeros((2 ** len(keep),) * 2, dtype=complex)
    for i in range(2 ** n):
        for j in range(2 ** n):
            bits_i = [(i >> (n - 1 - b)) & 1 for b in range(n)]
            bits_j = [(j >> (n - 1 - b)) & 1 for b in range(n)]
            if any(bits_i[b] != bits_j[b] for b in drop):
                continue
            ri = sum(bits_i[b] << (len(keep) - 1 - s) for s, b in enumerate(keep))
            rj = sum(bits_j[b] << (len(keep) - 1 - s) for s, b in enumerate(keep))
            out[ri, rj] += rho[i, j]
    return out


def accept_oracle(c: Circuit, rho_input: np.ndarray) -> float:
    """Accept probability of a direct run, written from scratch: the input
    state with every ancilla at |0>, conjugated by unitary_oracle(c), summed
    over the diagonal entries whose accept bit is 1."""
    width = c.n_input + c.n_ancilla
    ancillas = np.zeros((2 ** c.n_ancilla,) * 2)
    ancillas[0, 0] = 1.0
    u = unitary_oracle(c)
    evolved = u @ np.kron(rho_input, ancillas) @ u.conj().T
    shift = width - 1 - c.accept_qubit
    return float(sum(evolved[i, i].real for i in range(2 ** width)
                     if (i >> shift) & 1))


def checkout_env(**overrides) -> dict:
    """Environment for a `python -m qclock.cli` child process.

    Its PYTHONPATH starts with the directory of the qclock this process
    imported, then any existing PYTHONPATH: a child that runs in another
    directory, where a relative entry such as `src` no longer resolves,
    still runs the same qclock.
    """
    package_root = str(Path(qclock.__file__).resolve().parent.parent)
    path = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **overrides)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
