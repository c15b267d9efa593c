"""Compile verifier circuits into 3-local clock Hamiltonians.

The compiled operator is H = H_in + H_out + H_prop + H_clock on the register
(input, ancilla, clock), with a unary clock: step t is encoded as 1^t 0^(L-t)
on L clock qubits. Low-energy states of H are history states

    |eta> = (L+1)^(-1/2) sum_t (U_t ... U_1 |input, 0...0>) (x) |t>

whose energy reproduces 1 - accept probability, scaled by 1/(L+1).

Parts and weights:
  clock           weight clock_penalty (default L^12), |01><01| on every
                  clock pair i<j; penalizes non-unary bitstrings
  in              weight 1 per ancilla, |1><1| (x) |0><0| on (ancilla, clock 1)
  out             weight 1, |0><0| (x) |1><1| on (accept, clock L)
  prop_projector  weight 1/2, the two clock-pattern projectors of each step
  prop_hopping    weight 1/2, -U_t (x) |1>_t<0| - U_t^dag (x) |0>_t<1| on
                  (gate targets, clock t); Hermitian, norm 1, not PSD

The hopping acts on clock qubit t alone, so it couples legal and illegal
clock sectors; the clock penalty suppresses the coupling to O(1/penalty)
but the assembled matrix is not exactly PSD (ground energies of perfect
instances sit a hair below zero, bounded by -O(L)/penalty).

legal_hamiltonian gives the penalty -> infinity limit without the 2^N
register: in + out + prop on the L+1 legal clock states, in the history
frame, as a dense matrix of dimension 2^(n+m) (L+1). The compiled ground
energy at a finite penalty J lies at most the Kempe-Kitaev-Regev leak
||H1||^2 / (J - 2 ||H1||) below it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ResourceLimitError, ValidationError
from .qcore import (
    DENSE_QUBIT_CAP, QUBIT_CAP, DensityMatrix, PureState, RegisterLayout,
    _check_hermitian, _check_qubit_count, _check_unitary, _content_lines,
    _entry_lines, _parse_entry_lines, _parse_header, apply_local, fmt_float,
    permute_to_sorted,
)
from .circuit import Circuit, apply_gates

PARTS = ("in", "out", "prop_projector", "prop_hopping", "clock")
_PSD_PARTS = ("in", "out", "prop_projector", "clock")

_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)
_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|

# widest support a fused group of terms may span (see LocalHamiltonian.fused)
_FUSE_WIDTH = 4

__all__ = [
    "PARTS", "LocalTerm", "LocalHamiltonian", "ClockState", "unary_encode",
    "compile_circuit", "history_pull_back", "history_state",
    "legal_hamiltonian", "term_expectation",
    "parse_hamiltonian", "serialize_hamiltonian",
]


def unary_encode(t: int, length: int) -> str:
    """Unary clock bit pattern 1^t 0^(L-t)."""
    if not 0 <= t <= length:
        raise ValidationError(f"clock value {t} outside 0..{length}")
    return "1" * t + "0" * (length - t)


@dataclass(frozen=True)
class ClockState:
    """Clock register value t on length qubits, unary encoded."""

    t: int
    length: int

    def __post_init__(self):
        unary_encode(self.t, self.length)  # range check

    @property
    def bits(self) -> str:
        return unary_encode(self.t, self.length)

    @property
    def basis_index(self) -> int:
        return int(self.bits, 2) if self.length else 0


@dataclass(frozen=True)
class LocalTerm:
    """One weighted k-local term (k <= 3), matrix given on sorted support."""

    part: str
    weight: float
    support: tuple
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.part not in PARTS:
            raise ValidationError(f"unknown part tag {self.part!r}")
        if not (self.weight > 0 and np.isfinite(self.weight)):
            raise ValidationError(f"term weight {self.weight} must be positive and finite")
        support = tuple(int(q) for q in self.support)
        object.__setattr__(self, "support", support)
        if not 1 <= len(support) <= 3:
            raise ValidationError(f"support size {len(support)} outside 1..3")
        if list(support) != sorted(set(support)):
            raise ValidationError(f"support {support} must be strictly increasing")
        m = np.array(self.matrix, dtype=complex)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        k = len(support)
        if m.shape != (2 ** k, 2 ** k):
            raise ValidationError(f"matrix shape {m.shape} does not match support {support}")
        if not np.isfinite(m).all():
            raise ValidationError("term matrix has a non-finite entry")
        _check_hermitian(m, "term matrix")
        evals = np.linalg.eigvalsh(m)
        if max(abs(evals[0]), abs(evals[-1])) > 1.0 + 1e-12:
            raise ValidationError(f"term norm {max(abs(evals)):.6f} exceeds 1")
        if self.part in _PSD_PARTS and evals[0] < -1e-10:
            raise ValidationError(
                f"{self.part} term has negative eigenvalue {evals[0]:.3e}"
            )


@dataclass(frozen=True)
class LocalHamiltonian:
    """Weighted sum of local terms over an (input, ancilla, clock) register."""

    layout: RegisterLayout
    terms: tuple

    def __post_init__(self):
        if isinstance(self.layout, int):
            # plain register with no clock semantics
            object.__setattr__(self, "layout", RegisterLayout(self.layout, 0))
        object.__setattr__(self, "terms", tuple(self.terms))
        n = self.layout.total
        for term in self.terms:
            if term.support[0] < 0 or term.support[-1] >= n:
                raise ValidationError(
                    f"term support {term.support} outside register of {n}"
                )

    @property
    def num_qubits(self) -> int:
        return self.layout.total

    @property
    def total_weight(self) -> float:
        return float(sum(t.weight for t in self.terms))

    def part_counts(self) -> dict:
        counts = {p: 0 for p in PARTS}
        for t in self.terms:
            counts[t.part] += 1
        return counts

    @functools.cached_property
    def fused(self) -> tuple:
        """The terms merged into a few (support, matrix) groups: matrix is
        the weighted sum of the group's terms on the sorted union of their
        supports, so H = sum of the embedded group matrices. Built once, on
        first use; the Hamiltonian is immutable, so it never goes stale."""
        plan = []
        for support, members in _fusion_groups(self.terms):
            total = 0
            for j in members:
                term = self.terms[j]
                rest = [q for q in support if q not in term.support]
                wide = np.kron(term.weight * term.matrix, np.eye(2 ** len(rest)))
                total = total + permute_to_sorted(wide, list(term.support) + rest)[1]
            total.flags.writeable = False
            plan.append((support, total))
        return tuple(plan)

    def restricted_to(self, parts) -> "LocalHamiltonian":
        parts = set(parts)
        return LocalHamiltonian(
            self.layout, tuple(t for t in self.terms if t.part in parts)
        )


def _fusion_groups(terms) -> list:
    """Greedy grouping of terms into (sorted support, term indices) pairs.

    One pass, largest support first (term order within a size): a term
    joins the existing group whose union with it is smallest, if that union
    spans at most _FUSE_WIDTH qubits, and otherwise starts a new group.
    """
    groups = []  # [support set, member indices]
    order = sorted(range(len(terms)), key=lambda j: -len(terms[j].support))
    for j in order:
        sup = set(terms[j].support)
        best, best_union = None, None
        for group in groups:
            union = group[0] | sup
            if len(union) <= _FUSE_WIDTH and (best is None or len(union) < len(best_union)):
                best, best_union = group, union
        if best is None:
            groups.append([sup, [j]])
        else:
            best[0] = best_union
            best[1].append(j)
    return [(tuple(sorted(sup)), members) for sup, members in groups]


def term_expectation(rho: DensityMatrix, term: LocalTerm) -> float:
    """tr(rho M_hat) for one embedded term matrix (weight not applied),
    summed as <f|M_hat f> over the columns f of rho's factor."""
    f = rho.factor
    return float(np.vdot(f, apply_local(term.matrix, term.support, rho.num_qubits, f)).real)


def _time_projector(layout: RegisterLayout, t: int):
    """Projector picking clock value t out of the legal subspace, as
    (support, matrix). Two clock qubits in the bulk, one at the ends."""
    length = layout.n_clock
    if t == length:
        return (layout.clock_qubit(length),), _P1
    if t == 0:
        return (layout.clock_qubit(1),), _P0
    pair = (layout.clock_qubit(t), layout.clock_qubit(t + 1))
    return pair, np.kron(_P1, _P0)


def compile_circuit(c: Circuit, clock_penalty: float | None = None,
                    accept_qubits=None) -> LocalHamiltonian:
    """Compile a verifier circuit into its clock Hamiltonian.

    Parameters
    ----------
    c : Circuit
    clock_penalty : weight of the clock terms, default L**12. Desk-scale
        analyses may pass something smaller to keep the spectrum
        well-conditioned for iterative solvers.
    accept_qubits : optional list of accept qubits, one out-term each
        (used for replicated meta-circuits; default [c.accept_qubit]).
    """
    length = c.length
    layout = RegisterLayout(c.n_input, c.n_ancilla, length)
    _check_qubit_count(layout.total, QUBIT_CAP, "compile_circuit")
    penalty = _default_penalty(length) if clock_penalty is None else float(clock_penalty)
    if not (penalty > 0 and np.isfinite(penalty)):
        raise ValidationError(f"clock penalty {penalty} must be positive and finite")
    accept_qubits = _accept_qubits(c, accept_qubits)
    terms = []

    zero_one = np.kron(_P0, _P1)  # |01><01|
    for i in range(1, length + 1):
        for j in range(i + 1, length + 1):
            terms.append(LocalTerm(
                "clock", penalty,
                (layout.clock_qubit(i), layout.clock_qubit(j)), zero_one,
            ))

    c1 = layout.clock_qubit(1)
    for a in layout.ancilla_qubits:
        terms.append(LocalTerm("in", 1.0, (a, c1), np.kron(_P1, _P0)))

    cl = layout.clock_qubit(length)
    for acc in accept_qubits:
        terms.append(LocalTerm("out", 1.0, (acc, cl), np.kron(_P0, _P1)))

    for t in range(1, length + 1):
        for s in (t, t - 1):
            support, mat = _time_projector(layout, s)
            terms.append(LocalTerm("prop_projector", 0.5, support, mat))
        gate = c.gates[t - 1]
        u = gate.matrix
        hop = -(np.kron(u, _LOWER) + np.kron(u.conj().T, _LOWER.T))
        support = list(gate.targets) + [layout.clock_qubit(t)]
        support, hop = permute_to_sorted(hop, support)
        terms.append(LocalTerm("prop_hopping", 0.5, tuple(support), hop))

    return LocalHamiltonian(layout, tuple(terms))


def _default_penalty(length: int) -> float:
    return float(length ** 12)


def _projection_leak(c: Circuit, accept_qubits) -> float:
    """Kempe-Kitaev-Regev projection-lemma bound ||H1||^2 / (J - 2 ||H1||)
    on how far the ground energy of compile_circuit(c, accept_qubits=...)
    at its default penalty J = L**12 lies below that of legal_hamiltonian
    (never above: legal states carry no clock energy). ||H1|| is bounded by
    the summed in, out and prop weights, m + #accept + 3L/2. inf when
    J <= 2 ||H1||, where the lemma gives no bound.
    """
    penalty = _default_penalty(c.length)
    h1 = c.n_ancilla + len(accept_qubits) + 1.5 * c.length
    return h1 ** 2 / (penalty - 2 * h1) if penalty > 2 * h1 else math.inf


def _accept_qubits(c: Circuit, accept_qubits):
    accept_qubits = (c.accept_qubit,) if accept_qubits is None else tuple(accept_qubits)
    for acc in accept_qubits:
        if not 0 <= acc < c.n_input + c.n_ancilla:
            raise ValidationError(f"accept qubit {acc} outside register")
    return accept_qubits


def legal_hamiltonian(c: Circuit, accept_qubits=None) -> np.ndarray:
    """in + out + prop of compile_circuit(c, accept_qubits=...) on the legal
    clock states, conjugated by the history transform W: a dense Hermitian
    matrix on |x> (x) |t>, x over the 2^w input and ancilla values
    (w = n + m), t = 0..L, index x (L+1) + t.

    In that frame every hopping term U_t (x) |t><t-1| becomes I (x)
    |t><t-1|, so, with the compiler's weights,

        H' = I (x) A + P (x) |0><0| + Q (x) |L><L|

    A is the path walk (1/2 per step on |t-1>-|t>), P counts the ancillas
    reading 1, and Q = U^dag (sum over accept qubits |0><0|) U. The clock
    terms vanish on legal states, so H' is the clock_penalty -> infinity
    limit of the compiled Hamiltonian: at penalty J the compiled ground
    energy lies at most the Kempe-Kitaev-Regev leak ||H1||^2 / (J - 2 ||H1||)
    below H''s. Its eigenvectors are already pulled back through W. Dimensions above
    2**DENSE_QUBIT_CAP raise ResourceLimitError.
    """
    width, length = c.n_input + c.n_ancilla, c.length
    dim = 2 ** width * (length + 1)
    if dim > 2 ** DENSE_QUBIT_CAP:
        raise ResourceLimitError(
            f"legal_hamiltonian of dimension {dim} exceeds the dense cap of "
            f"2**{DENSE_QUBIT_CAP}"
        )
    accept_qubits = _accept_qubits(c, accept_qubits)
    x = np.arange(2 ** width)
    bit = lambda q: (x >> (width - 1 - q)) & 1  # noqa: E731 - qubit 0 is the high bit
    ancilla_ones = sum((bit(a) for a in range(c.n_input, width)), np.zeros(x.size))
    rejects = sum((1 - bit(acc) for acc in accept_qubits), np.zeros(x.size))
    u = apply_gates(c, np.eye(x.size, dtype=complex))
    q = (u.conj().T * rejects) @ u
    walk = (np.diag(np.r_[0.5, np.ones(length - 1), 0.5])
            - 0.5 * np.eye(length + 1, k=1) - 0.5 * np.eye(length + 1, k=-1))
    h = np.zeros((x.size, length + 1, x.size, length + 1), dtype=complex)
    h[x, :, x, :] = walk
    h[x, 0, x, 0] += ancilla_ones
    h[:, length, :, length] += 0.5 * (q + q.conj().T)
    return h.reshape(dim, dim)


def history_pull_back(c: Circuit, vecs: np.ndarray) -> np.ndarray:
    """W^dag applied to a vector or a 2^N x r block of columns on the
    compiled register of c (N = inputs + ancillas + L).

    W applies the first t gates when the clock reads t: the ordered product
    of clock-controlled gates W_t = U_t (x) |1>_t<1| + I (x) |0>_t<0|, with
    W_1 applied first. W^dag applies the inverse controlled gates for
    t = L down to 1, each through apply_local, at O(L r 2^N) cost. W is
    diagonal in the clock basis, so legal clock states stay legal.
    """
    layout = RegisterLayout(c.n_input, c.n_ancilla, c.length)
    n = layout.total
    if vecs.shape[0] != 2 ** n:
        raise ValidationError(f"{vecs.shape[0]} rows do not match the {n}-qubit register")
    for t in range(c.length, 0, -1):
        gate = c.gates[t - 1]
        k = len(gate.targets)
        controlled = np.eye(2 ** (k + 1), dtype=complex)   # clock bit first factor
        controlled[2 ** k:, 2 ** k:] = gate.matrix.conj().T
        support = [layout.clock_qubit(t)] + list(gate.targets)
        vecs = apply_local(controlled, support, n, vecs)
    return vecs


def history_transform(c: Circuit) -> np.ndarray:
    """Dense W as a read-only array, the adjoint of history_pull_back on the
    identity, checked unitary within 1e-12.

    Nothing in qclock calls it: the witness path pulls states back as
    vectors. It stays because bench/spans.py instruments it by name.
    """
    n = c.n_input + c.n_ancilla + c.length
    _check_qubit_count(n, DENSE_QUBIT_CAP, "history_transform")
    w = history_pull_back(c, np.eye(2 ** n, dtype=complex)).conj().T
    _check_unitary(w, "history_transform")
    w.flags.writeable = False
    return w


def history_state(c: Circuit, input_state: PureState) -> PureState:
    """Uniform superposition of snapshots (U_t...U_1 |input,0..0>) (x) |t>."""
    if input_state.num_qubits != c.n_input:
        raise ValidationError(
            f"input has {input_state.num_qubits} qubits, circuit expects {c.n_input}"
        )
    n, m, length = c.n_input, c.n_ancilla, c.length
    _check_qubit_count(n + m + length, QUBIT_CAP, "history_state")
    anc = np.zeros(2 ** m, dtype=complex)
    anc[0] = 1.0
    snap = np.kron(input_state.amplitudes, anc)
    dim_c = 2 ** length
    out = np.zeros((2 ** (n + m), dim_c), dtype=complex)
    out[:, ClockState(0, length).basis_index] = snap
    for t in range(1, length + 1):
        gate = c.gates[t - 1]
        snap = apply_local(gate.matrix, gate.targets, n + m, snap)
        out[:, ClockState(t, length).basis_index] += snap
    vec = out.reshape(-1) / np.sqrt(length + 1)
    return PureState(n + m + length, vec)


# --- term-list text format ---------------------------------------------------
#
#   qubits 5
#   layout 1 1 3
#   term clock 531441 2 2 3
#   <16 `re im` lines, row-major>
#   ...

def serialize_hamiltonian(h: LocalHamiltonian) -> str:
    lay = h.layout
    out = [f"qubits {h.num_qubits}",
           f"layout {lay.n_input} {lay.n_ancilla} {lay.n_clock}"]
    for t in h.terms:
        out.append(
            f"term {t.part} {fmt_float(t.weight)} {len(t.support)} "
            + " ".join(str(q) for q in t.support)
        )
        out.extend(_entry_lines(t.matrix.reshape(-1)))
    return "\n".join(out) + "\n"


def parse_hamiltonian(text: str) -> LocalHamiltonian:
    lines = _content_lines(text)
    if len(lines) < 2:
        raise ParseError("expected `qubits N` and `layout n m L` headers", line=1)
    total = _parse_header(lines)
    lineno, lay_line = lines[1]
    parts = lay_line.split()
    if len(parts) != 4 or parts[0] != "layout":
        raise ParseError(f"expected `layout n m L`, got {lay_line!r}", line=lineno)
    try:
        n, m, length = (int(p) for p in parts[1:])
    except ValueError:
        raise ParseError(f"bad layout in {lay_line!r}", line=lineno) from None
    try:
        layout = RegisterLayout(n, m, length)
    except ValidationError as exc:
        raise ParseError(str(exc), line=lineno) from None
    if layout.total != total:
        raise ParseError(
            f"layout totals {layout.total} but header says {total}", line=lineno
        )
    terms = []
    i = 2
    while i < len(lines):
        lineno, content = lines[i]
        parts = content.split()
        if parts[0] != "term":
            raise ParseError(f"expected `term ...`, got {content!r}", line=lineno)
        if len(parts) < 5:
            raise ParseError("expected `term <part> <weight> <k> <q...>`", line=lineno)
        part = parts[1]
        try:
            weight = float(parts[2])
            k = int(parts[3])
            support = tuple(int(q) for q in parts[4:])
        except ValueError:
            raise ParseError(f"bad term header {content!r}", line=lineno) from None
        if len(support) != k:
            raise ParseError(f"term says {k} qubits but lists {len(support)}", line=lineno)
        if min(support) < 0 or max(support) >= total:
            raise ParseError(f"term support {support} outside register of {total}",
                             line=lineno)
        i += 1
        vals = _parse_entry_lines(lines[i:], lineno, 4 ** k)
        i += 4 ** k
        try:
            terms.append(LocalTerm(part, weight, support, vals.reshape(2 ** k, 2 ** k)))
        except ValidationError as exc:
            raise ParseError(str(exc), line=lineno) from None
    return LocalHamiltonian(layout, tuple(terms))
