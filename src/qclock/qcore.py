"""Dense state and operator primitives.

Convention used everywhere: qubit 0 is the leftmost tensor factor, i.e. the
most significant bit of a computational basis index. A register of N qubits
is stored as a length 2**N vector (states) or a 2**N x 2**N matrix
(operators, density matrices), complex128, row-major; a density matrix
may instead be held as a 2**N x r square-root factor.

Vectors are allowed up to QUBIT_CAP qubits, dense matrices up to
DENSE_QUBIT_CAP; past that the constructors raise ResourceLimitError rather
than letting an allocation swap the machine.
"""

from __future__ import annotations

import functools
import hashlib
import zlib
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    ConsistencyError, ConvergenceError, ParseError, ResourceLimitError,
    ValidationError,
)

QUBIT_CAP = 16          # state vectors
DENSE_QUBIT_CAP = 12    # dense matrices

ATOL = 1e-12
_HERMITIAN_BLOCK = 256   # rows per block of the Hermitian check
_DEGENERACY_TOL = 1e-10  # default width of a degenerate extreme eigenspace
_RESIDUAL_TARGET = 1e-8  # default ground-pair residual, relative to max(1, ||H||)

__all__ = [
    "QUBIT_CAP", "DENSE_QUBIT_CAP", "PureState", "DensityMatrix", "RegisterLayout",
    "tensor_product", "partial_trace", "expectation",
    "operator_norm", "apply_local", "permute_to_sorted", "named_stream",
    "fmt_float", "read_state", "write_state", "read_matrix", "write_matrix",
    "state_digest",
]


def _check_qubit_count(num_qubits: int, cap: int, what: str):
    if num_qubits < 0:
        raise ValidationError(f"{what}: negative qubit count {num_qubits}")
    if num_qubits > cap:
        raise ResourceLimitError(
            f"{what} on {num_qubits} qubits exceeds the cap of {cap}"
        )


def _check_hermitian(m: np.ndarray, what: str):
    """ValidationError unless max|m - m^dag| <= 1e-12. Each block of rows is
    compared with the matching block of columns, so no second n x n matrix
    is formed."""
    for i in range(0, len(m), _HERMITIAN_BLOCK):
        rows = slice(i, i + _HERMITIAN_BLOCK)
        if np.abs(m[rows] - m[:, rows].conj().T).max() > ATOL:
            raise ValidationError(f"{what} not Hermitian within 1e-12")


def _check_unitary(m: np.ndarray, what: str):
    """ValidationError unless max|m^dag m - I| <= 1e-12."""
    err = np.abs(m.conj().T @ m - np.eye(len(m))).max()
    if err > 1e-12:
        raise ValidationError(f"{what}: unitarity defect {err:.3e} above 1e-12")


def _check_factor(f, rows: int, what: str) -> np.ndarray:
    """A square-root factor F of a state: 2-D with `rows` rows and at least
    one column, finite, and tr(F F^dag) = ||F||_F^2 = 1 within 1e-12."""
    f = np.asarray(f)
    if f.ndim != 2 or f.shape[0] != rows or f.shape[1] < 1:
        raise ValidationError(
            f"{what}: got shape {f.shape}, want a factor with {rows} rows")
    if not np.isfinite(f).all():
        raise ValidationError(f"{what}: factor has a non-finite entry")
    tr = np.vdot(f, f).real
    if abs(tr - 1.0) > 1e-12:
        raise ValidationError(f"{what}: trace ||F||^2 = {tr!r} is not 1 within 1e-12")
    return f


def _as_complex(a) -> np.ndarray:
    out = np.array(a, dtype=complex, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on num_qubits qubits."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_qubit_count(self.num_qubits, QUBIT_CAP, "PureState")
        amps = _as_complex(self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (2 ** self.num_qubits,):
            raise ValidationError(
                f"PureState: expected {2 ** self.num_qubits} amplitudes, "
                f"got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"PureState: norm {norm!r} is not 1 within 1e-12")

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.num_qubits, factor=self.amplitudes[:, None])

    @staticmethod
    def computational(num_qubits: int, index: int) -> "PureState":
        _check_qubit_count(num_qubits, QUBIT_CAP, "PureState")
        if not 0 <= index < 2 ** num_qubits:
            raise ValidationError(f"basis index {index} out of range")
        v = np.zeros(2 ** num_qubits, dtype=complex)
        v[index] = 1.0
        return PureState(num_qubits, v)


class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix rho on num_qubits qubits.

    Built from entries, DensityMatrix(n, rho) checks rho itself: finite,
    Hermitian and unit trace within 1e-12, PSD within 1e-10. Built from a
    square-root factor, DensityMatrix(n, factor=F) with 2^n rows and
    rho = F F^dag, it checks F: finite, with tr(rho) = ||F||_F^2 = 1 within
    1e-12; rho is Hermitian and PSD by construction, so no eigensolver
    runs. The form a state was not built from is derived once, on first
    use: `entries` as F F^dag, `factor` from an eigendecomposition of the
    entries. Energies, expectations and pull-backs read `factor`, so a
    state built from one never forms a 2^n x 2^n matrix.
    """

    def __init__(self, num_qubits: int, entries=None, *, factor=None):
        if (entries is None) == (factor is None):
            raise ValidationError("DensityMatrix: give exactly one of entries and factor")
        given = {"entries": entries} if factor is None else {"factor": factor}
        self.__dict__.update(num_qubits=num_qubits, **given)
        self.__post_init__()

    def __post_init__(self):
        # named like the dataclass hook of the other records: the checks run
        # once per construction, whichever form the state was built from
        _check_qubit_count(self.num_qubits, DENSE_QUBIT_CAP, "DensityMatrix")
        dim = 2 ** self.num_qubits
        if "factor" in self.__dict__:
            self.__dict__["factor"] = _check_factor(
                _as_complex(self.factor), dim, "DensityMatrix")
            return
        m = self.__dict__["entries"] = _as_complex(self.entries)
        if m.shape != (dim, dim):
            raise ValidationError(f"DensityMatrix: expected shape {(dim, dim)}, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValidationError("DensityMatrix: non-finite entry")
        _check_hermitian(m, "DensityMatrix:")
        tr = np.trace(m)
        if abs(tr - 1.0) > 1e-12:
            raise ValidationError(f"DensityMatrix: trace {tr!r} is not 1 within 1e-12")
        evals = _eigh(m, vectors=False)
        if evals.min() < -1e-10:
            raise ValidationError(
                f"DensityMatrix: negative eigenvalue {evals.min():.3e} below -1e-10"
            )

    @functools.cached_property
    def entries(self) -> np.ndarray:
        f = self.factor
        return _as_complex(f @ f.conj().T)

    @functools.cached_property
    def factor(self) -> np.ndarray:
        # a backward-stable eigensolver resolves eigenvalues only to about
        # dim * eps * ||rho||; the levels below that (and the negative ones
        # the PSD slack allows) are noise with arbitrary eigenvectors, and a
        # clock penalty of L**12 would amplify them, so they are dropped
        evals, evecs = _eigh(self.entries)
        keep = evals > evals[-1] * len(evals) * np.finfo(float).eps
        return _as_complex(evecs[:, keep] * np.sqrt(evals[keep]))

    def __setattr__(self, name, value):
        raise AttributeError(f"DensityMatrix is immutable; cannot set {name!r}")

    def __repr__(self) -> str:
        return f"DensityMatrix(num_qubits={self.num_qubits})"


@dataclass(frozen=True)
class RegisterLayout:
    """Input, ancilla and clock block sizes; qubits are laid out in that order."""

    n_input: int
    n_ancilla: int
    n_clock: int = 0

    def __post_init__(self):
        if min(self.n_input, self.n_ancilla, self.n_clock) < 0:
            raise ValidationError("RegisterLayout: negative register size")

    @property
    def total(self) -> int:
        return self.n_input + self.n_ancilla + self.n_clock

    @property
    def input_qubits(self) -> range:
        return range(self.n_input)

    @property
    def ancilla_qubits(self) -> range:
        return range(self.n_input, self.n_input + self.n_ancilla)

    @property
    def clock_qubits(self) -> range:
        return range(self.n_input + self.n_ancilla, self.total)

    def clock_qubit(self, t: int) -> int:
        # clock step t in 1..n_clock sits at block offset t-1
        if not 1 <= t <= self.n_clock:
            raise ValidationError(f"clock step {t} outside 1..{self.n_clock}")
        return self.n_input + self.n_ancilla + t - 1


def tensor_product(a, b):
    """Kronecker product of two states or of two density matrices.

    Operands must be the same type. Operators are plain arrays, so their
    product is np.kron.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        n = a.num_qubits + b.num_qubits
        _check_qubit_count(n, QUBIT_CAP, "tensor_product")
        return PureState(n, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        n = a.num_qubits + b.num_qubits
        _check_qubit_count(n, DENSE_QUBIT_CAP, "tensor_product")
        return DensityMatrix(n, np.kron(a.entries, b.entries))
    raise ValidationError(
        f"tensor_product: mismatched operand types "
        f"{type(a).__name__}/{type(b).__name__}"
    )


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every qubit not listed in keep; kept qubits stay in order."""
    keep = sorted(set(int(q) for q in keep))
    n = rho.num_qubits
    if keep and (keep[0] < 0 or keep[-1] >= n):
        raise ValidationError(f"partial_trace: keep indices {keep} outside 0..{n - 1}")
    drop = [q for q in range(n) if q not in keep]
    t = rho.entries.reshape((2,) * (2 * n))
    for q in reversed(drop):
        t = np.trace(t, axis1=q, axis2=q + t.ndim // 2)
    dim = 2 ** len(keep)
    return DensityMatrix(len(keep), t.reshape(dim, dim))


def expectation(rho: DensityMatrix, a: np.ndarray) -> float:
    """tr(rho A) for a Hermitian array A of rho's shape (ValidationError
    otherwise); ConsistencyError if the imaginary residue exceeds 1e-8."""
    a = np.asarray(a)
    dim = 2 ** rho.num_qubits
    if a.shape != (dim, dim):
        raise ValidationError(
            f"expectation: operator shape {a.shape} does not match {rho.num_qubits} qubits")
    val = np.sum(rho.entries * a.T)
    if abs(val.imag) > 1e-8:
        raise ConsistencyError(f"expectation: imaginary residue {val.imag:.3e} above 1e-8")
    return float(val.real)


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value of a matrix."""
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _eigh(mat: np.ndarray, k: int | None = None, vectors: bool = True, *,
          upper: float | None = None):
    """Ascending eigenpairs of a dense Hermitian matrix: all, the lowest k,
    or (upper given) every one at or below upper. With vectors=False only
    the eigenvalues are computed and returned. Every dense factorisation
    goes through LAPACK's MRRR driver (zheevr). It costs the same as the
    divide-and-conquer driver (zheevd) behind np.linalg.eigh, which fails
    to converge on some clock Hamiltonians at one BLAS thread. A LAPACK
    failure is a ConvergenceError.
    """
    subset = None if k is None else (0, min(k, mat.shape[0]) - 1)
    below = None if upper is None else (-np.inf, upper)
    try:
        return scipy.linalg.eigh(mat, driver="evr", subset_by_index=subset,
                                 subset_by_value=below, eigvals_only=not vectors)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolver failed: {exc}") from None


def _scatter_table(positions, n: int) -> np.ndarray:
    """Map every k-bit value onto its n-bit index with bits at `positions`."""
    k = len(positions)
    idx = np.arange(2 ** k, dtype=np.int64)
    out = np.zeros(2 ** k, dtype=np.int64)
    for j, q in enumerate(positions):
        out |= ((idx >> (k - 1 - j)) & 1) << (n - 1 - q)
    return out


def _scatter_entries(matrix: np.ndarray, qubits, n: int):
    """Global (rows, cols, values) of a k-qubit matrix embedded on `qubits`.

    Only the matrix's nonzero entries are kept, each repeated over the
    2^(n-k) settings of the other qubits, so no (row, col) pair repeats.
    """
    rest = [q for q in range(n) if q not in qubits]
    scat_sup = _scatter_table(qubits, n)
    scat_rest = _scatter_table(rest, n)
    r, c = np.nonzero(matrix)
    rows = (scat_sup[r][:, None] | scat_rest[None, :]).reshape(-1)
    cols = (scat_sup[c][:, None] | scat_rest[None, :]).reshape(-1)
    return rows, cols, np.repeat(matrix[r, c], scat_rest.size)


def apply_local(matrix: np.ndarray, support, n: int, vec: np.ndarray) -> np.ndarray:
    """matrix (on the qubits in `support`, in that factor order) times vec.

    vec is a length-2^n vector or a 2^n x m block of columns; the result has
    the same shape. Matrix-free: the qubit axes are permuted so that the
    support leads, multiplied, and permuted back.
    """
    k = len(support)
    rest = [q for q in range(n) if q not in support]
    perm = list(support) + rest
    cols = vec.shape[1:]
    col_axes = list(range(n, n + len(cols)))
    t = vec.reshape((2,) * n + cols).transpose(perm + col_axes).reshape(2 ** k, -1)
    t = matrix @ t
    t = t.reshape((2,) * n + cols).transpose(list(np.argsort(perm)) + col_axes)
    return t.reshape(vec.shape)


def permute_to_sorted(matrix: np.ndarray, qubits):
    """Rewrite a k-qubit matrix given on `qubits` order onto sorted(qubits).

    Returns (sorted_qubits, permuted_matrix).
    """
    qubits = [int(q) for q in qubits]
    k = len(qubits)
    order = sorted(range(k), key=lambda i: qubits[i])
    if order == list(range(k)):
        return qubits, matrix
    perm = np.argsort(order)  # position of factor i in the sorted matrix
    t = matrix.reshape((2,) * (2 * k))
    axes = tuple(order) + tuple(o + k for o in order)
    t = t.transpose(axes)
    return sorted(qubits), np.ascontiguousarray(t.reshape(2 ** k, 2 ** k))


def named_stream(seed: int, name: str) -> np.random.Generator:
    """Deterministic per-stage RNG: one root seed, one named substream per use.

    Philox keeps the draws counter-based so shots can be replayed or split.
    """
    key = zlib.crc32(name.encode("utf-8"))
    ss = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=(key,))
    return np.random.Generator(np.random.Philox(ss))


def state_digest(array) -> str:
    """Short stable checksum of a complex array, PureState or DensityMatrix."""
    array = getattr(array, "amplitudes", getattr(array, "entries", array))
    data = np.ascontiguousarray(np.asarray(array, dtype=complex))
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


# --- text format -----------------------------------------------------------
#
# First line `qubits N`, then one entry per line as `re im`, row-major.
# 2**N lines = state vector, 4**N lines = matrix.

def fmt_float(x: float) -> str:
    # 17 significant digits round-trips any float64
    return format(float(x), ".17g")


def _entry_lines(flat: np.ndarray):
    return [f"{fmt_float(z.real)} {fmt_float(z.imag)}" for z in flat]


def write_state(state: PureState) -> str:
    lines = [f"qubits {state.num_qubits}"] + _entry_lines(state.amplitudes)
    return "\n".join(lines) + "\n"


def write_matrix(num_qubits: int, entries: np.ndarray) -> str:
    lines = [f"qubits {num_qubits}"] + _entry_lines(entries.reshape(-1))
    return "\n".join(lines) + "\n"


def _parse_entry_lines(lines, start_line: int, count: int) -> np.ndarray:
    # count comes from the file, so check it before allocating
    if len(lines) < count:
        raise ParseError(f"expected {count} entry lines, found {len(lines)}",
                         line=start_line + len(lines))
    vals = np.empty(count, dtype=complex)
    for i, (lineno, text) in enumerate(lines[:count]):
        parts = text.split()
        if len(parts) != 2:
            raise ParseError(f"expected `re im`, got {text!r}", line=lineno)
        try:
            vals[i] = complex(float(parts[0]), float(parts[1]))
        except ValueError:
            raise ParseError(f"bad number in {text!r}", line=lineno) from None
    return vals


def _content_lines(text: str):
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append((i, stripped))
    return out


def _parse_header(lines):
    if not lines:
        raise ParseError("empty input", line=1)
    lineno, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "qubits":
        raise ParseError(f"expected `qubits N`, got {head!r}", line=lineno)
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(f"bad qubit count {parts[1]!r}", line=lineno) from None
    if n < 0:
        raise ParseError(f"negative qubit count {n}", line=lineno)
    return n


def read_state(text: str) -> PureState:
    lines = _content_lines(text)
    n = _parse_header(lines)
    vals = _parse_entry_lines(lines[1:], lines[0][0], 2 ** n)
    if len(lines) - 1 != 2 ** n:
        raise ParseError(f"expected {2 ** n} amplitudes, found {len(lines) - 1}",
                         line=lines[-1][0])
    return PureState(n, vals)


def read_matrix(text: str):
    """Returns (num_qubits, entries) without imposing density/operator checks."""
    lines = _content_lines(text)
    n = _parse_header(lines)
    dim = 2 ** n
    if len(lines) - 1 != dim * dim:
        raise ParseError(f"expected {dim * dim} matrix entries, found {len(lines) - 1}",
                         line=lines[-1][0] if len(lines) > 1 else lines[0][0])
    vals = _parse_entry_lines(lines[1:], lines[0][0], dim * dim)
    return n, vals.reshape(dim, dim)
