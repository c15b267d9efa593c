"""Dense state and operator primitives.

Convention used everywhere: qubit 0 is the leftmost tensor factor, i.e. the
most significant bit of a computational basis index. A register of N qubits
is stored as a length 2**N vector (states) or a 2**N x 2**N matrix
(operators), complex128, row-major. A density matrix is held as a
2**N x r square-root factor, and forms its 2**N x 2**N matrix only on
demand.

Vectors are allowed up to QUBIT_CAP qubits, dense matrices up to
DENSE_QUBIT_CAP; past that the constructors raise ResourceLimitError rather
than letting an allocation swap the machine.
"""

from __future__ import annotations

import functools
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
_DEGENERACY_TOL = 1e-10  # default width of a degenerate extreme eigenspace
_RESIDUAL_TARGET = 1e-8  # default ground-pair residual, relative to max(1, ||H||)

__all__ = [
    "QUBIT_CAP", "DENSE_QUBIT_CAP", "PureState", "DensityMatrix", "RegisterLayout",
    "tensor_product", "partial_trace", "expectation", "named_stream",
    "read_matrix", "write_matrix",
]


def _check_qubit_count(num_qubits: int, cap: int, what: str):
    if num_qubits < 0:
        raise ValidationError(f"{what}: negative qubit count {num_qubits}")
    if num_qubits > cap:
        raise ResourceLimitError(
            f"{what} on {num_qubits} qubits exceeds the cap of {cap}"
        )


def _check_hermitian(m: np.ndarray, what: str, at=None):
    """ValidationError unless max|m - m^dag| <= 1e-12. With at=(rows, cols),
    only those entries are compared with their mirrors, which gives the
    same verdict when every other entry of m is zero."""
    if at is not None:
        rows, cols = at
        if rows.size and np.abs(m[rows, cols] - m[cols, rows].conj()).max() > ATOL:
            raise ValidationError(f"{what} not Hermitian within 1e-12")
        return
    if np.abs(m - m.conj().T).max() > ATOL:
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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix rho on num_qubits qubits, stored as
    a 2^n x r square-root factor F with rho = F F^dag.

    DensityMatrix(n, factor=F) checks F: finite, with tr(rho) = ||F||_F^2
    = 1 within 1e-12; rho is PSD by construction, so no eigensolver runs.
    `entries` is F F^dag, formed on first use. Energies, pull-backs and
    partial traces read F, so they never form a 2^n x 2^n matrix.
    Equality is identity.
    """

    num_qubits: int
    factor: np.ndarray = field(repr=False, kw_only=True)

    def __post_init__(self):
        _check_qubit_count(self.num_qubits, DENSE_QUBIT_CAP, "DensityMatrix")
        object.__setattr__(self, "factor", _check_factor(
            _as_complex(self.factor), 2 ** self.num_qubits, "DensityMatrix"))

    @functools.cached_property
    def entries(self) -> np.ndarray:
        f = self.factor
        return _as_complex(f @ f.conj().T)


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
    def ancilla_qubits(self) -> range:
        return range(self.n_input, self.n_input + self.n_ancilla)

    def clock_qubit(self, t: int) -> int:
        # clock step t in 1..n_clock sits at block offset t-1
        if not 1 <= t <= self.n_clock:
            raise ValidationError(f"clock step {t} outside 1..{self.n_clock}")
        return self.n_input + self.n_ancilla + t - 1


def tensor_product(a, b):
    """Kronecker product of two states or of two density matrices.

    Operands must be the same type. Two density matrices give the state
    whose factor is the Kronecker product of theirs, so no eigensolver
    runs. Operators are plain arrays, so their product is np.kron.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        n = a.num_qubits + b.num_qubits
        _check_qubit_count(n, QUBIT_CAP, "tensor_product")
        return PureState(n, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        n = a.num_qubits + b.num_qubits
        _check_qubit_count(n, DENSE_QUBIT_CAP, "tensor_product")
        return DensityMatrix(n, factor=np.kron(a.factor, b.factor))
    raise ValidationError(
        f"tensor_product: mismatched operand types "
        f"{type(a).__name__}/{type(b).__name__}"
    )


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every qubit not listed in keep; kept qubits stay in order.
    The result's factor is rho's with the kept qubit axes moved to the
    front and reshaped to 2^len(keep) rows, so no eigensolver runs."""
    keep = sorted(set(int(q) for q in keep))
    n = rho.num_qubits
    if keep and (keep[0] < 0 or keep[-1] >= n):
        raise ValidationError(f"partial_trace: keep indices {keep} outside 0..{n - 1}")
    f = np.moveaxis(rho.factor.reshape((2,) * n + (-1,)), keep, range(len(keep)))
    return DensityMatrix(len(keep), factor=f.reshape(2 ** len(keep), -1))


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


def _components(mat: np.ndarray) -> list:
    """Connected components of mat's nonzero pattern, with an edge i-j
    wherever mat[i, j] or mat[j, i] is nonzero, as ascending index arrays in
    the order of their smallest index: scipy's weakly connected components
    of the pattern. A first row with no zero entry joins every index to
    index 0, so a dense matrix costs one row, not a scan of its pattern.
    """
    n = len(mat)
    if n and mat[0].all():
        return [np.arange(n)]
    # loaded here, so importing qclock does not import scipy's graph module
    from scipy.sparse import csgraph, csr_array
    label = csgraph.connected_components(csr_array(mat != 0), connection="weak")[1]
    order = np.argsort(label, kind="stable")
    return np.split(order, np.cumsum(np.bincount(label))[:-1])


def _eigh_block(mat: np.ndarray, idx, k, vectors: bool):
    """One zheevr solve, as _eigh describes it, of mat (idx None) or of its
    principal block at the indices idx, retried once in the reversed basis."""
    size = len(mat) if idx is None else idx.size
    subset = None if k is None else (0, min(k, size) - 1)
    for flip in (False, True):
        if idx is None:
            # the caller's array, never overwritten; reversed, scipy copies it
            block, overwrite = (mat[::-1, ::-1] if flip else mat), False
        else:
            # gathered through mat.T, so it comes out Fortran-ordered and
            # LAPACK factors that one copy in place; a retry gathers afresh
            order = idx[::-1] if flip else idx
            block, overwrite = mat.T[np.ix_(order, order)].T, True
        try:
            out = scipy.linalg.eigh(block, driver="evr", subset_by_index=subset,
                                    eigvals_only=not vectors, overwrite_a=overwrite)
        except np.linalg.LinAlgError as exc:
            error = exc
            continue
        return (out[0], out[1][::-1]) if flip and vectors else out
    raise ConvergenceError(f"dense eigensolver failed: {error}") from None


def _eigh(mat: np.ndarray, k: int | None = None, vectors: bool = True):
    """Ascending eigenpairs of a dense Hermitian matrix: all of them, or the
    lowest k. With vectors=False only the eigenvalues are computed and
    returned. Every dense factorisation goes through LAPACK's MRRR driver
    (zheevr). It costs the same as the divide-and-conquer driver (zheevd)
    behind np.linalg.eigh, which fails to converge on some clock
    Hamiltonians at one BLAS thread. zheevr in turn now and then refuses a
    matrix with exactly paired levels ("Internal Error"); the block is then
    solved once more in the reversed basis, an exact similarity that MRRR
    reduces along another path, and the vector rows are flipped back. A
    second failure is a ConvergenceError.

    The matrix is split into the connected components of its nonzero
    pattern (_components: scipy's weakly connected components, or one
    block at once when the first row has no zero). A single component goes
    to LAPACK as it is, uncopied and never overwritten. Otherwise each
    principal block is solved on its own (the lowest min(k, size) of
    each), and the results are merged: sorted stably by value, ties in
    block order, and cut to the lowest k. A finite 1 x 1 block skips
    LAPACK: its eigenpair is its diagonal entry and a unit vector, exactly
    as zheevr gives it. Eigenvectors are scattered into zero-padded
    columns. The split is exact, as the entries between blocks are exact
    zeros, but the per-block solves round differently from one solve of
    the whole matrix. Clock Hamiltonians split wherever a register qubit
    is only acted on diagonally (an all-reject circuit's accept ancilla)
    and wherever the gates permute basis states.
    """
    blocks = _components(mat)
    if len(blocks) == 1:
        return _eigh_block(mat, None, k, vectors)
    parts = []
    for idx in blocks:
        corner = mat[idx[0], idx[0]]
        # a non-finite entry still goes to LAPACK, whose input check refuses it
        if idx.size == 1 and np.isfinite(corner):
            value = np.array([corner.real])
            parts.append((value, np.ones((1, 1), dtype=complex)) if vectors else value)
        else:
            parts.append(_eigh_block(mat, idx, k, vectors))
    evals = np.concatenate([p[0] if vectors else p for p in parts])
    order = np.argsort(evals, kind="stable")[:k]
    if not vectors:
        return evals[order]
    # column of each block level in the merged result, -1 past the lowest k
    column = np.full(evals.size, -1)
    column[order] = np.arange(order.size)
    evecs = np.zeros((len(mat), order.size), dtype=complex)
    start = 0
    for idx, (_, vecs) in zip(blocks, parts):
        cols = column[start:start + vecs.shape[1]]
        start += vecs.shape[1]
        keep = cols >= 0
        evecs[np.ix_(idx, cols[keep])] = vecs[:, keep]
    return evals[order], evecs


def _qubit_bits(n: int, q: int) -> np.ndarray:
    """The bit of qubit q in every n-qubit basis index, in index order."""
    return (np.arange(2 ** n) >> (n - 1 - q)) & 1


def _support_first(support, n: int) -> list:
    """Axis order of an n-qubit register with the support's qubits first, in
    their given order, then the other qubits in ascending order: the one
    layout in which a local matrix acts on the leading axes."""
    return list(support) + [q for q in range(n) if q not in support]


def _scatter_entries(matrix: np.ndarray, qubits, n: int):
    """Global (rows, cols, values) of a k-qubit matrix embedded on `qubits`.

    Row i of arange(2^n) in apply_local's layout (_support_first) lists the
    indices whose support bits read i. Only the matrix's nonzero entries are
    kept, each repeated over the 2^(n-k) settings of the other qubits, so no
    (row, col) pair repeats.
    """
    k = len(qubits)
    index = np.arange(2 ** n).reshape((2,) * n).transpose(_support_first(qubits, n))
    index = index.reshape(2 ** k, -1)
    r, c = np.nonzero(matrix)
    return (index[r].reshape(-1), index[c].reshape(-1),
            np.repeat(matrix[r, c], index.shape[1]))


def apply_local(matrix: np.ndarray, support, n: int, vec: np.ndarray) -> np.ndarray:
    """matrix (on the qubits in `support`, in that factor order) times vec.

    vec is a length-2^n vector or a 2^n x m block of columns; the result has
    the same shape. Matrix-free: the qubit axes are permuted to
    _support_first order, multiplied, and permuted back.
    """
    k = len(support)
    perm = _support_first(support, n)
    cols = vec.shape[1:]
    col_axes = list(range(n, n + len(cols)))
    t = vec.reshape((2,) * n + cols).transpose(perm + col_axes).reshape(2 ** k, -1)
    t = matrix @ t
    t = t.reshape((2,) * n + cols).transpose(list(np.argsort(perm)) + col_axes)
    return t.reshape(vec.shape)


def named_stream(seed: int, name: str) -> np.random.Generator:
    """Deterministic per-stage RNG: one root seed, one named substream per use.

    Philox keeps the draws counter-based so shots can be replayed or split.
    """
    key = zlib.crc32(name.encode("utf-8"))
    ss = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=(key,))
    return np.random.Generator(np.random.Philox(ss))


# --- text format -----------------------------------------------------------
#
# First line `qubits N`, then the 4**N matrix entries, one per line as
# `re im`, row-major.

def fmt_float(x: float) -> str:
    # 17 significant digits round-trips any float64
    return format(float(x), ".17g")


def _entry_lines(flat: np.ndarray):
    return [f"{fmt_float(z.real)} {fmt_float(z.imag)}" for z in flat]


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
