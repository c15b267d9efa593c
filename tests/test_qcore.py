import importlib
import pkgutil

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import qclock as q
from qclock import qcore
from qclock.qcore import (
    _check_hermitian, _check_unitary, _scatter_entries, apply_local, fmt_float,
)

from conftest import (
    all_reject_circuit, assemble_oracle, components_oracle, digest, failing_lapack,
    ground_projector_oracle, lapack_inputs, partial_trace_oracle, random_density_matrix,
    random_pure_state, rng_for,
)


def test_pure_state_validation():
    with pytest.raises(q.ValidationError):
        q.PureState(1, np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(q.ValidationError):
        q.PureState(2, np.array([1.0, 0.0]))  # wrong length
    s = q.PureState(1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.5  # frozen buffer


def test_factor_built_density_matrix_validation():
    f = np.array([[0.6], [0.0]])
    with pytest.raises(q.ValidationError, match="trace"):
        q.DensityMatrix(1, factor=f)                        # ||F||^2 = 0.36
    with pytest.raises(q.ValidationError, match="trace"):
        q.DensityMatrix(1, factor=np.array([[0.8, 0.6], [0.0, 0.1]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(q.ValidationError, match="non-finite"):
            q.DensityMatrix(1, factor=np.array([[1.0], [bad]]))
    with pytest.raises(q.ValidationError, match="rows"):
        q.DensityMatrix(1, factor=np.ones((4, 1)) / 2)      # 2 qubits' rows
    with pytest.raises(q.ValidationError, match="rows"):
        q.DensityMatrix(1, factor=np.zeros((2, 0)))         # no columns
    with pytest.raises(TypeError):
        q.DensityMatrix(1, np.eye(2) / 2)                   # a matrix, not a factor
    with pytest.raises(q.ResourceLimitError):
        q.DensityMatrix(q.DENSE_QUBIT_CAP + 1, factor=np.ones((1, 1)))


def test_density_matrix_forms_agree():
    # a state's entries are F F^dag, formed once; a pure state's factor is
    # its amplitude column; no field can be reassigned
    rng = rng_for("forms")
    a = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    a /= np.linalg.norm(a)
    from_factor = q.DensityMatrix(3, factor=a)
    np.testing.assert_allclose(from_factor.entries, a @ a.conj().T, atol=1e-15)
    rho = random_density_matrix(rng, 3, rank=2)
    f = rho.factor
    assert f.shape == (8, 2)
    np.testing.assert_allclose(f @ f.conj().T, rho.entries, atol=1e-14)
    assert rho.factor is f  # derived once
    psi = random_pure_state(rng, 3)
    assert psi.density().factor.shape == (8, 1)
    np.testing.assert_allclose(psi.density().entries,
                               np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-15)
    with pytest.raises(AttributeError):
        rho.num_qubits = 2


def test_derived_states_run_no_eigensolver(monkeypatch):
    rng = rng_for("derived-no-eigh")
    rank2 = random_density_matrix(rng, 3, rank=2)
    a = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    rank3 = q.DensityMatrix(2, factor=a / np.linalg.norm(a))

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver ran on a derived state")

    for owner, name in ((qcore, "_eigh"), (scipy.linalg, "eigh"),
                        (scipy.linalg, "eigvalsh"), (np.linalg, "eigh"),
                        (np.linalg, "eigvalsh")):
        monkeypatch.setattr(owner, name, refuse)
    for rho in (rank2, rank3):
        n = rho.num_qubits
        red = q.partial_trace(rho, [n - 1])
        np.testing.assert_allclose(
            red.entries, partial_trace_oracle(rho.entries, [n - 1], n), atol=1e-14)
    joint = q.tensor_product(rank2, rank3)
    np.testing.assert_allclose(
        joint.entries, np.kron(rank2.entries, rank3.entries), atol=1e-14)


def test_qubit_caps_enforced():
    with pytest.raises(q.ResourceLimitError):
        q.PureState(q.QUBIT_CAP + 1, np.zeros(2 ** (q.QUBIT_CAP + 1)))
    with pytest.raises(q.ResourceLimitError):
        d = 2 ** (q.DENSE_QUBIT_CAP + 1)
        q.DensityMatrix(q.DENSE_QUBIT_CAP + 1, factor=np.full((d, 1), d ** -0.5))


def test_register_layout():
    lay = q.RegisterLayout(2, 1, 3)
    assert lay.total == 6
    assert list(lay.ancilla_qubits) == [2]
    # clock step t lives on qubit n+m+t-1
    assert lay.clock_qubit(1) == 3
    assert lay.clock_qubit(3) == 5
    with pytest.raises(q.ValidationError):
        lay.clock_qubit(0)
    with pytest.raises(q.ValidationError):
        lay.clock_qubit(4)
    with pytest.raises(q.ValidationError):
        q.RegisterLayout(-1, 0)


def test_tensor_product_oracle():
    rng = rng_for("tensor")
    a = random_pure_state(rng, 2)
    b = random_pure_state(rng, 1)
    joint = q.tensor_product(a, b)
    assert joint.num_qubits == 3
    np.testing.assert_allclose(
        joint.amplitudes, np.kron(a.amplitudes, b.amplitudes), atol=1e-14)


def test_partial_trace_against_loop_oracle():
    rng = rng_for("ptrace")
    for _ in range(5):
        n = 4
        rho = random_density_matrix(rng, n)
        keep = sorted(rng.choice(n, size=2, replace=False).tolist())
        got = q.partial_trace(rho, keep).entries
        oracle = partial_trace_oracle(rho.entries, keep, n)
        np.testing.assert_allclose(got, oracle, atol=1e-12)


def test_partial_trace_keeps_trace_and_psd():
    rng = rng_for("ptrace-psd")
    rho = random_density_matrix(rng, 5)
    red = q.partial_trace(rho, [0, 3])
    assert abs(np.trace(red.entries) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(red.entries).min() > -1e-12


def test_expectation_real_and_complex_guard():
    rng = rng_for("expect")
    rho = random_density_matrix(rng, 2)
    h = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    val = q.expectation(rho, h)
    assert abs(val - np.trace(rho.entries @ h).real) < 1e-12


def test_expectation_refuses_a_mismatched_shape():
    rho = random_density_matrix(rng_for("expect-shape"), 2)
    for bad in (np.eye(8), np.eye(2), np.ones(4)):
        with pytest.raises(q.ValidationError, match="does not match 2 qubits"):
            q.expectation(rho, bad)


@pytest.mark.parametrize("where, form", [
    pytest.param(where, form, id=f"where{i}{suffix}")
    for suffix, form in (("", np.asarray), ("-csr", scipy.sparse.csr_array))
    for i, where in enumerate([(511, 300), (255, 256), (0, 511)])])
def test_hermitian_check_sees_every_row_block(where, form):
    # a defect in the last row, one beside the diagonal and one in the
    # first row are each seen; a defect of exactly 1e-12 passes; the same
    # on a dense array and on a sparse matrix
    rng = rng_for("hermitian-blocks")
    a = rng.normal(size=(512, 512)) + 1j * rng.normal(size=(512, 512))
    h = a + a.conj().T
    _check_hermitian(form(h), "h")
    bad = h.copy()
    bad[where] += 2e-12
    with pytest.raises(q.ValidationError, match="h not Hermitian within 1e-12"):
        _check_hermitian(form(bad), "h")
    ok = np.zeros((512, 512), dtype=complex)
    ok[where] = 1e-12
    _check_hermitian(form(ok), "h")


def test_unitary_check():
    _check_unitary(q.NAMED_GATES["H"], "H")
    with pytest.raises(q.ValidationError, match="u: unitarity defect 2.000e-12 above 1e-12"):
        _check_unitary(np.diag([1.0, 1.0 + 1e-12]), "u")


def test_embed_matrix_permutation():
    # apply_local and the matrix rebuilt from _scatter_entries against a bit
    # loop, on an unsorted support (descending gate targets and the
    # pull-back's clock-first supports reach apply_local so) and a 3-qubit one
    rng = rng_for("embed")
    n = 4
    for support in ((1, 3), (3, 1), (2, 0, 3)):
        d = 2 ** len(support)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m[rng.random((d, d)) < 0.3] = 0   # zero entries are not scattered
        oracle = np.zeros((16, 16), dtype=complex)
        for i in range(16):
            for j in range(16):
                bi = [(i >> (n - 1 - b)) & 1 for b in range(n)]
                bj = [(j >> (n - 1 - b)) & 1 for b in range(n)]
                if any(bi[b] != bj[b] for b in range(n) if b not in support):
                    continue
                r = c = 0
                for b in support:
                    r, c = (r << 1) | bi[b], (c << 1) | bj[b]
                oracle[i, j] = m[r, c]
        got = apply_local(m, support, n, np.eye(16))
        np.testing.assert_allclose(got, oracle, atol=1e-14)
        rows, cols, vals = _scatter_entries(m, support, n)
        assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size
        scattered = np.zeros((16, 16), dtype=complex)
        scattered[rows, cols] = vals
        assert np.array_equal(scattered, oracle)


def _hidden_blocks(rng, levels) -> np.ndarray:
    """Hermitian matrix with one block per entry of `levels` (its
    eigenvalues), each block a random unitary conjugate of its diagonal, so
    dense; the block structure is hidden by a seeded basis permutation."""
    n = sum(len(lev) for lev in levels)
    mat = np.zeros((n, n), dtype=complex)
    start = 0
    for lev in levels:
        k = len(lev)
        u = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))[0]
        mat[start:start + k, start:start + k] = (u * lev) @ u.conj().T
        start += k
    perm = rng.permutation(n)
    mat = mat[np.ix_(perm, perm)]
    return (mat + mat.conj().T) / 2


# blocks of 1, 3, 8 and 20 levels; the ground level -1 is shared by two
BLOCK_LEVELS = ([3.0], [-1.0, 0.5, 2.0], [-1.0, *np.linspace(0.75, 2.5, 7)],
                np.linspace(1.0, 4.0, 20))


def component_patterns():
    """100 seeded sparse patterns, some with edges stored on one side only;
    then a first row with no zero, which joins everything; the same with
    one zero, which leaves index 4 alone; and that one joined back through
    an edge stored below the diagonal only."""
    rng = rng_for("components")
    for _ in range(100):
        n = int(rng.integers(1, 40))
        mat = (rng.random((n, n)) < rng.choice([0.02, 0.05, 0.2])) * (1.0 - 2.0j)
        if rng.random() < 0.5:
            mat = mat + mat.T
        yield mat
    mat = np.zeros((6, 6), dtype=complex)
    mat[0] = 1.0
    yield mat.copy()
    mat[0, 4] = 0.0
    yield mat.copy()
    mat[4, 2] = 1e-300
    yield mat


def test_components_match_a_graph_oracle():
    counts = []
    for mat in component_patterns():
        comps = qcore._components(mat)
        want = components_oracle(mat)
        counts.append(len(comps))
        assert len(comps) == len(want)
        assert [c[0] for c in comps] == sorted(c[0] for c in comps)
        np.testing.assert_array_equal(np.sort(np.concatenate(comps)), np.arange(len(mat)))
        for c, w in zip(comps, want):
            assert np.all(np.diff(c) > 0)
            np.testing.assert_array_equal(c, w)
    assert counts[-3:] == [1, 2, 1]


def test_eigh_by_blocks_matches_the_whole_matrix():
    rng = rng_for("eigh-blocks")
    h = _hidden_blocks(rng, BLOCK_LEVELS)
    blocks = qcore._components(h)
    assert sorted(len(c) for c in blocks) == [1, 3, 8, 20]
    full = np.linalg.eigvalsh(h)
    tol = 1e-12 * np.abs(full).max()
    # all levels; the lowest 2 (the level two blocks share); and a k
    # larger than every block
    for kwargs, want in (({}, full), ({"k": 2}, full[:2]), ({"k": 25}, full[:25])):
        vals, vecs = qcore._eigh(h, **kwargs)
        np.testing.assert_allclose(vals, want, rtol=0, atol=tol)
        np.testing.assert_allclose(qcore._eigh(h, vectors=False, **kwargs), want,
                                   rtol=0, atol=tol)
        assert vecs.shape == (len(h), len(want))
        np.testing.assert_allclose(h @ vecs, vecs * vals, rtol=0, atol=tol)
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(len(want)),
                                   rtol=0, atol=1e-12)
        # each eigenvector lives on one block, zero elsewhere
        for col in vecs.T:
            assert sum(np.any(col[c] != 0) for c in blocks) == 1


def test_ground_space_spanning_two_blocks():
    h = _hidden_blocks(rng_for("ground-two-blocks"), BLOCK_LEVELS)
    f = q.ground_space_factor(h)
    assert f.shape == (len(h), 2)
    np.testing.assert_allclose(2 * f @ f.conj().T, ground_projector_oracle(h, 1e-10),
                               rtol=0, atol=1e-12)


def test_one_component_reaches_lapack_uncopied(monkeypatch):
    seen = lapack_inputs(monkeypatch)
    rng = rng_for("one-component")
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    chain = np.diag(np.arange(32.0)) + np.diag(np.ones(31), 1) + np.diag(np.ones(31), -1)
    for h in (a + a.conj().T, chain):
        seen.clear()
        qcore._eigh(h, 3)
        assert len(seen) == 1 and seen[0] is h


def test_singleton_blocks_skip_lapack(monkeypatch):
    # a diagonal matrix is 256 blocks of 1 x 1, each read off as its entry
    # and a unit vector: no LAPACK call, and bit for bit the pairs that one
    # zheevr call per block gave (frozen digests), ties kept in block order
    seen = lapack_inputs(monkeypatch)
    rng = rng_for("singleton-blocks")
    p = rng.integers(1, 5, size=256).astype(float)
    vals, vecs = qcore._eigh(np.diag(p / p.sum()))
    assert seen == []
    assert digest(vals) == "b6463269a4949adf"
    assert digest(vecs) == "d91dc5840f97be4f"
    # beside larger blocks, the singleton level 3.0 merges into place
    h = _hidden_blocks(rng_for("eigh-blocks"), BLOCK_LEVELS)
    full = np.linalg.eigvalsh(h)
    tol = 1e-12 * np.abs(full).max()
    for kwargs, want in (({}, full), ({"k": 4}, full[:4])):
        vals, vecs = qcore._eigh(h, **kwargs)
        np.testing.assert_allclose(vals, want, rtol=0, atol=tol)
        np.testing.assert_allclose(h @ vecs, vecs * vals, rtol=0, atol=tol)
    assert len(seen) == 2 * 3        # the three larger blocks, once per call


def test_zheevr_failure_is_retried_once_in_the_reversed_basis(monkeypatch):
    # the first LAPACK call, on a gathered block, scribbles over its copy
    # and fails: the retry gathers that block afresh in reversed order and
    # flips the vector rows back, so levels and vectors match the oracle
    h = _hidden_blocks(rng_for("eigh-blocks"), BLOCK_LEVELS)
    before = h.copy()
    full = np.linalg.eigvalsh(h)
    tol = 1e-12 * np.abs(full).max()
    for kwargs, want in (({}, full), ({"k": 4}, full[:4])):
        seen = failing_lapack(monkeypatch, {0})
        vals, vecs = qcore._eigh(h, **kwargs)
        assert len(seen) == 3 + 1
        np.testing.assert_array_equal(seen[1], seen[0][::-1, ::-1])
        np.testing.assert_allclose(vals, want, rtol=0, atol=tol)
        np.testing.assert_allclose(h @ vecs, vecs * vals, rtol=0, atol=tol)
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(len(want)),
                                   rtol=0, atol=1e-12)
        failing_lapack(monkeypatch, {0})
        np.testing.assert_allclose(qcore._eigh(h, vectors=False, **kwargs), want,
                                   rtol=0, atol=tol)
    np.testing.assert_array_equal(h, before)
    # a second failure on the same block is typed (exit 4)
    failing_lapack(monkeypatch, {0, 1})
    with pytest.raises(q.ConvergenceError, match="dense eigensolver failed: Internal Error"):
        qcore._eigh(h, 4)
    # a single component reaches LAPACK uncopied, and neither the failed
    # call nor the retry in the reversed basis overwrites it
    rng = rng_for("one-component-retry")
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    one = a + a.conj().T
    before = one.copy()
    seen = failing_lapack(monkeypatch, {0})
    vals, vecs = qcore._eigh(one, 3)
    assert len(seen) == 2
    np.testing.assert_array_equal(seen[1], before[::-1, ::-1])
    np.testing.assert_array_equal(one, before)
    np.testing.assert_allclose(vals, np.linalg.eigvalsh(before)[:3], rtol=0, atol=1e-12)
    np.testing.assert_allclose(one @ vecs, vecs * vals, rtol=0, atol=1e-12)
    failing_lapack(monkeypatch, {0, 1})
    with pytest.raises(q.ConvergenceError):
        qcore._eigh(one, 3)
    np.testing.assert_array_equal(one, before)


def test_all_reject_clock_hamiltonian_is_factored_by_blocks(monkeypatch):
    # no gate touches the accept ancilla, so H is block diagonal in its bit;
    # the full matrix goes to _eigh directly, as the thermal routes hand it
    # (min_eigenvalue eliminates its clock penalty first)
    h = q.compile_circuit(all_reject_circuit(rng_for("all-reject-blocks"), 2, 3))
    full = q.assemble(h)
    seen = lapack_inputs(monkeypatch)
    evals, _ = qcore._eigh(full, 4)
    dim = 2 ** h.num_qubits
    shapes = [a.shape for a in seen]
    assert len(shapes) >= 2
    assert all(rows == cols for rows, cols in shapes)
    assert all(a.flags.f_contiguous for a in seen)    # LAPACK's own layout: one copy
    assert sum(rows for rows, _ in shapes) == dim
    want = np.linalg.eigvalsh(assemble_oracle(h))[:4]
    np.testing.assert_allclose(evals, want, rtol=0,
                               atol=np.sqrt(dim) * np.finfo(float).eps * h.total_weight)


def test_named_stream_determinism_and_separation():
    a1 = q.named_stream(5, "eigsh-start").random(4)
    a2 = q.named_stream(5, "eigsh-start").random(4)
    b = q.named_stream(5, "povm-shots").random(4)
    c = q.named_stream(6, "eigsh-start").random(4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.allclose(a1, b)
    assert not np.allclose(a1, c)


def test_fmt_float_round_trip():
    vals = [0.1, 1 / 3, 2 ** -52, 1e300, -0.0, 3.141592653589793]
    for v in vals:
        assert float(fmt_float(v)) == v


def test_matrix_file_round_trip():
    rng = rng_for("matrix-io")
    rho = random_density_matrix(rng, 2)
    text = q.write_matrix(rho.num_qubits, rho.entries)
    n, entries = q.read_matrix(text)
    assert n == 2
    np.testing.assert_array_equal(entries, rho.entries)


def test_read_state_reports_line_numbers():
    bad = "qubits 1\n1 0\nnot-a-number 0\n0 0\n1 0\n"
    with pytest.raises(q.ParseError) as exc:
        q.read_matrix(bad)
    assert "line 3" in str(exc.value)


def test_read_state_rejects_wrong_count():
    with pytest.raises(q.ParseError, match="expected 4 matrix entries, found 2"):
        q.read_matrix("qubits 1\n1 0\n0 0\n")  # 2 of 4 entries


def test_read_rejects_negative_qubit_count():
    with pytest.raises(q.ParseError):
        q.read_matrix("qubits -1\n")


def test_every_exported_name_resolves():
    modules = [q] + [importlib.import_module(f"qclock.{info.name}")
                     for info in pkgutil.iter_modules(q.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_package_exports_exactly_its_modules_exports():
    exported = set()
    for info in pkgutil.iter_modules(q.__path__):
        module = importlib.import_module(f"qclock.{info.name}")
        exported |= set(getattr(module, "__all__", ()))
    assert set(q.__all__) == exported
