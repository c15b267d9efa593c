import importlib
import pkgutil

import numpy as np
import pytest
import scipy.linalg

import qclock as q
from qclock.qcore import (
    _check_hermitian, _check_unitary, apply_local, fmt_float, permute_to_sorted,
)

from conftest import (
    partial_trace_oracle, random_density_matrix, random_pure_state, rng_for,
)


def test_pure_state_validation():
    with pytest.raises(q.ValidationError):
        q.PureState(1, np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(q.ValidationError):
        q.PureState(2, np.array([1.0, 0.0]))  # wrong length
    s = q.PureState(1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.5  # frozen buffer


def test_density_matrix_validation():
    with pytest.raises(q.ValidationError):
        q.DensityMatrix(1, np.array([[0.5, 0.0], [0.0, 0.6]]))  # trace != 1
    with pytest.raises(q.ValidationError):
        q.DensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))  # not PSD
    with pytest.raises(q.ValidationError):
        q.DensityMatrix(1, np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(q.ValidationError):
        q.DensityMatrix(1, np.array([[np.nan, 0.0], [0.0, 1.0]]))  # not finite


def test_density_matrix_psd_check_failure_is_a_convergence_error(monkeypatch):
    # the entries' PSD check runs the one dense eigensolver, so a LAPACK
    # failure there is typed (exit 4), not a bare LinAlgError
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(scipy.linalg, "eigh", fail)
    with pytest.raises(q.ConvergenceError, match="dense eigensolver failed"):
        q.DensityMatrix(1, np.eye(2) / 2)


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
    with pytest.raises(q.ValidationError, match="exactly one"):
        q.DensityMatrix(1, np.eye(2) / 2, factor=np.eye(2) / np.sqrt(2))
    with pytest.raises(q.ResourceLimitError):
        q.DensityMatrix(q.DENSE_QUBIT_CAP + 1, factor=np.ones((1, 1)))


def test_density_matrix_forms_agree():
    # a factor-built state's entries are F F^dag; an entries-built state's
    # factor reproduces its entries; neither can be reassigned
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


def test_qubit_caps_enforced():
    with pytest.raises(q.ResourceLimitError):
        q.PureState(q.QUBIT_CAP + 1, np.zeros(2 ** (q.QUBIT_CAP + 1)))
    with pytest.raises(q.ResourceLimitError):
        d = 2 ** (q.DENSE_QUBIT_CAP + 1)
        q.DensityMatrix(q.DENSE_QUBIT_CAP + 1, np.eye(d) / d)


def test_register_layout():
    lay = q.RegisterLayout(2, 1, 3)
    assert lay.total == 6
    assert list(lay.input_qubits) == [0, 1]
    assert list(lay.ancilla_qubits) == [2]
    assert list(lay.clock_qubits) == [3, 4, 5]
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


@pytest.mark.parametrize("where", [(511, 300), (255, 256), (0, 511)])
def test_hermitian_check_sees_every_row_block(where):
    # 512 rows span two blocks: a defect in the last block, one straddling
    # the boundary, and one whose transpose lies in the last block
    rng = rng_for("hermitian-blocks")
    a = rng.normal(size=(512, 512)) + 1j * rng.normal(size=(512, 512))
    h = a + a.conj().T
    _check_hermitian(h, "h")
    bad = h.copy()
    bad[where] += 2e-12
    with pytest.raises(q.ValidationError, match="h not Hermitian within 1e-12"):
        _check_hermitian(bad, "h")
    ok = np.zeros((512, 512), dtype=complex)
    ok[where] = 1e-12
    _check_hermitian(ok, "h")


def test_unitary_check():
    _check_unitary(q.NAMED_GATES["H"], "H")
    with pytest.raises(q.ValidationError, match="u: unitarity defect 2.000e-12 above 1e-12"):
        _check_unitary(np.diag([1.0, 1.0 + 1e-12]), "u")


def test_embed_matrix_permutation():
    rng = rng_for("embed")
    n = 4
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    got = apply_local(m, (1, 3), n, np.eye(16))
    # oracle: outer product basis walk
    oracle = np.zeros((16, 16), dtype=complex)
    for i in range(16):
        for j in range(16):
            bi = [(i >> (n - 1 - b)) & 1 for b in range(n)]
            bj = [(j >> (n - 1 - b)) & 1 for b in range(n)]
            if bi[0] != bj[0] or bi[2] != bj[2]:
                continue
            oracle[i, j] = m[(bi[1] << 1) | bi[3], (bj[1] << 1) | bj[3]]
    np.testing.assert_allclose(got, oracle, atol=1e-14)


def test_permute_to_sorted_matches_swap_conjugation():
    rng = rng_for("permute")
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    qubits, out = permute_to_sorted(m, (3, 1))
    assert qubits == [1, 3]
    swap = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            swap[(b << 1) | a, (a << 1) | b] = 1.0
    np.testing.assert_allclose(out, swap @ m @ swap, atol=1e-14)
    # already sorted: unchanged object
    qubits2, out2 = permute_to_sorted(m, (0, 2))
    assert qubits2 == [0, 2] and out2 is m


def test_operator_norm():
    h = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert abs(q.operator_norm(h.astype(complex)) - 2.0) < 1e-12


def test_named_stream_determinism_and_separation():
    a1 = q.named_stream(5, "eigsh-start").random(4)
    a2 = q.named_stream(5, "eigsh-start").random(4)
    b = q.named_stream(5, "povm-shots").random(4)
    c = q.named_stream(6, "eigsh-start").random(4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.allclose(a1, b)
    assert not np.allclose(a1, c)


def test_state_digest_stable():
    s = q.PureState(1, np.array([1.0, 0.0], dtype=complex))
    d1 = q.state_digest(s)
    d2 = q.state_digest(q.PureState(1, np.array([1.0, 0.0], dtype=complex)))
    assert d1 == d2 and len(d1) == 16


def test_fmt_float_round_trip():
    vals = [0.1, 1 / 3, 2 ** -52, 1e300, -0.0, 3.141592653589793]
    for v in vals:
        assert float(fmt_float(v)) == v


def test_state_file_round_trip(tmp_path):
    rng = rng_for("state-io")
    s = random_pure_state(rng, 3)
    text = q.write_state(s)
    back = q.read_state(text)
    np.testing.assert_array_equal(back.amplitudes, s.amplitudes)
    assert q.write_state(back) == text  # byte-stable second pass


def test_matrix_file_round_trip():
    rng = rng_for("matrix-io")
    rho = random_density_matrix(rng, 2)
    text = q.write_matrix(rho.num_qubits, rho.entries)
    n, entries = q.read_matrix(text)
    assert n == 2
    np.testing.assert_array_equal(entries, rho.entries)


def test_read_state_reports_line_numbers():
    bad = "qubits 1\n1 0\nnot-a-number 0\n"
    with pytest.raises(q.ParseError) as exc:
        q.read_state(bad)
    assert "line 3" in str(exc.value)


def test_read_state_rejects_wrong_count():
    with pytest.raises(q.ParseError):
        q.read_state("qubits 2\n1 0\n0 0\n")  # 2 of 4 rows


def test_read_rejects_negative_qubit_count():
    with pytest.raises(q.ParseError):
        q.read_state("qubits -1\n")
    with pytest.raises(q.ParseError):
        q.read_matrix("qubits -1\n")


def test_every_exported_name_resolves():
    modules = [q] + [importlib.import_module(f"qclock.{info.name}")
                     for info in pkgutil.iter_modules(q.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
