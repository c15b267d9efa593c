import numpy as np
import pytest

import qclock as q
from qclock import circuit

from conftest import (
    accept_oracle, random_circuit, random_pure_state, rng_for, unitary_oracle,
)


def bell_circuit(accept=1, epsilon=0.25):
    return q.Circuit(q.RegisterLayout(2, 0),
                     (q.Gate("H", (0,)), q.Gate("CNOT", (0, 1))),
                     accept_qubit=accept, epsilon=epsilon)


def test_named_gate_matrices():
    s = q.NAMED_GATES["S"]
    t = q.NAMED_GATES["T"]
    np.testing.assert_allclose(s, np.diag([1, 1j]), atol=1e-15)
    np.testing.assert_allclose(t @ t, s, atol=1e-15)
    np.testing.assert_allclose(
        q.NAMED_GATES["H"] @ q.NAMED_GATES["H"], np.eye(2), atol=1e-15)
    for label, m in q.NAMED_GATES.items():
        np.testing.assert_allclose(
            m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12, err_msg=label)


def test_gate_validation():
    with pytest.raises(q.ValidationError):
        q.Gate("H", (0, 1))  # arity mismatch
    with pytest.raises(q.ValidationError):
        q.Gate("CNOT", (1, 1))  # repeated target
    with pytest.raises(q.ValidationError):
        q.Gate("U1", (0,), matrix=np.array([[1.0, 0.0], [1.0, 0.0]]))  # not unitary
    with pytest.raises(q.ValidationError):
        q.Gate("H", (0,), matrix=np.eye(2))  # named gates carry no payload
    g = q.Gate("U1", (2,), matrix=np.array([[0, 1], [1, 0]], dtype=complex))
    assert g.label == "U1" and g.targets == (2,)


def test_circuit_validation():
    with pytest.raises(q.ValidationError):
        q.Circuit(q.RegisterLayout(0, 1), (q.Gate("X", (0,)),), 0)  # no input
    with pytest.raises(q.ValidationError):
        q.Circuit(q.RegisterLayout(1, 0), (), 0)  # no gates
    with pytest.raises(q.ValidationError):
        q.Circuit(q.RegisterLayout(1, 1), (q.Gate("X", (2,)),), 0)  # target range
    with pytest.raises(q.ValidationError):
        bell_circuit(accept=2)  # accept qubit range
    with pytest.raises(q.ValidationError):
        bell_circuit(epsilon=0.5)  # epsilon outside (0, 1/3]
    with pytest.raises(q.ValidationError):
        bell_circuit(epsilon=0.0)
    assert bell_circuit(epsilon=1 / 3).epsilon == 1 / 3
    assert bell_circuit().length == 2


def test_circuit_unitary_is_ordered_product():
    c = bell_circuit()
    u = q.circuit_unitary(c)
    # oracle built by hand: CNOT(0,1) * (H (x) I), qubit 0 = leftmost factor
    h_first = np.kron(q.NAMED_GATES["H"], np.eye(2))
    cnot = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            cnot[(a << 1) | (b ^ a), (a << 1) | b] = 1.0
    np.testing.assert_allclose(u, cnot @ h_first, atol=1e-14)
    assert not u.flags.writeable


def test_dense_cap_is_checked_before_the_unitary_is_built(monkeypatch):
    # 1 input + 12 ancillas: the 2^13 x 2^13 unitary alone is 1 GiB
    def refuse(c, vec):
        raise AssertionError("gates applied before the cap check")

    monkeypatch.setattr(circuit, "apply_gates", refuse)
    c = q.parse_circuit("n_input 1\nn_ancilla 12\naccept 0\ngate H 0\n")
    for build in (q.circuit_unitary, q.acceptance_operator, q.optimal_witness):
        with pytest.raises(q.ResourceLimitError, match="circuit_unitary on 13 qubits"):
            build(c)
    with pytest.raises(q.ResourceLimitError, match="circuit_unitary on 13 qubits"):
        q.accept_probability(c, q.PureState.computational(1, 0).density())


def test_apply_gates_matches_unitary():
    rng = rng_for("apply")
    for _ in range(8):
        c = random_circuit(rng)
        n = c.n_input + c.n_ancilla
        v = random_pure_state(rng, n).amplitudes
        got = q.apply_gates(c, v)
        want = unitary_oracle(c) @ v
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_accept_probability_frozen_values():
    # frozen from a hand-built kron/permutation oracle
    c = bell_circuit()
    ten = q.DensityMatrix(2, np.diag([0, 0, 1.0, 0]))  # |10>
    p = q.accept_probability(c, ten)
    assert abs(p - 0.4999999999999999) < 1e-12

    c2 = q.Circuit(q.RegisterLayout(1, 1),
                   (q.Gate("T", (0,)), q.Gate("CNOT", (0, 1))),
                   accept_qubit=1)
    plus = np.full((2, 2), 0.5)
    p2 = q.accept_probability(c2, q.DensityMatrix(1, plus))
    assert abs(p2 - 0.4999999999999999) < 1e-12


def test_accept_probability_with_ancillas_zeroed():
    # ancilla starts at |0>: X on it flips accept to 1 deterministically
    c = q.Circuit(q.RegisterLayout(1, 1), (q.Gate("X", (1,)),), accept_qubit=1)
    rho = q.DensityMatrix(1, np.diag([1.0, 0.0]))
    assert abs(q.accept_probability(c, rho) - 1.0) < 1e-14


def test_acceptance_operator_matches_direct_runs():
    rng = rng_for("accept-op")
    for _ in range(6):
        c = random_circuit(rng, n_input=2, n_ancilla=1)
        m = q.acceptance_operator(c)
        s = random_pure_state(rng, 2)
        rho = np.outer(s.amplitudes, s.amplitudes.conj())
        direct = accept_oracle(c, rho)
        quad = (s.amplitudes.conj() @ m @ s.amplitudes).real
        assert abs(direct - quad) < 1e-12
        got = q.accept_probability(c, q.DensityMatrix(2, rho))
        assert abs(got - direct) < 1e-12


def test_optimal_witness_attains_operator_top():
    rng = rng_for("opt-witness")
    c = random_circuit(rng, n_input=2, n_ancilla=1, length=4)
    opt = q.optimal_witness(c)
    m = q.acceptance_operator(c)
    top = np.linalg.eigvalsh(m)[-1]
    assert abs(opt.probability - top) < 1e-12
    rho = np.outer(opt.state.amplitudes, opt.state.amplitudes.conj())
    assert abs(accept_oracle(c, rho) - top) < 1e-12


def test_optimal_witness_perfect_when_no_ancilla():
    rng = rng_for("perfect")
    for _ in range(5):
        c = random_circuit(rng, n_ancilla=0)
        assert q.optimal_witness(c).probability > 1 - 1e-12


def test_concatenate():
    c1 = bell_circuit()
    c2 = q.Circuit(q.RegisterLayout(2, 0), (q.Gate("Z", (0,)),), 1)
    seq = q.concatenate(c1, c2)
    assert seq.length == 3
    u = q.circuit_unitary(seq)
    want = q.circuit_unitary(c2) @ q.circuit_unitary(c1)
    np.testing.assert_allclose(u, want, atol=1e-14)
    with pytest.raises(q.ValidationError):
        q.concatenate(c1, q.Circuit(q.RegisterLayout(1, 0), (q.Gate("X", (0,)),), 0))


def test_serialize_parse_round_trip_named_and_explicit():
    rng = rng_for("circuit-io")
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    qmat, _ = np.linalg.qr(mat)
    c = q.Circuit(
        q.RegisterLayout(2, 1),
        (q.Gate("H", (0,)), q.Gate("U1", (2,), matrix=qmat),
         q.Gate("CZ", (0, 2))),
        accept_qubit=2, epsilon=0.125,
    )
    text = q.serialize_circuit(c)
    back = q.parse_circuit(text)
    assert q.serialize_circuit(back) == text
    assert back.epsilon == c.epsilon
    np.testing.assert_array_equal(back.gates[1].matrix, c.gates[1].matrix)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(q.ParseError) as exc:
        q.parse_circuit("n_input 1\nn_ancilla 0\naccept 0\ngate WAT 0\n")
    assert "line 4" in str(exc.value)
    with pytest.raises(q.ParseError) as exc:
        q.parse_circuit("n_input 1\nn_input 2\naccept 0\ngate X 0\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(q.ParseError):
        q.parse_circuit("n_ancilla 0\naccept 0\ngate X 0\n")  # missing n_input
