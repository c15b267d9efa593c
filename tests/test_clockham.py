import numpy as np
import pytest

import qclock as q

from qclock.clockham import history_transform

from conftest import (
    all_reject_circuit, assemble_oracle, history_transform_oracle,
    legal_oracle, random_circuit, random_pure_state, rng_for, unitary_oracle,
)


def small_circuit():
    return q.Circuit(q.RegisterLayout(1, 1),
                     (q.Gate("H", (0,)), q.Gate("CNOT", (0, 1))),
                     accept_qubit=1)


def test_unary_encode():
    assert q.unary_encode(0, 4) == "0000"
    assert q.unary_encode(2, 4) == "1100"
    assert q.unary_encode(4, 4) == "1111"
    with pytest.raises(q.ValidationError):
        q.unary_encode(5, 4)
    with pytest.raises(q.ValidationError):
        q.unary_encode(-1, 4)


def test_clock_state_basis_index():
    # 1^t 0^(L-t) read as MSB-first bits
    assert q.ClockState(0, 3).basis_index == 0b000
    assert q.ClockState(2, 3).basis_index == 0b110
    assert q.ClockState(3, 3).basis_index == 0b111


def test_local_term_validation():
    p1 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(q.ValidationError):
        q.LocalTerm("in", -1.0, (0,), p1)  # weight sign
    with pytest.raises(q.ValidationError):
        q.LocalTerm("in", 1.0, (1, 0), np.eye(4, dtype=complex))  # unsorted
    with pytest.raises(q.ValidationError):
        q.LocalTerm("in", 1.0, (0,), np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(q.ValidationError):
        q.LocalTerm("wrong-part", 1.0, (0,), p1)
    with pytest.raises(q.ValidationError):
        q.LocalTerm("in", 1.0, (0, 1, 2, 3), np.eye(16, dtype=complex))  # 4-local
    with pytest.raises(q.ValidationError):
        q.LocalTerm("in", 1.0, (0,), 2.0 * p1)  # norm > 1
    with pytest.raises(q.ValidationError):
        q.LocalTerm("in", 1.0, (0,), -p1)  # PSD part with negative matrix


def test_compile_term_census():
    rng = rng_for("census")
    for _ in range(5):
        c = random_circuit(rng)
        h = q.compile_circuit(c)
        counts = h.part_counts()
        length, m = c.length, c.n_ancilla
        assert counts["clock"] == length * (length - 1) // 2
        assert counts["in"] == m
        assert counts["out"] == 1
        assert counts["prop_projector"] == 2 * length
        assert counts["prop_hopping"] == length
        assert all(1 <= len(t.support) <= 3 for t in h.terms)
        assert h.num_qubits == c.n_input + m + length


def test_compile_locality_is_three():
    # hopping on a two-qubit gate: 2 targets + 1 clock qubit
    c = small_circuit()
    h = q.compile_circuit(c)
    hops = [t for t in h.terms if t.part == "prop_hopping"]
    assert {len(t.support) for t in hops} == {2, 3}
    assert max(len(t.support) for t in h.terms) == 3


def test_clock_penalty_default_and_override():
    c = small_circuit()
    assert c.length == 2
    h = q.compile_circuit(c)
    clock = [t for t in h.terms if t.part == "clock"]
    assert clock[0].weight == 2.0 ** 12
    h2 = q.compile_circuit(c, clock_penalty=7.0)
    assert [t.weight for t in h2.terms if t.part == "clock"] == [7.0]
    with pytest.raises(q.ValidationError):
        q.compile_circuit(c, clock_penalty=0.0)


def test_clock_term_matrix_is_01_projector():
    c = small_circuit()
    h = q.compile_circuit(c)
    t = next(t for t in h.terms if t.part == "clock")
    want = np.zeros((4, 4))
    want[1, 1] = 1.0  # |01> in MSB-first two-qubit basis
    np.testing.assert_array_equal(t.matrix, want)


def test_compile_rejects_oversized_register():
    gates = (q.Gate("H", (0,)),)
    c = q.Circuit(q.RegisterLayout(12, 4), gates, accept_qubit=0)
    with pytest.raises(q.ResourceLimitError):
        q.compile_circuit(c)


def test_hopping_terms_are_hermitian_not_psd():
    h = q.compile_circuit(small_circuit())
    for t in h.terms:
        np.testing.assert_allclose(t.matrix, t.matrix.conj().T, atol=1e-12)
    hop = next(t for t in h.terms if t.part == "prop_hopping")
    assert np.linalg.eigvalsh(hop.matrix).min() < -0.9  # genuinely indefinite


def test_history_pull_back_undoes_prefixes():
    # W maps |psi>|t> to (U_t ... U_1 |psi>)|t>, so the pull-back W^dag
    # maps every snapshot back to the input at its own clock value
    rng = rng_for("wtrans")
    c = random_circuit(rng, n_input=2, n_ancilla=0, length=3)
    n = 2
    psi = random_pure_state(rng, n).amplitudes
    for t in range(c.length + 1):
        snap = psi.copy()
        if t > 0:
            snap = unitary_oracle(
                q.Circuit(c.layout, c.gates[:t], c.accept_qubit)) @ snap
        clock = np.zeros(2 ** c.length)
        clock[q.ClockState(t, c.length).basis_index] = 1.0
        got = q.history_pull_back(c, np.kron(snap, clock))
        np.testing.assert_allclose(got, np.kron(psi, clock), atol=1e-12)


def test_history_pull_back_matches_dense_oracle():
    # on a block of columns, W^dag X against the dense oracle's adjoint;
    # the dense history_transform (kept for the benchmark's span names) is
    # built from the same pull-back and must equal the oracle too
    rng = rng_for("wblock")
    c = random_circuit(rng, n_input=2, n_ancilla=1, length=3)
    w = history_transform_oracle(c)
    x = rng.normal(size=(w.shape[0], 3)) + 1j * rng.normal(size=(w.shape[0], 3))
    np.testing.assert_allclose(q.history_pull_back(c, x), w.conj().T @ x, atol=1e-12)
    np.testing.assert_allclose(history_transform(c), w, atol=1e-12)
    with pytest.raises(q.ValidationError):
        q.history_pull_back(c, x[:-1])


def test_history_pull_back_is_unitary():
    rng = rng_for("wunitary")
    c = random_circuit(rng, n_input=1, n_ancilla=1, length=2)
    w_dag = q.history_pull_back(c, np.eye(2 ** (2 + c.length), dtype=complex))
    np.testing.assert_allclose(w_dag @ w_dag.conj().T, np.eye(w_dag.shape[0]), atol=1e-12)


def test_history_state_snapshot_form():
    rng = rng_for("eta")
    c = random_circuit(rng, n_input=2, n_ancilla=1, length=2)
    inp = random_pure_state(rng, 2)
    eta = q.history_state(c, inp)
    total = c.n_input + c.n_ancilla + c.length
    assert eta.num_qubits == total
    # oracle: explicit sum of snapshots
    start = np.kron(inp.amplitudes, np.eye(1 << c.n_ancilla)[0])
    acc = np.zeros(2 ** total, dtype=complex)
    snap = start
    for t in range(c.length + 1):
        if t > 0:
            snap = unitary_oracle(q.Circuit(c.layout, (c.gates[t - 1],),
                                            c.accept_qubit)) @ snap
        clock = np.zeros(2 ** c.length)
        clock[q.ClockState(t, c.length).basis_index] = 1.0
        acc += np.kron(snap, clock)
    acc /= np.sqrt(c.length + 1)
    np.testing.assert_allclose(eta.amplitudes, acc, atol=1e-12)


def test_history_energy_identity_random_family():
    # energy of the history state = (1 - accept) / (L + 1), exactly
    rng = rng_for("energy-id")
    for _ in range(5):
        c = random_circuit(rng)
        inp = random_pure_state(rng, c.n_input)
        eta = q.history_state(c, inp)
        energy = q.hamiltonian_energy(eta.density(), q.compile_circuit(c))
        p = q.accept_probability(c, inp.density())
        assert abs(energy - (1 - p) / (c.length + 1)) < 1e-9


def test_clock_part_kills_legal_subspace():
    # clock terms act only on illegal strings
    c = small_circuit()
    h = q.compile_circuit(c).restricted_to(["clock"])
    mat = assemble_oracle(h)
    n_data = 2
    for t in range(c.length + 1):
        clock = np.zeros(2 ** c.length)
        clock[q.ClockState(t, c.length).basis_index] = 1.0
        for b in range(2 ** n_data):
            data = np.eye(2 ** n_data)[b]
            v = np.kron(data, clock)
            assert np.abs(mat @ v).max() < 1e-12


def test_conjugated_propagation_is_identity_tensor_walk():
    # W^dag (H_prop + H_clock) W on the legal subspace acts as a free-end
    # hopping walk on the clock alone
    rng = rng_for("conjugation")
    c = random_circuit(rng, n_input=1, n_ancilla=1, length=3)
    h = q.compile_circuit(c).restricted_to(
        ["prop_projector", "prop_hopping", "clock"])
    mat = assemble_oracle(h)
    w = history_transform_oracle(c)
    conj = w.conj().T @ mat @ w
    # isometry onto data (x) legal clock strings
    length = c.length
    n_data = c.n_input + c.n_ancilla
    cols = []
    for b in range(2 ** n_data):
        for t in range(length + 1):
            v = np.zeros(2 ** (n_data + length))
            v[b * 2 ** length + q.ClockState(t, length).basis_index] = 1.0
            cols.append(v)
    b_iso = np.array(cols).T
    reduced = b_iso.T @ conj @ b_iso
    # oracle: walk matrix E with 1/2 on the diagonal bulk, free ends
    e = np.zeros((length + 1, length + 1))
    for t in range(length + 1):
        e[t, t] = 0.5 if t in (0, length) else 1.0
        if t < length:
            e[t, t + 1] = e[t + 1, t] = -0.5
    want = np.kron(np.eye(2 ** n_data), e)
    np.testing.assert_allclose(reduced, want, atol=1e-12)


@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("ancillas", [0, 1, 2, 3])
def test_legal_hamiltonian_matches_oracle(ancillas, copies):
    # with 2-3 ancillas P = sum |1><1| has levels 0..m; with two copies Q
    # sums two out-terms and has levels 0..2
    rng = rng_for(f"legal-{ancillas}-{copies}")
    for _ in range(2):
        c = random_circuit(rng, n_input=2 if copies == 1 else 1,
                           n_ancilla=ancillas, length=3 if copies == 1 else 1)
        meta, accepts = q.replicate_circuit(c, copies)
        got = q.legal_hamiltonian(meta, accepts)
        np.testing.assert_allclose(got, legal_oracle(meta, accepts), rtol=0, atol=1e-12)
    if copies == 1:
        np.testing.assert_array_equal(q.legal_hamiltonian(c), got)


def test_legal_hamiltonian_validation():
    c = small_circuit()
    with pytest.raises(q.ValidationError, match="accept qubit 2 outside register"):
        q.legal_hamiltonian(c, accept_qubits=(2,))
    # 2^11 data values times 3 clock values: 6144 dimensions
    wide = q.Circuit(q.RegisterLayout(1, 10), small_circuit().gates, 1)
    with pytest.raises(q.ResourceLimitError, match="dimension 6144 exceeds"):
        q.legal_hamiltonian(wide)


def test_all_reject_instances_barely_move():
    c = all_reject_circuit(rng_for("allreject"), 2, 1)
    assert q.optimal_witness(c).probability < 1e-12


def test_hamiltonian_round_trip():
    c = small_circuit()
    h = q.compile_circuit(c, clock_penalty=16.0)
    text = q.serialize_hamiltonian(h)
    back = q.parse_hamiltonian(text)
    assert q.serialize_hamiltonian(back) == text
    assert back.part_counts() == h.part_counts()
    assert back.layout == h.layout
    for t1, t2 in zip(h.terms, back.terms):
        assert t1.support == t2.support
        np.testing.assert_array_equal(t1.matrix, t2.matrix)


def test_parse_hamiltonian_rejects_bad_term_header():
    c = small_circuit()
    text = q.serialize_hamiltonian(q.compile_circuit(c))
    broken = text.replace("term clock", "term clocks", 1)
    with pytest.raises(q.ParseError):
        q.parse_hamiltonian(broken)
