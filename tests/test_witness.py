import numpy as np
import pytest

import qclock as q

from conftest import (
    all_reject_circuit, assemble_oracle, random_circuit,
    random_density_matrix, random_povm_hamiltonian, random_pure_state,
    rng_for,
)


def outer(state):
    return q.DensityMatrix(
        state.num_qubits,
        np.outer(state.amplitudes, state.amplitudes.conj()))


def test_hamiltonian_energy_matches_assembled():
    rng = rng_for("energy")
    h = random_povm_hamiltonian(rng, 4, 6)
    rho = random_density_matrix(rng, 4)
    got = q.hamiltonian_energy(rho, h)
    want = np.trace(rho.entries @ assemble_oracle(h)).real
    assert abs(got - want) < 1e-12


def test_extract_witness_recovers_history_input():
    # pulling the history state back through W and tracing the clock and
    # ancillas must return the exact input state
    rng = rng_for("extract")
    c = random_circuit(rng, n_input=2, n_ancilla=1, length=3)
    inp = random_pure_state(rng, 2)
    eta = q.history_state(c, inp)
    res = q.extract_witness(outer(eta), c)
    np.testing.assert_allclose(
        res.witness.entries,
        np.outer(inp.amplitudes, inp.amplitudes.conj()), atol=1e-12)
    p_direct = q.accept_probability(c, outer(inp)).accept_probability
    assert abs(res.accept_probability - p_direct) < 1e-12


def test_extract_witness_ground_state_high_acceptance():
    rng = rng_for("extract-ground")
    c = random_circuit(rng, n_input=2, n_ancilla=0, length=3)
    h = q.compile_circuit(c)
    rep = q.min_eigenvalue(h, method="dense")
    res = q.extract_witness(outer(rep.ground_state), c, ham=h)
    assert res.accept_probability >= 0.999
    assert res.energy is not None and res.energy < 1e-3


def test_povm_verifier_accept_closed_form():
    rng = rng_for("povm")
    for _ in range(6):
        n = int(rng.integers(2, 5))
        h = random_povm_hamiltonian(rng, n, int(rng.integers(3, 7)))
        rho = random_density_matrix(rng, n)
        got = q.povm_verifier_accept(rho, h)
        mat = assemble_oracle(h)
        want = 1.0 - np.trace(rho.entries @ mat).real / h.total_weight
        assert abs(got - want) < 1e-12


def test_povm_verifier_sample_within_three_sigma():
    rng = rng_for("povm-mc")
    n = 3
    h = random_povm_hamiltonian(rng, n, 5)
    rho = random_density_matrix(rng, n)
    exact = q.povm_verifier_accept(rho, h)
    est, err = q.povm_verifier_sample(rho, h, shots=20000, seed=9)
    sigma = max(err, np.sqrt(exact * (1 - exact) / 20000))
    assert abs(est - exact) <= 3 * sigma + 1e-12


def test_povm_verifier_sample_deterministic():
    rng = rng_for("povm-seed")
    h = random_povm_hamiltonian(rng, 3, 5)
    rho = random_density_matrix(rng, 3)
    assert (q.povm_verifier_sample(rho, h, shots=500, seed=3)
            == q.povm_verifier_sample(rho, h, shots=500, seed=3))


def test_povm_verifier_sample_rejects_indefinite_terms():
    # compiled hopping terms are not POVM elements
    c = q.Circuit(q.RegisterLayout(1, 0), (q.Gate("H", (0,)),), 0)
    h = q.compile_circuit(c)
    rho = random_density_matrix(rng_for("povm-bad"), h.num_qubits)
    with pytest.raises(q.ConsistencyError):
        q.povm_verifier_sample(rho, h, shots=10)


def test_replicate_circuit_blocks():
    rng = rng_for("replicate")
    c = random_circuit(rng, n_input=1, n_ancilla=1, length=2)
    meta, accepts = q.replicate_circuit(c, 3)
    assert meta.n_input == 3 and meta.n_ancilla == 3
    assert len(accepts) == 3 and len(set(accepts)) == 3
    assert meta.length == 3 * c.length
    # each copy acts on its own block: product input gives the same
    # per-copy acceptance as the base circuit
    inp = random_pure_state(rng, 1)
    base = q.accept_probability(c, outer(inp)).accept_probability
    joint = np.array([1.0 + 0j])
    for _ in range(3):
        joint = np.kron(joint, inp.amplitudes)
    u = q.circuit_unitary(meta).entries
    anc = np.zeros(2 ** meta.n_ancilla)
    anc[0] = 1.0
    out = u @ np.kron(joint, anc)
    total = meta.n_input + meta.n_ancilla
    for acc in accepts:
        p = sum(abs(out[i]) ** 2 for i in range(out.size)
                if (i >> (total - 1 - acc)) & 1)
        assert abs(p - base) < 1e-12


def test_replicate_identity_for_single_copy():
    c = random_circuit(rng_for("replicate-1"), n_input=1, n_ancilla=0, length=1)
    meta, accepts = q.replicate_circuit(c, 1)
    assert meta is c and accepts == (c.accept_qubit,)
    with pytest.raises(q.ValidationError):
        q.replicate_circuit(c, 0)


def test_prepare_witness_ground_source():
    rng = rng_for("prep")
    c = random_circuit(rng, n_input=2, n_ancilla=0, length=2)
    res = q.prepare_witness(
        c, q.WitnessParams(k=1, seed=0),
        lambda h, target: q.ground_projector_state(h))
    assert res.accept_probability > 0.995
    assert res.k == 1
    assert res.witness.num_qubits == 2


def test_prepare_witness_multi_copy_mixture():
    rng = rng_for("prep-k")
    c = random_circuit(rng, n_input=1, n_ancilla=0, length=1)
    res = q.prepare_witness(
        c, q.WitnessParams(k=2, seed=0),
        lambda h, target: q.ground_projector_state(h))
    assert res.witness.num_qubits == 1
    assert res.accept_probability > 0.99


def test_prepare_witness_flags_no_witness_regime():
    c = all_reject_circuit(rng_for("prep-reject"), 1, 1)
    res = q.prepare_witness(
        c, q.WitnessParams(k=1, seed=0),
        lambda h, target: q.ground_projector_state(h))
    assert "no-witness-regime" in res.flags
    # max acceptance is 0, so whatever came out accepts with probability ~0
    assert res.accept_probability < 1e-9


def test_prepare_witness_enforces_energy_target():
    rng = rng_for("prep-hot")
    c = random_circuit(rng, n_input=1, n_ancilla=0, length=1)
    maximally_mixed = lambda h, target: q.DensityMatrix(
        h.num_qubits, np.eye(2 ** h.num_qubits) / 2 ** h.num_qubits)
    with pytest.raises(q.ConsistencyError):
        q.prepare_witness(c, q.WitnessParams(k=1, seed=0),
                          maximally_mixed)


def test_prepare_witness_sampled_register_deterministic():
    rng = rng_for("prep-sample")
    c = random_circuit(rng, n_input=1, n_ancilla=0, length=1)
    src = lambda h, target: q.ground_projector_state(h)
    r1 = q.prepare_witness(c, q.WitnessParams(k=2, seed=5), src,
                           sample_register=True)
    r2 = q.prepare_witness(c, q.WitnessParams(k=2, seed=5), src,
                           sample_register=True)
    np.testing.assert_array_equal(r1.witness.entries, r2.witness.entries)


def test_sufficient_copies_frozen_values():
    # floor(16 / delta^4) + 1
    assert q.sufficient_copies(1.0) == 17
    assert q.sufficient_copies(0.5) == 257
    assert q.sufficient_copies(0.25) == 4097
    with pytest.raises(q.ValidationError):
        q.sufficient_copies(0.0)
    with pytest.raises(q.ValidationError):
        q.sufficient_copies(1.5)


def test_witness_params_validation():
    with pytest.raises(q.ValidationError):
        q.WitnessParams(k=0, seed=0)
