import numpy as np
import pytest

import qclock as q
from qclock import witness

from qclock import circuit, clockham, spectral, thermal

from conftest import (
    accept_oracle, all_reject_circuit, assemble_oracle,
    history_transform_oracle, legal_oracle, partial_trace_oracle,
    perfect_circuit, random_circuit, random_density_matrix,
    random_povm_hamiltonian, random_pure_state, rng_for,
)


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
    res = q.extract_witness(eta.density(), c)
    np.testing.assert_allclose(
        res.witness.entries,
        np.outer(inp.amplitudes, inp.amplitudes.conj()), atol=1e-12)
    p_direct = q.accept_probability(c, inp.density())
    assert abs(res.accept_probability - p_direct) < 1e-12


def random_factor(rng, num_qubits: int, rank: int) -> np.ndarray:
    f = (rng.normal(size=(2 ** num_qubits, rank))
         + 1j * rng.normal(size=(2 ** num_qubits, rank)))
    return f / np.linalg.norm(f)


def dense_witness_oracle(f, c, meta, blocks):
    """W^dag rho W from the dense oracle, traced onto each listed input
    block of c's size by index loops, then mixed uniformly."""
    w = history_transform_oracle(meta)
    pulled = w.conj().T @ (f @ f.conj().T) @ w
    total = meta.n_input + meta.n_ancilla + meta.length
    n = c.n_input
    return sum(partial_trace_oracle(pulled, range(i * n, (i + 1) * n), total)
               for i in blocks) / len(blocks)


def test_extract_witness_factor_pull_back_matches_dense_oracle():
    # k = 1: a rank-3 state built from its factor, pulled back on vectors
    rng = rng_for("tail-1")
    c = random_circuit(rng, n_input=2, n_ancilla=1, length=3)
    h = q.compile_circuit(c, clock_penalty=16.0)
    f = random_factor(rng, h.num_qubits, 3)
    res = q.extract_witness(q.DensityMatrix(h.num_qubits, factor=f), c, ham=h)
    want = dense_witness_oracle(f, c, c, [0])
    np.testing.assert_allclose(res.witness.entries, want, atol=1e-12)
    assert abs(res.accept_probability - accept_oracle(c, want)) < 1e-12
    energy = np.trace(f @ f.conj().T @ assemble_oracle(h)).real
    assert abs(res.energy - energy) < 1e-12 * h.total_weight


@pytest.mark.parametrize("pick", [None, 0, 1])
def test_witness_tail_two_copies_matches_dense_oracle(pick):
    # k = 2: the uniform mixture of both input blocks, or one picked block
    rng = rng_for(f"tail-2-{pick}")
    c = random_circuit(rng, n_input=1, n_ancilla=1, length=2)
    meta, _ = q.replicate_circuit(c, 2)
    total = meta.n_input + meta.n_ancilla + meta.length
    f = random_factor(rng, total, 2)
    sigma, acc = witness._witness_tail(q.history_pull_back(meta, f),
                                       q.acceptance_operator(c), meta, pick)
    want = dense_witness_oracle(f, c, meta, [0, 1] if pick is None else [pick])
    np.testing.assert_allclose(sigma.entries, want, atol=1e-12)
    assert abs(acc - accept_oracle(c, want)) < 1e-12


def test_extract_witness_ground_state_high_acceptance():
    rng = rng_for("extract-ground")
    c = random_circuit(rng, n_input=2, n_ancilla=0, length=3)
    h = q.compile_circuit(c)
    rep = q.min_eigenvalue(h, method="dense")
    res = q.extract_witness(rep.ground_state.density(), c, ham=h)
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
    base = q.accept_probability(c, inp.density())
    joint = np.array([1.0 + 0j])
    for _ in range(3):
        joint = np.kron(joint, inp.amplitudes)
    u = q.circuit_unitary(meta)
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


def ground_source(h):
    return q.ground_space_factor(h)


def test_prepare_witness_hands_the_source_only_the_hamiltonian():
    # a state generator takes the classical description of H' and nothing
    # else; the energy target is checked by prepare_witness itself
    c = random_circuit(rng_for("prep-one-arg"), n_input=1, n_ancilla=1, length=2)
    seen = []

    def source(h):
        seen.append(h)
        return q.ground_space_factor(h)

    q.prepare_witness(c, q.WitnessParams(k=1, seed=0), source)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], q.legal_hamiltonian(c))


def test_prepare_witness_ground_source():
    rng = rng_for("prep")
    c = random_circuit(rng, n_input=2, n_ancilla=0, length=2)
    res = q.prepare_witness(c, q.WitnessParams(k=1, seed=0), ground_source)
    assert res.accept_probability > 0.995
    assert res.k == 1
    assert res.witness.num_qubits == 2


def test_prepare_witness_multi_copy_mixture():
    rng = rng_for("prep-k")
    c = random_circuit(rng, n_input=1, n_ancilla=0, length=1)
    res = q.prepare_witness(c, q.WitnessParams(k=2, seed=0), ground_source)
    assert res.witness.num_qubits == 1
    assert res.accept_probability > 0.99


def test_prepare_witness_flags_no_witness_regime():
    c = all_reject_circuit(rng_for("prep-reject"), 1, 1)
    res = q.prepare_witness(c, q.WitnessParams(k=1, seed=0), ground_source)
    assert "no-witness-regime" in res.flags
    # max acceptance is 0, so whatever came out accepts with probability ~0
    assert res.accept_probability < 1e-9


def test_prepare_witness_enforces_energy_target():
    rng = rng_for("prep-hot")
    c = random_circuit(rng, n_input=1, n_ancilla=0, length=1)
    maximally_mixed = lambda h: np.eye(len(h)) / np.sqrt(len(h))
    with pytest.raises(q.ConsistencyError):
        q.prepare_witness(c, q.WitnessParams(k=1, seed=0),
                          maximally_mixed)


def test_prepare_witness_sampled_register_deterministic():
    rng = rng_for("prep-sample")
    c = random_circuit(rng, n_input=1, n_ancilla=0, length=1)
    r1 = q.prepare_witness(c, q.WitnessParams(k=2, seed=5), ground_source,
                           sample_register=True)
    r2 = q.prepare_witness(c, q.WitnessParams(k=2, seed=5), ground_source,
                           sample_register=True)
    np.testing.assert_array_equal(r1.witness.entries, r2.witness.entries)


@pytest.mark.parametrize("bad, message", [
    (lambda h: np.ones(len(h)) / np.sqrt(len(h)), "want a factor with"),
    (lambda h: np.ones((len(h) + 1, 1)) / np.sqrt(len(h) + 1), "want a factor with"),
    (lambda h: np.ones((len(h), 1)), "not 1 within 1e-12"),
    (lambda h: np.full((len(h), 1), np.nan), "non-finite"),
], ids=["vector", "rows", "trace", "nan"])
def test_prepare_witness_checks_the_source_factor(bad, message):
    c = random_circuit(rng_for("prep-bad"), n_input=1, n_ancilla=1, length=2)
    with pytest.raises(q.ValidationError, match=message):
        q.prepare_witness(c, q.WitnessParams(k=1, seed=0), bad)


def embed_legal_factor(f, meta):
    """Rows x (L+1) + t of a legal-clock factor, moved to rows x 2^L + the
    unary clock bits of t on the full register; the other rows are 0."""
    width, length = meta.n_input + meta.n_ancilla, meta.length
    rows = [x * 2 ** length + int("1" * t + "0" * (length - t) or "0", 2)
            for x in range(2 ** width) for t in range(length + 1)]
    full = np.zeros((2 ** (width + length), f.shape[1]), dtype=complex)
    full[rows] = f
    return full


@pytest.mark.parametrize("k, pick", [(1, None), (2, None), (2, 0), (2, 1)])
def test_prepare_witness_matches_legal_oracle(k, pick):
    # the ground space of the conftest legal oracle, mixed uniformly and
    # traced onto the input blocks by index loops
    rng = rng_for(f"prep-oracle-{k}-{pick}")
    c = random_circuit(rng, n_input=1, n_ancilla=1, length=2)
    meta, accepts = q.replicate_circuit(c, k)
    evals, evecs = np.linalg.eigh(legal_oracle(meta, accepts))
    ground = evecs[:, evals - evals[0] <= 1e-10]
    f = embed_legal_factor(ground / np.sqrt(ground.shape[1]), meta)
    total = meta.n_input + meta.n_ancilla + meta.length
    blocks = range(k) if pick is None else [pick]
    want = sum(partial_trace_oracle(f @ f.conj().T, range(i, i + 1), total)
               for i in blocks) / len(blocks)
    seed = 0
    if pick is not None:    # find the seed whose register choice is `pick`
        seed = next(s for s in range(100) if q.named_stream(
            s, "register-choice").integers(k) == pick)
    res = q.prepare_witness(c, q.WitnessParams(k=k, seed=seed), ground_source,
                            sample_register=pick is not None)
    np.testing.assert_allclose(res.witness.entries, want, atol=1e-12)
    assert abs(res.accept_probability - accept_oracle(c, want)) < 1e-12
    assert abs(res.energy - evals[0]) < 1e-12


def test_prepare_witness_never_touches_the_full_register(monkeypatch):
    # neither source compiles, assembles or pulls back the 2^N register
    def refuse(*args, **kwargs):
        raise AssertionError("full-register route called")

    for module, name in ((witness, "compile_circuit"), (clockham, "compile_circuit"),
                         (witness, "history_pull_back"),
                         (clockham, "history_pull_back"), (thermal, "assemble"),
                         (spectral, "assemble"), (witness, "hamiltonian_energy")):
        monkeypatch.setattr(module, name, refuse)
    c = random_circuit(rng_for("prep-legal-only"), n_input=2, n_ancilla=1, length=3)
    for source in (ground_source, lambda h: q.gibbs_factor(h, 0.01)[0]):
        res = q.prepare_witness(c, q.WitnessParams(k=2, seed=0), source)
        assert res.witness.num_qubits == 2


def test_prepare_witness_builds_the_acceptance_operator_once(monkeypatch):
    # one acceptance operator M per call serves both the no-witness flag
    # and the witness's acceptance, so one full-register unitary is formed
    built = []
    unitary = circuit.circuit_unitary

    def counting(c):
        built.append(c)
        return unitary(c)

    monkeypatch.setattr(circuit, "circuit_unitary", counting)
    c = random_circuit(rng_for("prep-one-m"), n_input=2, n_ancilla=1, length=3)
    for k in (1, 2):
        built.clear()
        q.prepare_witness(c, q.WitnessParams(k=k, seed=0), ground_source)
        assert built == [c]


def test_two_copy_witness_past_the_register_cap():
    # k = 2 copies of a 3-input, L = 8 verifier: a 6 + 16 = 22-qubit
    # compiled register, which compile_circuit refuses; its legal
    # restriction has 64 * 17 = 1088 dimensions
    rng = rng_for("prep-k2-22")
    params = q.WitnessParams(k=2, seed=0)
    c = perfect_circuit(rng, 3, 8)
    meta, accepts = q.replicate_circuit(c, 2)
    assert meta.n_input + meta.n_ancilla + meta.length == 22
    with pytest.raises(q.ResourceLimitError):
        q.compile_circuit(meta, accept_qubits=accepts)
    res = q.prepare_witness(c, params, ground_source)
    assert res.accept_probability >= 1 - 1e-12
    assert abs(res.energy) < 1e-12
    assert "no-witness-regime" not in res.flags
    # an all-reject verifier needs an ancilla: 2 inputs + 1 ancilla, L = 8
    c = all_reject_circuit(rng, 2, 8)
    meta, _ = q.replicate_circuit(c, 2)
    assert meta.n_input + meta.n_ancilla + meta.length == 22
    res = q.prepare_witness(c, params, ground_source)
    assert res.accept_probability <= 1e-12
    assert "no-witness-regime" in res.flags


def test_prepare_witness_refuses_legal_dimension_past_the_cap():
    # three copies: 512 * 25 = 12800 legal dimensions
    c = perfect_circuit(rng_for("prep-k3"), 3, 8)
    with pytest.raises(q.ResourceLimitError, match="dense cap"):
        q.prepare_witness(c, q.WitnessParams(k=3, seed=0), ground_source)


def test_prepare_witness_checks_the_cap_before_any_dense_work(monkeypatch):
    # 10 inputs + 1 ancilla, L = 2: 2048 * 3 legal dimensions, past the cap;
    # the refusal comes before the 2048^2 circuit unitary is formed
    def refuse(c):
        raise AssertionError("circuit unitary formed before the cap check")

    monkeypatch.setattr(circuit, "circuit_unitary", refuse)
    c = q.parse_circuit("n_input 10\nn_ancilla 1\naccept 0\ngate H 0\ngate CNOT 0 10\n")
    with pytest.raises(q.ResourceLimitError, match="dense cap"):
        q.prepare_witness(c, q.WitnessParams(k=1, seed=0), ground_source)


def test_prepare_witness_reports_the_projection_leak():
    # 1 input, 1 ancilla, L = 2: ||H1|| <= 1 + 1 + 3 = 5 and J = 2**12, so
    # the leak is 25 / (4096 - 10); the compiled ground energy lies within
    # it below the legal one
    c = random_circuit(rng_for("prep-leak"), n_input=1, n_ancilla=1, length=2)
    res = q.prepare_witness(c, q.WitnessParams(k=1, seed=0), ground_source)
    assert res.leak == 25.0 / (4096.0 - 10.0)
    legal = np.linalg.eigvalsh(legal_oracle(c, (c.accept_qubit,)))[0]
    full = np.linalg.eigvalsh(assemble_oracle(q.compile_circuit(c)))[0]
    assert abs(res.energy - legal) < 1e-12
    assert legal - res.leak <= full <= legal + 1e-12
    # two copies: 2 ancillas, 2 out-terms, L = 4, so ||H1|| <= 10
    res = q.prepare_witness(c, q.WitnessParams(k=2, seed=0), ground_source)
    assert res.leak == 100.0 / (4.0 ** 12 - 20.0)
    # L = 1 has no clock terms and every clock state is legal, so nothing
    # leaks: the compiled ground energy is the legal one
    rng = rng_for("prep-leak-one-step")
    for one_step in (perfect_circuit(rng, 1, 1), all_reject_circuit(rng, 1, 1)):
        res = q.prepare_witness(one_step, q.WitnessParams(k=1, seed=0), ground_source)
        assert res.leak == 0.0
        legal = np.linalg.eigvalsh(legal_oracle(one_step, (one_step.accept_qubit,)))[0]
        full = np.linalg.eigvalsh(assemble_oracle(q.compile_circuit(one_step)))[0]
        assert abs(full - legal) < 1e-12


def test_sufficient_copies_frozen_values():
    # floor(16 / delta^4) + 1
    assert q.sufficient_copies(1.0) == 17
    assert q.sufficient_copies(0.5) == 257
    assert q.sufficient_copies(0.25) == 4097
    # exact past float range: 16/delta^4 overflows below about 1e-77, and
    # the smallest subnormal 2^-1074 gives exactly 2^4300 + 1
    assert len(str(q.sufficient_copies(1e-80))) == 322
    assert len(str(q.sufficient_copies(1e-100))) == 402
    assert q.sufficient_copies(5e-324) == 2 ** 4300 + 1
    # against the exact ratio delta = p/r: floor(16 r^4 / p^4) + 1
    rng = rng_for("sufficient-copies")
    deltas = np.concatenate([[1e-80, 1e-100, 5e-324], rng.random(20),
                             10.0 ** rng.uniform(-300, 0, 20)])
    for delta in deltas:
        p, r = float(delta).as_integer_ratio()
        assert q.sufficient_copies(float(delta)) == 16 * r ** 4 // p ** 4 + 1
    with pytest.raises(q.ValidationError):
        q.sufficient_copies(0.0)
    with pytest.raises(q.ValidationError):
        q.sufficient_copies(1.5)


def test_witness_params_validation():
    with pytest.raises(q.ValidationError):
        q.WitnessParams(k=0, seed=0)
