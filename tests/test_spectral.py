import numpy as np
import pytest

import qclock as q

from conftest import (
    all_reject_circuit, assemble_oracle, history_transform_oracle,
    random_circuit, random_povm_hamiltonian, random_pure_state, rng_for,
)


def test_assemble_matches_oracle():
    rng = rng_for("assemble")
    for _ in range(4):
        h = random_povm_hamiltonian(rng, 4, 6)
        got = q.assemble(h).entries
        np.testing.assert_allclose(got, assemble_oracle(h), atol=1e-12)


def test_assemble_bitwise_matches_oracle():
    # term-order accumulation: CLI output bytes depend on the last bits
    rng = rng_for("assemble-exact")
    c = random_circuit(rng, n_input=2, n_ancilla=1, length=4)
    for h in (q.compile_circuit(c), random_povm_hamiltonian(rng, 5, 8)):
        assert np.array_equal(q.assemble(h).entries, assemble_oracle(h))


def test_matvec_matches_dense():
    rng = rng_for("matvec")
    h = random_povm_hamiltonian(rng, 5, 7)
    dense = assemble_oracle(h)
    for _ in range(3):
        v = random_pure_state(rng, 5).amplitudes
        np.testing.assert_allclose(q.matvec(h, v), dense @ v, atol=1e-11)


def test_min_eigenvalue_dense_matches_eigvalsh():
    rng = rng_for("dense-eig")
    h = random_povm_hamiltonian(rng, 4, 6)
    report = q.min_eigenvalue(h, k=4, method="dense")
    oracle = np.linalg.eigvalsh(assemble_oracle(h))
    assert abs(report.min_eigenvalue - oracle[0]) < 1e-10
    np.testing.assert_allclose(report.spectrum, oracle[:4], atol=1e-10)
    assert report.method == "dense"


def test_min_eigenvalue_iterative_agrees_with_dense():
    rng = rng_for("iter-eig")
    c = random_circuit(rng, n_input=2, n_ancilla=1, length=4)
    h = q.compile_circuit(c, clock_penalty=24.0)
    dense = q.min_eigenvalue(h, k=3, method="dense")
    it = q.min_eigenvalue(h, k=3, method="iterative", seed=3)
    assert it.method == "iterative"
    assert abs(it.min_eigenvalue - dense.min_eigenvalue) < 1e-7
    assert it.residual < 1e-6


def test_min_eigenvalue_iterative_small_dim_falls_back():
    rng = rng_for("fallback")
    h = random_povm_hamiltonian(rng, 2, 3)
    report = q.min_eigenvalue(h, method="iterative")
    assert report.method == "dense"


def test_min_eigenvalue_deterministic_per_seed():
    rng = rng_for("eig-seed")
    c = random_circuit(rng, n_input=2, n_ancilla=0, length=4)
    h = q.compile_circuit(c, clock_penalty=16.0)
    r1 = q.min_eigenvalue(h, k=2, method="iterative", seed=11)
    r2 = q.min_eigenvalue(h, k=2, method="iterative", seed=11)
    assert r1.min_eigenvalue == r2.min_eigenvalue
    assert r1.spectrum == r2.spectrum


def test_min_eigenvalue_auto_picks_dense_when_small():
    rng = rng_for("auto")
    h = random_povm_hamiltonian(rng, 3, 4)
    assert q.min_eigenvalue(h).method == "dense"


def test_propagation_spectrum_closed_form():
    for length in range(1, 7):
        got = q.propagation_spectrum(length)
        want = 1.0 - np.cos(np.pi * np.arange(length + 1) / (length + 1))
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_propagation_spectrum_matches_compiled_walk():
    # numeric check of the conjugated walk eigenvalues on the legal subspace
    rng = rng_for("walk-eigs")
    for length in (1, 2, 3):
        c = random_circuit(rng, n_input=1, n_ancilla=1, length=length)
        h = q.compile_circuit(c).restricted_to(
            ["prop_projector", "prop_hopping", "clock"])
        mat = assemble_oracle(h)
        w = history_transform_oracle(c)
        conj = w.conj().T @ mat @ w
        n_data = 2
        cols = []
        for b in range(2 ** n_data):
            for t in range(length + 1):
                v = np.zeros(2 ** (n_data + length))
                v[b * 2 ** length + q.ClockState(t, length).basis_index] = 1.0
                cols.append(v)
        b_iso = np.array(cols).T
        reduced = b_iso.T @ conj @ b_iso
        evals = np.linalg.eigvalsh(reduced)
        want = np.repeat(np.sort(q.propagation_spectrum(length)), 2 ** n_data)
        np.testing.assert_allclose(evals, want, atol=1e-9)


def test_check_promise_classifies():
    rng = rng_for("promise")
    c = random_circuit(rng, n_input=2, n_ancilla=0, length=2)
    h = q.compile_circuit(c)
    gap = q.PromiseGap(a=1e-6, b=0.1)
    verdict, report = q.check_promise(h, gap)
    assert verdict == "low"
    assert report.min_eigenvalue <= 1e-6

    c2 = all_reject_circuit(rng, 1, 1)
    h2 = q.compile_circuit(c2)
    verdict2, report2 = q.check_promise(h2, q.PromiseGap(a=1e-6, b=0.20))
    assert verdict2 == "high"
    assert report2.min_eigenvalue >= 0.20

    verdict3, _ = q.check_promise(h2, q.PromiseGap(a=1e-6, b=0.9))
    assert verdict3 == "violated"


def test_promise_gap_validation():
    with pytest.raises(q.ValidationError):
        q.PromiseGap(a=0.5, b=0.1)  # needs a < b
    g = q.PromiseGap(a=0.1, b=0.5)
    assert g.a == 0.1 and g.b == 0.5


def test_serialize_report_round_trip_text():
    rng = rng_for("report")
    h = random_povm_hamiltonian(rng, 3, 4)
    rep = q.min_eigenvalue(h, k=3, seed=2)
    text = q.serialize_report(rep)
    lines = dict(line.split(" ", 1) for line in text.strip().split("\n"))
    assert float(lines["lambda_min"]) == rep.min_eigenvalue
    assert lines["method"] == rep.method
    assert int(lines["seed"]) == 2
    assert [float(x) for x in lines["spectrum"].split()] == list(rep.spectrum)


def test_min_eigenvalue_respects_dense_cap():
    # 13 qubits: dense refused, term list itself is fine
    terms = tuple(
        q.LocalTerm("in", 1.0, (i,), np.diag([0.0, 1.0]).astype(complex))
        for i in range(13)
    )
    h = q.LocalHamiltonian(13, terms)
    with pytest.raises(q.ResourceLimitError):
        q.min_eigenvalue(h, method="dense")
    # iterative path stays available
    rep = q.min_eigenvalue(h, k=1, method="iterative", seed=4)
    assert abs(rep.min_eigenvalue) < 1e-8
