import numpy as np
import pytest

import qclock as q

from qclock import clockham

from conftest import (
    all_reject_circuit, assemble_oracle, history_transform_oracle,
    random_circuit, random_povm_hamiltonian, random_pure_state,
    random_unit_interval_hermitian, rng_for,
)


def test_assemble_matches_oracle():
    rng = rng_for("assemble")
    for _ in range(4):
        h = random_povm_hamiltonian(rng, 4, 6)
        got = q.assemble(h)
        np.testing.assert_allclose(got, assemble_oracle(h), atol=1e-12)


def test_assemble_bitwise_matches_oracle():
    # term-order accumulation: CLI output bytes depend on the last bits
    rng = rng_for("assemble-exact")
    c = random_circuit(rng, n_input=2, n_ancilla=1, length=4)
    for h in (q.compile_circuit(c), random_povm_hamiltonian(rng, 5, 8)):
        assert np.array_equal(q.assemble(h), assemble_oracle(h))


def test_assemble_returns_a_read_only_hermitian_array():
    # each term passes its own 1e-12 Hermitian check, but weight 10 scales
    # the defect to 1e-11, past the check on the weighted sum
    lop = np.array([[0.0, 1e-12], [0.0, 0.0]])
    ok = q.LocalHamiltonian(1, (q.LocalTerm("prop_hopping", 0.5, (0,), lop),))
    mat = q.assemble(ok)
    assert type(mat) is np.ndarray and not mat.flags.writeable
    bad = q.LocalHamiltonian(1, (q.LocalTerm("prop_hopping", 10.0, (0,), lop),))
    with pytest.raises(q.ValidationError, match="not Hermitian within 1e-12"):
        q.assemble(bad)


def fusion_instances(rng):
    """Random 1-3-local POVM Hamiltonians on 6-8 qubits, with each one's
    first supports repeated under fresh matrices, and a compiled clock H
    at the default L**12 penalty."""
    out = []
    for n in (6, 7, 8):
        h = random_povm_hamiltonian(rng, n, 3 * n)
        again = tuple(
            q.LocalTerm("in", t.weight, t.support,
                        random_unit_interval_hermitian(rng, len(t.support)))
            for t in h.terms[:4]
        )
        out.append(q.LocalHamiltonian(n, h.terms + again))
    c = random_circuit(rng, n_input=2, n_ancilla=1, length=4)
    out.append(q.compile_circuit(c))
    return out


def test_matvec_matches_dense():
    # the fused groups reorder the sums, so agreement is up to rounding
    rng = rng_for("matvec")
    for h in [random_povm_hamiltonian(rng, 5, 7)] + fusion_instances(rng):
        dim = 2 ** h.num_qubits
        dense = assemble_oracle(h)
        tol = np.sqrt(dim) * np.finfo(float).eps * h.total_weight
        v = random_pure_state(rng, h.num_qubits).amplitudes
        assert np.linalg.norm(q.matvec(h, v) - dense @ v) <= tol
        block = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        block /= np.linalg.norm(block, axis=0)
        err = np.linalg.norm(q.matvec(h, block) - dense @ block, axis=0)
        assert (err <= tol).all()


def test_fused_plan_invariants():
    rng = rng_for("fused-plan")
    for h in fusion_instances(rng):
        groups = clockham._fusion_groups(h.terms)
        assert h.fused is h.fused  # built once per Hamiltonian
        assert [g[0] for g in groups] == [support for support, _ in h.fused]
        members = sorted(j for _, group in groups for j in group)
        assert members == list(range(len(h.terms)))
        for support, group in groups:
            assert list(support) == sorted(set(support))
            assert len(support) <= clockham._FUSE_WIDTH
            for j in group:
                assert set(h.terms[j].support) <= set(support)
        for support, matrix in h.fused:
            assert matrix.shape == (2 ** len(support),) * 2


def test_fused_plan_keeps_wide_unions_apart():
    # disjoint 2-qubit terms: a group takes at most _FUSE_WIDTH // 2 of them
    per_group = clockham._FUSE_WIDTH // 2
    count = 2 * per_group + 1
    rng = rng_for("fused-apart")
    terms = tuple(
        q.LocalTerm("in", 1.0, (2 * i, 2 * i + 1),
                    random_unit_interval_hermitian(rng, 2))
        for i in range(count)
    )
    h = q.LocalHamiltonian(2 * count, terms)
    groups = clockham._fusion_groups(h.terms)
    assert len(groups) == 3
    assert sorted(len(group) for _, group in groups) == [1, per_group, per_group]


def test_min_eigenvalue_iterative_ten_qubits_matches_oracle():
    rng = rng_for("iter-10")
    h = random_povm_hamiltonian(rng, 10, 30)
    rep = q.min_eigenvalue(h, k=6, method="iterative", seed=1)
    assert rep.method == "iterative"
    oracle = np.linalg.eigvalsh(assemble_oracle(h))[:6]
    np.testing.assert_allclose(rep.spectrum, oracle, rtol=0,
                               atol=1e-9 * max(1.0, h.total_weight))


@pytest.mark.parametrize("method", ["dense", "iterative"])
@pytest.mark.parametrize("k", [1, 14, 15, 16, 20])
def test_min_eigenvalue_returns_min_k_dim_levels(method, k):
    # ARPACK takes k <= dim - 2; past that the iterative route falls back
    # to dense instead of truncating the spectrum
    rng = rng_for("k-levels")
    h = random_povm_hamiltonian(rng, 4, 6)
    rep = q.min_eigenvalue(h, k=k, method=method, seed=1)
    assert len(rep.spectrum) == min(k, 16)
    want = "iterative" if method == "iterative" and k <= 14 else "dense"
    assert rep.method == want
    oracle = np.linalg.eigvalsh(assemble_oracle(h))[:k]
    np.testing.assert_allclose(rep.spectrum, oracle, rtol=0, atol=1e-9)


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
