import numpy as np
import pytest

import qclock as q

from qclock import clockham, qcore, spectral

from conftest import (
    all_reject_circuit, assemble_oracle, failing_lapack, history_transform_oracle,
    lapack_inputs, legal_oracle, perfect_circuit, random_circuit,
    random_povm_hamiltonian, random_pure_state,
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
    for h in (q.compile_circuit(c), random_povm_hamiltonian(rng, 5, 8),
              q.LocalHamiltonian(3, ())):
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


def test_fused_groups_match_the_oracle_bitwise():
    # each group matrix is the independent assembly of its member terms
    # moved onto the group's k qubits, bit for bit
    rng = rng_for("fused-oracle")
    for h in fusion_instances(rng):
        groups = clockham._fusion_groups(h.terms)
        for (support, members), (fused_support, matrix) in zip(groups, h.fused):
            assert fused_support == support
            moved = tuple(
                q.LocalTerm(t.part, t.weight, tuple(support.index(b) for b in t.support),
                            t.matrix)
                for t in (h.terms[j] for j in members))
            want = assemble_oracle(q.LocalHamiltonian(len(support), moved))
            assert np.array_equal(matrix, want)


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


def _count_matvecs(monkeypatch) -> list:
    """One entry per matrix-free product spectral makes from now on."""
    calls = []
    matvec = spectral.matvec
    monkeypatch.setattr(spectral, "matvec", lambda h, v: calls.append(1) or matvec(h, v))
    return calls


@pytest.mark.parametrize("num_qubits", [10, 11])
def test_iterative_levels_lie_within_twice_the_residual_target(num_qubits, monkeypatch):
    # Lanczos stops once every Ritz pair's absolute residual is below about
    # 2 * residual_target, and a Ritz value lies within its residual of an
    # eigenvalue; a looser target stops sooner and still holds its levels
    calls = _count_matvecs(monkeypatch)
    h = random_povm_hamiltonian(rng_for(f"lanczos-stop-{num_qubits}"), num_qubits,
                                2 * num_qubits)
    oracle = np.linalg.eigvalsh(assemble_oracle(h))[:6]
    used = []
    for target in (1e-8, 1e-4):
        calls.clear()
        rep = q.min_eigenvalue(h, k=6, method="iterative", seed=num_qubits,
                               residual_target=target)
        assert rep.method == "iterative"
        np.testing.assert_allclose(rep.spectrum, oracle, rtol=0, atol=2 * target)
        assert len(calls) <= spectral._LANCZOS_MATVECS + 1    # + the residual check
        used.append(len(calls))
    assert used[1] < used[0]


def test_clock_layout_at_the_default_penalty_stops_at_the_budget(monkeypatch):
    # at the L**12 penalty no Ritz pair reaches an absolute residual of
    # 1e-8, so Lanczos spends its budget and fails with a typed error; it
    # never returns a level that only the relative post-check accepts
    monkeypatch.setattr(spectral, "_LANCZOS_MATVECS", 60)
    calls = _count_matvecs(monkeypatch)
    h = q.compile_circuit(all_reject_circuit(rng_for("lanczos-budget"), 2, 8))
    assert h.num_qubits == 11
    with pytest.raises(q.ConvergenceError, match="did not converge within 60 matvecs"):
        q.min_eigenvalue(h, k=6, method="iterative")
    assert 0 < len(calls) <= 60 + 1      # + one block residual of any returned pairs


def test_lanczos_refuses_a_k_whose_first_restart_passes_the_budget(monkeypatch):
    # ARPACK takes ncv + 1 products and then ncv - k per restart: at a
    # budget of 60, k = 19 (ncv 39) fits one restart exactly, and k = 20
    # and k = 25 (63 and 78 products) are refused before any product;
    # k = 6 fits two restarts, 49 products
    monkeypatch.setattr(spectral, "_LANCZOS_MATVECS", 60)
    calls = _count_matvecs(monkeypatch)
    h = q.compile_circuit(all_reject_circuit(rng_for("lanczos-budget"), 2, 8))
    for k, needs in ((20, 63), (25, 78)):
        with pytest.raises(q.ResourceLimitError,
                           match=f"k={k} eigenvalues needs {needs} matvecs to "
                                 "restart once, above the budget of 60"):
            q.min_eigenvalue(h, k=k, method="iterative")
        assert calls == []
    for k, spent in ((6, 49), (19, 60)):
        calls.clear()
        with pytest.raises(q.ConvergenceError, match="did not converge within 60 matvecs"):
            q.min_eigenvalue(h, k=k, method="iterative")
        assert len(calls) == spent


@pytest.mark.parametrize("name, message", [
    ("lanczos-uncertified", "did not converge within 2000 matvecs"),
    ("lanczos-uncertified-b", "float64 products resolve only"),
])
def test_iterative_route_never_returns_uncertified_clock_levels(name, message):
    # 10-qubit layouts at the L**12 penalty, where the tolerance sits at
    # machine epsilon: a solve to machine precision returned levels 62/L^3
    # and 0.10/L^3 off the legal ground energy, with residuals of 0.18 and
    # 8.6e-4 that the relative post-check alone accepts; now the first
    # spends its budget and the second's pair residuals refuse it
    c = random_circuit(rng_for(name), n_input=2, n_ancilla=1, length=7)
    with pytest.raises(q.ConvergenceError, match=message):
        q.min_eigenvalue(q.compile_circuit(c), k=6, method="iterative")


def test_budget_failure_reports_the_best_converged_residual(monkeypatch):
    # 64 products converge some of the six Ritz pairs but not all: the
    # error carries the smallest residual among the pairs ARPACK returns
    monkeypatch.setattr(spectral, "_LANCZOS_MATVECS", 64)
    h = random_povm_hamiltonian(rng_for("lanczos-stop-10"), 10, 20)
    with pytest.raises(q.ConvergenceError, match="best residual") as exc:
        q.min_eigenvalue(h, k=6, method="iterative", seed=10)
    assert 0 < exc.value.best_residual <= 2e-8


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


def test_min_eigenvalue_rejects_bad_residual_targets():
    h = random_povm_hamiltonian(rng_for("bad-residual"), 3, 4)
    for bad in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(q.ValidationError, match=f"residual_target {bad} must be finite"):
            q.min_eigenvalue(h, residual_target=bad)


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
    with pytest.raises(q.ResourceLimitError,
                       match="dense assembly on 13 qubits exceeds the cap of 12"):
        q.min_eigenvalue(h, method="dense")
    wide = q.LocalHamiltonian(17, terms)
    with pytest.raises(q.ResourceLimitError,
                       match="iterative min_eigenvalue on 17 qubits exceeds the cap of 16"):
        q.min_eigenvalue(wide, method="iterative")
    # iterative path stays available
    rep = q.min_eigenvalue(h, k=1, method="iterative", seed=4)
    assert abs(rep.min_eigenvalue) < 1e-8


def eliminated_clock_layouts():
    """Perfect (0 ancillas), all-reject (1) and random (2 and 3 ancillas)
    circuits at L = 2..8, at most 9 qubits compiled (the dense legal oracle
    takes seconds at 10)."""
    rng = rng_for("eliminated-clock")
    out = []
    for length in range(2, 9):
        out.append(perfect_circuit(rng, 2 if length < 8 else 1, length))
        if length < 8:
            out.append(all_reject_circuit(rng, 1, length))
        out.extend(random_circuit(rng, n_input=1, n_ancilla=m, length=length)
                   for m in (2, 3) if 1 + m + length <= 9)
    return out


def eliminated(h, k):
    return spectral._eliminated_levels(spectral._sparse_sum(h), k)


def forbid_assembly(monkeypatch):
    def forbidden(*args):
        raise AssertionError("dense sum built on a certified clock layout")

    monkeypatch.setattr(spectral, "_dense", forbidden)


def test_dense_clock_solves_eliminate_the_penalized_block(monkeypatch):
    # at the default L**12 penalty every illegal clock state is eliminated:
    # LAPACK sees nothing larger than the legal block, nothing is assembled,
    # and each level lies within the projection-lemma leak of the legal one
    seen = lapack_inputs(monkeypatch)
    forbid_assembly(monkeypatch)
    for c in eliminated_clock_layouts():
        h = q.compile_circuit(c)
        seen.clear()
        report = q.min_eigenvalue(h, k=6, method="dense")
        legal_dim = 2 ** (c.n_input + c.n_ancilla) * (c.length + 1)
        assert all(a.shape[0] <= legal_dim for a in seen)
        assert report.method == "dense" and report.residual <= 1e-12
        legal = np.linalg.eigvalsh(legal_oracle(c, [c.accept_qubit]))[:6]
        leak = clockham._projection_leak(c, [c.accept_qubit])
        np.testing.assert_allclose(report.spectrum, legal, rtol=0, atol=leak + 1e-12)
        if h.num_qubits <= 8:
            # small enough that a full-space solve resolves the finite penalty
            full = np.linalg.eigvalsh(assemble_oracle(h))[:6]
            atol = np.sqrt(2 ** h.num_qubits) * np.finfo(float).eps * h.total_weight
            np.testing.assert_allclose(report.spectrum, full, rtol=0, atol=atol)


@pytest.mark.parametrize("case", ["random", "moderate-penalty", "k-past-legal-block",
                                  "lapack-failure"])
def test_dense_route_without_a_certificate_factors_the_assembled_matrix(case, monkeypatch):
    rng = rng_for(f"no-certificate-{case}")
    if case == "random":
        h, k = random_povm_hamiltonian(rng, 6, 12), 4
    elif case == "moderate-penalty":
        c = random_circuit(rng, n_input=2, n_ancilla=1, length=4)
        h, k = q.compile_circuit(c, clock_penalty=2.0), 4
    elif case == "k-past-legal-block":
        # 1 input and L = 2: 6 legal states of 8
        h, k = q.compile_circuit(perfect_circuit(rng, 1, 2)), 7
    else:
        # zheevr refuses the reduced matrix in both bases
        h, k = q.compile_circuit(all_reject_circuit(rng, 2, 4)), 4
        eigh = spectral._eigh

        def fail_reduced(mat, *args, **kwargs):
            if len(mat) < 2 ** h.num_qubits:
                raise q.ConvergenceError("dense eigensolver failed: Internal Error.")
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(spectral, "_eigh", fail_reduced)
    assert eliminated(h, k) is None
    evals, evecs = qcore._eigh(q.assemble(h), k)
    # the certificate and the fallback share one CSR matrix
    calls = []
    scatter = spectral._scatter_entries
    monkeypatch.setattr(spectral, "_scatter_entries",
                        lambda *args: calls.append(args) or scatter(*args))
    report = q.min_eigenvalue(h, k=k, method="dense")
    assert len(calls) == len(h.terms)
    assert report.spectrum == tuple(float(v) for v in evals)
    ground = q.PureState(h.num_qubits, evecs[:, 0] / np.linalg.norm(evecs[:, 0]))
    assert np.array_equal(report.ground_state.amplitudes, ground.amplitudes)


# 10-qubit layouts whose reduced matrix OpenBLAS's zheevr refuses with an
# "Internal Error" (MRRR on exactly paired levels), seen twice in about
# 21,000 bench-size solves; it solves the reversed basis
ZHEEVR_REFUSED = {
    "perfect": ("n_input 3\nn_ancilla 0\naccept 2\nepsilon 0.25\ngate Z 0\ngate H 1\n"
                "gate X 0\ngate X 0\ngate CNOT 2 1\ngate CZ 0 2\ngate CZ 2 1\n"),
    "all-reject": ("n_input 2\nn_ancilla 1\naccept 2\nepsilon 0.25\ngate H 0\ngate Y 0\n"
                   "gate CNOT 1 0\ngate S 0\ngate Y 0\ngate Z 1\ngate CNOT 1 0\n"),
}


@pytest.mark.parametrize("name", sorted(ZHEEVR_REFUSED))
def test_reduced_solve_retries_zheevr_in_the_reversed_basis(name, monkeypatch):
    # the first LAPACK call of the reduced solve fails on purpose, whatever
    # the LAPACK build; qcore's eigensolver solves that matrix again in the
    # reversed basis, and the full-space route never runs
    c = q.parse_circuit(ZHEEVR_REFUSED[name])
    h = q.compile_circuit(c)
    calls = failing_lapack(monkeypatch, {0})
    forbid_assembly(monkeypatch)
    report = q.min_eigenvalue(h, k=6, method="dense")
    assert len(calls) >= 2 and np.array_equal(calls[1], calls[0][::-1, ::-1])
    assert report.residual <= 1e-12
    legal = np.linalg.eigvalsh(clockham.legal_hamiltonian(c))[:6]
    leak = clockham._projection_leak(c, [c.accept_qubit])
    np.testing.assert_allclose(report.spectrum, legal, rtol=0, atol=leak + 1e-12)


def test_dense_route_keeps_the_weighted_sum_hermitian_check():
    # the clock layout alone is certified; one term whose weight scales its
    # defect past 1e-12 makes the sum fail assemble's check, with its text
    h = q.compile_circuit(perfect_circuit(rng_for("eliminated-hermitian"), 2, 3))
    assert eliminated(h, 4) is not None
    lop = np.array([[0.0, 1e-12], [0.0, 0.0]])
    bad = q.LocalHamiltonian(h.layout, h.terms + (q.LocalTerm("prop_hopping", 10.0, (0,), lop),))
    with pytest.raises(q.ValidationError) as assembled:
        q.assemble(bad)
    with pytest.raises(q.ValidationError) as solved:
        q.min_eigenvalue(bad, k=4, method="dense")
    assert str(solved.value) == str(assembled.value)
    assert "not Hermitian within 1e-12" in str(solved.value)


def dense_sub_route_instances():
    """A certified clock layout at the default penalty, an uncertified
    random local H and a termless one, each with whether it is certified."""
    rng = rng_for("dense-sub-routes")
    return [(q.compile_circuit(perfect_circuit(rng, 2, 3)), True),
            (random_povm_hamiltonian(rng, 6, 12), False),
            (q.LocalHamiltonian(3, ()), False)]


def test_dense_solves_never_build_the_fused_groups():
    # the dense residual is taken on the matrix solved, not through matvec
    for h, certified in dense_sub_route_instances():
        assert (eliminated(h, 4) is not None) == certified
        q.min_eigenvalue(h, k=4, method="dense")
        assert "fused" not in h.__dict__


def test_dense_residual_is_taken_on_the_solved_matrix():
    eps = np.finfo(float).eps
    # and an empty register, whose one level no split can hold
    empty = q.LocalHamiltonian(0, ())
    for h in [h for h, _ in dense_sub_route_instances()] + [empty]:
        report = q.min_eigenvalue(h, k=4, method="dense")
        g = report.ground_state.amplitudes
        want = np.linalg.norm(assemble_oracle(h) @ g - report.min_eigenvalue * g)
        atol = np.sqrt(2 ** h.num_qubits) * eps * max(1.0, h.total_weight)
        assert abs(report.residual - want) <= atol
        if not h.terms:
            # H is 0: zero levels and residual, as many as the space holds
            assert report.spectrum == (0.0,) * min(4, 2 ** h.num_qubits)
            assert report.residual == 0.0


def test_a_dense_solve_checks_the_weighted_sum_once(monkeypatch):
    # the eliminated route and the fallback share one CSR H, checked once
    calls = []
    check = spectral._check_hermitian

    def counted(*args, **kwargs):
        calls.append(args[1])
        return check(*args, **kwargs)

    monkeypatch.setattr(spectral, "_check_hermitian", counted)
    for h, _ in dense_sub_route_instances():
        for solve in (lambda: q.min_eigenvalue(h, k=4, method="dense"),
                      lambda: q.assemble(h)):
            calls.clear()
            solve()
            assert calls == ["assemble: weighted sum"]


@pytest.mark.parametrize("num_qubits, terms, method", [
    (4, (), "iterative"),
    (4, (q.LocalTerm("in", 0.75, (2,), np.eye(2)),), "iterative"),
    (13, (), "auto"),
], ids=["termless", "identity-sum", "termless-past-the-dense-cap"])
def test_a_zero_lanczos_operator_is_a_convergence_error(num_qubits, terms, method):
    # sigma*I - H is exactly 0, so ARPACK finds its start vector zeroed;
    # auto takes Lanczos past 12 qubits
    h = q.LocalHamiltonian(num_qubits, terms)
    with pytest.raises(q.ConvergenceError, match="ARPACK error -9: Starting vector is zero"):
        q.min_eigenvalue(h, k=1, method=method)
