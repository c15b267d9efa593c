import math

import numpy as np
import pytest
import scipy.linalg

import qclock as q
from qclock import thermal

from conftest import (
    all_reject_circuit, assemble_oracle, failing_lapack, ground_projector_oracle,
    random_circuit, random_povm_hamiltonian, random_unit_interval_hermitian, rng_for,
)


def test_temperature_validation():
    with pytest.raises(q.ValidationError):
        q.Temperature(0.0)
    with pytest.raises(q.ValidationError):
        q.Temperature(-1.0)
    assert q.Temperature(0.5).value == 0.5


def test_gibbs_state_matches_expm_oracle():
    rng = rng_for("gibbs")
    for temp in (0.05, 0.3, 2.0):
        h = random_povm_hamiltonian(rng, 3, 5)
        state, report = q.gibbs_state(h, temp)
        mat = assemble_oracle(h)
        raw = scipy.linalg.expm(-mat / temp)
        want = raw / np.trace(raw).real
        np.testing.assert_allclose(state.entries, want, atol=1e-10)
        assert abs(report.mean_energy
                   - np.trace(want @ mat).real) < 1e-10
        assert abs(report.partition_function - np.trace(raw).real) < 1e-8 * abs(
            np.trace(raw).real)


def test_gibbs_populations_ordered_and_normalized():
    rng = rng_for("gibbs-pop")
    h = random_povm_hamiltonian(rng, 3, 4)
    _, report = q.gibbs_state(h, 0.7)
    pops = np.array(report.populations)
    assert abs(pops.sum() - 1.0) < 1e-12
    assert all(a >= b - 1e-15 for a, b in zip(pops, pops[1:]))  # colder first
    assert report.e_min <= report.mean_energy <= report.e_max


def test_gibbs_extreme_temperatures():
    rng = rng_for("gibbs-extreme")
    h = random_povm_hamiltonian(rng, 2, 3)
    _, cold = q.gibbs_state(h, 1e-8)
    assert abs(cold.mean_energy - cold.e_min) < 1e-6
    _, hot = q.gibbs_state(h, 1e8)
    mat = assemble_oracle(h)
    assert abs(hot.mean_energy - np.trace(mat).real / mat.shape[0]) < 1e-6


def test_ground_projector_state_degenerate_space():
    # two decoupled |1><1| penalties leave a 1-dim ground on 2 qubits;
    # dropping one of them leaves a 2-dim degenerate ground space
    p1 = np.diag([0.0, 1.0]).astype(complex)
    h1 = q.LocalHamiltonian(2, (q.LocalTerm("in", 1.0, (0,), p1),))
    rho = q.ground_projector_state(h1)
    # ground space = span{|00>, |01>}, maximally mixed over it
    want = np.diag([0.5, 0.5, 0.0, 0.0])
    np.testing.assert_allclose(rho.entries, want, atol=1e-12)
    assert abs(q.hamiltonian_energy(rho, h1)) < 1e-12


def test_ground_projector_state_grows_its_subset(monkeypatch):
    # one |1><1| penalty on qubit 0 of 5 leaves a 16-dim ground space, more
    # than the first subset solve returns, so an eigenvalues-only solve of
    # every level counts it and one more subset solve fetches it whole; a
    # smaller ground space takes one solve
    calls = []
    eigh = thermal._eigh

    def record(mat, k=None, vectors=True):
        calls.append((k, vectors))
        return eigh(mat, k, vectors)

    monkeypatch.setattr(thermal, "_eigh", record)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    h = q.LocalHamiltonian(5, (q.LocalTerm("in", 1.0, (0,), p1),))
    rho = q.ground_projector_state(h)
    assert rho.factor.shape == (32, 16)
    np.testing.assert_allclose(rho.entries, np.diag([1 / 16] * 16 + [0] * 16),
                               atol=1e-12)
    assert calls == [(8, True), (None, False), (16, True)]
    # penalties on qubits 0 and 1 of 5 leave an 8-dim ground space: all 8
    # levels of the first solve are in it, so the count runs and finds
    # exactly those 8
    calls.clear()
    h = q.LocalHamiltonian(5, tuple(q.LocalTerm("in", 1.0, (j,), p1) for j in (0, 1)))
    assert q.ground_projector_state(h).factor.shape == (32, 8)
    assert len(calls) == 2
    # penalties on qubits 0-2 leave 4 ground levels, fewer than 8: one solve
    calls.clear()
    h = q.LocalHamiltonian(5, tuple(q.LocalTerm("in", 1.0, (j,), p1) for j in range(3)))
    assert q.ground_projector_state(h).factor.shape == (32, 4)
    assert calls == [(8, True)]


def test_ground_space_factor_asks_for_vectors_by_index_only(monkeypatch):
    # a dense 64-dim matrix, one component, with a 10-fold ground level: the
    # ground space outgrows the first subset solve, the count solve asks for
    # no vectors, and every solve that does asks for them by index
    rng = rng_for("ground-by-index")
    v, _ = np.linalg.qr(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))
    levels = np.concatenate([np.zeros(10), 1.0 + rng.random(54)])
    mat = (v * levels) @ v.conj().T
    mat = (mat + mat.conj().T) / 2
    seen = []
    eigh = scipy.linalg.eigh

    def record(a, *args, **kwargs):
        seen.append(kwargs)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", record)
    f = q.ground_space_factor(mat)
    assert [(kw["subset_by_index"], kw["eigvals_only"]) for kw in seen] == [
        ((0, 7), False), (None, True), ((0, 9), False)]
    assert not any("subset_by_value" in kw for kw in seen)
    assert f.shape == (64, 10)
    np.testing.assert_allclose(10 * f @ f.conj().T, ground_projector_oracle(mat, 1e-10),
                               rtol=0, atol=1e-12)


def test_ground_space_factor_at_zero_tolerance():
    # I (x) a has every level 16 times; at degeneracy_tol = 0 the first 8
    # can come out equal while the eigenvalues-only count at that level
    # finds fewer, or none, of them: the first solve's levels then stand
    rng = rng_for("ground-below-rounding")
    for _ in range(10):
        a = random_unit_interval_hermitian(rng, 2)
        mat = np.kron(np.eye(16), a)
        f = q.ground_space_factor(mat, 0.0)
        lowest = np.linalg.eigvalsh(a)[0]
        assert f.shape[0] == 64 and 1 <= f.shape[1] <= 16
        assert abs(np.vdot(f, f).real - 1.0) < 1e-12
        np.testing.assert_allclose(mat @ f, lowest * f, atol=1e-12)


def test_bad_degeneracy_tolerances_are_rejected():
    # a negative tolerance would leave an empty ground space; both consumers
    # of degeneracy_tol refuse it, and a non-finite one, before any solve
    mat = np.diag([0.0, 1.0]).astype(complex)
    c = q.parse_circuit("n_input 1\nn_ancilla 0\naccept 0\ngate H 0\n")
    for bad in (-1.0, -1e-300, np.inf, np.nan):
        message = f"degeneracy_tol {bad} must be finite and >= 0"
        with pytest.raises(q.ValidationError, match=message):
            q.ground_space_factor(mat, bad)
        with pytest.raises(q.ValidationError, match=message):
            q.optimal_witness(c, bad)


def test_gibbs_reports_use_eigenvalues_only(monkeypatch):
    # the one factorisation computes no eigenvectors, and its eigenvalues
    # match an independent dense solve within sqrt(2^n) eps total_weight
    seen = []
    eigh = thermal._eigh

    def record(mat, k=None, vectors=True):
        out = eigh(mat, k, vectors)
        seen.append((vectors, out))
        return out

    monkeypatch.setattr(thermal, "_eigh", record)
    rng = rng_for("gibbs-evals")
    c = random_circuit(rng, n_input=2, n_ancilla=1, length=3)
    for h in (q.compile_circuit(c), random_povm_hamiltonian(rng, 4, 6)):
        seen.clear()
        reports = q.gibbs_reports(h, [0.01, 1.0])
        [(vectors, evals)] = seen
        assert vectors is False
        want = np.linalg.eigvalsh(assemble_oracle(h))
        bound = math.sqrt(2 ** h.num_qubits) * np.finfo(float).eps * h.total_weight
        assert np.abs(evals - want).max() <= bound
        for r in reports:
            assert r.e_min == evals[0] and r.e_max == evals[-1]


def test_gibbs_reports_survive_one_zheevr_failure(monkeypatch):
    # the first LAPACK call fails as zheevr's MRRR does; the eigensolver
    # solves that block again in the reversed basis, and the reports match
    # an independent dense solve: each level within sqrt(2^n) eps
    # total_weight, and the mean within that times 1 + 2 sd/T, twice its
    # first-order response (sd the thermal spread of the levels)
    rng = rng_for("gibbs-retry")
    c = random_circuit(rng, n_input=2, n_ancilla=1, length=3)
    temps = [0.01, 1.0]
    for h in (q.compile_circuit(c), random_povm_hamiltonian(rng, 4, 6)):
        calls = failing_lapack(monkeypatch, {0})
        reports = q.gibbs_reports(h, temps)
        monkeypatch.undo()
        assert len(calls) >= 2
        want = np.linalg.eigvalsh(assemble_oracle(h))
        bound = math.sqrt(2 ** h.num_qubits) * np.finfo(float).eps * h.total_weight
        for r, t in zip(reports, temps):
            pops = np.exp(-(want - want[0]) / t)
            pops /= pops.sum()
            assert abs(r.e_min - want[0]) <= bound and abs(r.e_max - want[-1]) <= bound
            mean = pops @ want
            sd = math.sqrt(pops @ (want - mean) ** 2)
            assert abs(r.mean_energy - mean) <= bound * (1 + 2 * sd / t)


def test_gibbs_state_factor_spans_occupied_levels():
    # at a low temperature the clock-penalised levels carry population 0
    # exactly, and the state's factor keeps only the occupied ones
    c = random_circuit(rng_for("gibbs-factor"), n_input=2, n_ancilla=1, length=3)
    h = q.compile_circuit(c)
    state, report = q.gibbs_state(h, 0.05)
    occupied = sum(p > 0 for p in report.populations)
    assert occupied < 2 ** h.num_qubits
    assert state.factor.shape == (2 ** h.num_qubits, occupied)
    bound = math.sqrt(2 ** h.num_qubits) * np.finfo(float).eps * h.total_weight
    assert abs(q.hamiltonian_energy(state, h) - report.mean_energy) <= bound


def test_mean_energy_bound_formula():
    # rhs = a + (d-a)/2 + 2^n exp(-(d-a)/(2T)) e_max, checked literally
    b = q.mean_energy_bound(a=0.0, d=0.5, n=3, e_max=4.0, t=0.1)
    want = 0.25 + (2 ** 3) * math.exp(-0.5 / 0.2) * 4.0
    assert b.rhs == pytest.approx(want, rel=1e-14)
    assert b.cutoff == 0.25
    with pytest.raises(q.ValidationError):
        q.mean_energy_bound(a=0.5, d=0.5, n=3, e_max=4.0, t=0.1)
    with pytest.raises(q.ValidationError):
        q.mean_energy_bound(a=0.0, d=0.5, n=3, e_max=-1.0, t=0.1)


def test_mean_energy_bound_dominates_gibbs_mean():
    # random PSD instances, exact ground as the floor, log temperature grid
    rng = rng_for("dominate")
    for _ in range(5):
        n = int(rng.integers(2, 5))
        h = random_povm_hamiltonian(rng, n, int(rng.integers(3, 8)))
        evals = np.linalg.eigvalsh(assemble_oracle(h))
        a, e_max = float(evals[0]), float(evals[-1])
        d = a + 0.25 * (e_max - a) + 1e-9
        for temp in np.geomspace(1e-3, 10.0, 12) * max(e_max, 1e-6):
            _, report = q.gibbs_state(h, float(temp))
            bound = q.mean_energy_bound(a, d, n, e_max, float(temp))
            assert report.mean_energy <= bound.rhs + 1e-10


def test_decision_temperature_frozen():
    dt = q.decision_temperature(0.25, 3, 10)
    assert dt.temperature.value == pytest.approx(0.00450842200277801, rel=1e-14)
    assert dt.decision_energy == pytest.approx(0.125, rel=1e-14)
    # the bound's cutoff a + (d-a)/2 at a = eps/(L+1) is the old frozen value
    bound = q.mean_energy_bound(0.25 / 4, dt.decision_energy, 10, 1.0, dt.temperature)
    assert bound.cutoff == pytest.approx(0.09375, rel=1e-14)
    assert q.DecisionTemperature._fields == ("temperature", "decision_energy")
    with pytest.raises(q.ValidationError):
        q.decision_temperature(0.5, 3, 10)
    with pytest.raises(q.ValidationError):
        q.decision_temperature(0.25, 0, 10)


def test_gibbs_decide_both_verdicts():
    rng = rng_for("decide")
    c_yes = random_circuit(rng, n_input=2, n_ancilla=0, length=2)
    h_yes = q.compile_circuit(c_yes)
    dt = q.decision_temperature(0.25, c_yes.length, h_yes.num_qubits)
    verdict, report = q.gibbs_decide(h_yes, dt)
    assert verdict == "witness-exists"
    assert report.mean_energy <= dt.decision_energy

    c_no = all_reject_circuit(rng, 2, 1)
    h_no = q.compile_circuit(c_no)
    dt_no = q.decision_temperature(0.25, c_no.length, h_no.num_qubits)
    verdict_no, report_no = q.gibbs_decide(h_no, dt_no)
    assert verdict_no == "no-witness"
    assert report_no.mean_energy > dt_no.decision_energy


def test_gibbs_decide_at_the_decision_energy():
    # 0.2 * I on layout 1 0 1: the mean 0.2 lies between the bound's cutoff
    # 0.1875 and d = 0.25, and the verdict is taken at d, as
    # `qclock gibbs --auto-qma ... --decide` takes it
    term = q.LocalTerm("in", 0.2, (0,), np.eye(2))
    h = q.LocalHamiltonian(q.RegisterLayout(1, 0, 1), (term,))
    dt = q.decision_temperature(0.25, 1, 2)
    assert dt.decision_energy == 0.25
    a = 0.25 / 2
    assert q.mean_energy_bound(a, dt.decision_energy, 2, 0.2, dt.temperature).cutoff == 0.1875
    verdict, report = q.gibbs_decide(h, dt)
    assert report.mean_energy == pytest.approx(0.2, rel=1e-15)
    assert verdict == "witness-exists"
    assert "cutoff" not in q.ThermalReport._fields
    # an explicit energy still overrides the one dt carries
    assert q.gibbs_decide(h, dt, decision_energy=0.15)[0] == "no-witness"


def test_gibbs_reports_at_a_vanishing_temperature():
    # a gap over T = 1e-320 is inf; its level weighs exp(-inf) = 0, with no
    # overflow warning (the suite turns warnings into errors)
    term = q.LocalTerm("in", 0.5, (0,), np.diag([1.0, 0.0]))
    h = q.LocalHamiltonian(q.RegisterLayout(1, 0, 0), (term,))
    (report,) = q.gibbs_reports(h, [1e-320])
    assert report.populations == (1.0, 0.0)
    assert report.partition_function == 1.0 and report.mean_energy == 0.0
    clock = q.compile_circuit(random_circuit(rng_for("tiny-T"), n_input=1,
                                             n_ancilla=1, length=2))
    (report,) = q.gibbs_reports(clock, [1e-300])
    assert report.populations[0] > 0 and report.populations[-1] == 0.0


def test_gibbs_decide_explicit_energy_override():
    rng = rng_for("decide-override")
    h = random_povm_hamiltonian(rng, 2, 3)
    verdict, _ = q.gibbs_decide(h, q.Temperature(0.1), decision_energy=1e9)
    assert verdict == "witness-exists"
    with pytest.raises(q.ValidationError):
        q.gibbs_decide(h, q.Temperature(0.1))  # no energy anywhere
    with pytest.raises(q.ValidationError, match="must be finite"):
        q.gibbs_decide(h, q.Temperature(0.1), decision_energy=float("nan"))


def test_gibbs_reports_equal_gibbs_state_reports():
    # one factorisation for every temperature, bit-for-bit the report that
    # gibbs_state gives at each one alone
    rng = rng_for("gibbs-reports")
    c = random_circuit(rng, n_input=2, n_ancilla=1, length=3)
    hams = (q.compile_circuit(c), random_povm_hamiltonian(rng, 4, 6),
            q.LocalHamiltonian(3, ()))
    for h in hams:
        temps = (0.003, 0.05, q.Temperature(0.7), 20.0)
        reports = q.gibbs_reports(h, temps)
        assert len(reports) == len(temps)
        for t, got in zip(temps, reports):
            _, want = q.gibbs_state(h, t)
            assert got == want
            assert type(got) is q.ThermalReport
    assert all(r.mean_energy == 0 for r in reports)  # the termless H is 0


def test_gibbs_reports_factor_once(monkeypatch):
    calls = []
    assemble = thermal.assemble
    monkeypatch.setattr(thermal, "assemble", lambda h: calls.append(h) or assemble(h))
    h = random_povm_hamiltonian(rng_for("gibbs-once"), 3, 4)
    reports = q.gibbs_reports(h, [0.1, 0.2, 0.3])
    assert len(reports) == 3 and len(calls) == 1
    with pytest.raises(q.ValidationError):
        q.gibbs_reports(h, [0.1, -1.0])
    assert len(calls) == 1  # temperatures are checked before H is factored
