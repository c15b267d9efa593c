"""Clock-Hamiltonian compiler and numerical workbench for quantum verifier
circuits.

Compiles small verifier circuits into 3-local clock Hamiltonians, checks
their spectral promises numerically, extracts high-acceptance witnesses from
low-energy states, and tabulates majority-vote and thermal decision bounds.
Desk scale: dense linear algebra up to 12 qubits, matrix-free up to 16.
"""

from .errors import (
    ConsistencyError, ConvergenceError, ParseError, QclockError,
    ResourceLimitError, ValidationError,
)
from .qcore import (
    DENSE_QUBIT_CAP, QUBIT_CAP, DensityMatrix, PureState, RegisterLayout,
    expectation, named_stream, operator_norm, partial_trace,
    read_matrix, read_state, state_digest, tensor_product, write_matrix,
    write_state,
)
from .circuit import (
    Circuit, Gate, NAMED_GATES, OptimalWitness,
    accept_probability, acceptance_operator, apply_gates, circuit_unitary,
    concatenate, optimal_witness, parse_circuit, serialize_circuit,
)
from .clockham import (
    ClockState, LocalHamiltonian, LocalTerm, PARTS, compile_circuit,
    history_pull_back, history_state, legal_hamiltonian, parse_hamiltonian,
    serialize_hamiltonian, term_expectation, unary_encode,
)
from .spectral import (
    PromiseGap, SpectralReport, assemble, check_promise, matvec,
    min_eigenvalue, propagation_spectrum, serialize_report,
)
from .witness import (
    WitnessParams, WitnessResult, extract_witness, hamiltonian_energy,
    povm_verifier_accept, povm_verifier_sample, prepare_witness,
    replicate_circuit, sufficient_copies,
)
from .amplify import (
    AmplifyParams, TailBound, exact_reject_prob, kl_divergence,
    majority_threshold, naive_restriction_reject, simulate_majority_vote,
    tail_bounds,
)
from .thermal import (
    DecisionTemperature, EnergyBound, Temperature, ThermalReport,
    cooling_temperature, decision_temperature, gibbs_decide, gibbs_factor,
    gibbs_reports, gibbs_state, ground_projector_state, ground_space_factor,
    ising_decision_temperature, mean_energy_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AmplifyParams", "Circuit", "ClockState",
    "ConsistencyError", "ConvergenceError", "DecisionTemperature",
    "DENSE_QUBIT_CAP", "DensityMatrix", "EnergyBound", "Gate",
    "LocalHamiltonian", "LocalTerm", "NAMED_GATES",
    "OptimalWitness", "ParseError", "PARTS", "PromiseGap", "PureState",
    "QclockError", "QUBIT_CAP", "RegisterLayout", "ResourceLimitError",
    "SpectralReport", "TailBound", "Temperature", "ThermalReport",
    "ValidationError", "WitnessParams", "WitnessResult",
    "accept_probability", "acceptance_operator", "apply_gates", "assemble",
    "check_promise", "circuit_unitary", "compile_circuit",
    "concatenate", "cooling_temperature", "decision_temperature",
    "exact_reject_prob", "expectation", "extract_witness", "gibbs_decide",
    "gibbs_factor", "gibbs_reports", "gibbs_state", "ground_projector_state",
    "ground_space_factor", "hamiltonian_energy",
    "history_pull_back", "history_state", "ising_decision_temperature",
    "kl_divergence", "legal_hamiltonian", "majority_threshold", "matvec",
    "mean_energy_bound", "min_eigenvalue", "named_stream",
    "naive_restriction_reject", "operator_norm", "optimal_witness",
    "parse_circuit", "parse_hamiltonian", "partial_trace",
    "povm_verifier_accept", "povm_verifier_sample", "prepare_witness",
    "propagation_spectrum", "read_matrix", "read_state",
    "replicate_circuit",
    "serialize_circuit", "serialize_hamiltonian", "serialize_report",
    "simulate_majority_vote", "state_digest", "sufficient_copies",
    "tail_bounds", "tensor_product", "term_expectation", "unary_encode",
    "write_matrix", "write_state",
]
