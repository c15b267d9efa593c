"""Clock-Hamiltonian compiler and numerical workbench for quantum verifier
circuits.

Compiles small verifier circuits into 3-local clock Hamiltonians, computes
their low spectra, extracts high-acceptance witnesses from low-energy
states, and tabulates majority-vote and thermal decision bounds.
Desk scale: dense linear algebra up to 12 qubits, matrix-free up to 16.
"""

from .errors import (
    ConsistencyError, ConvergenceError, ParseError, QclockError,
    ResourceLimitError, ValidationError,
)
from .qcore import (
    DENSE_QUBIT_CAP, QUBIT_CAP, DensityMatrix, PureState, RegisterLayout,
    expectation, named_stream, partial_trace, read_matrix, tensor_product,
    write_matrix,
)
from .circuit import (
    Circuit, Gate, NAMED_GATES, OptimalWitness,
    accept_probability, acceptance_operator, apply_gates, circuit_unitary,
    optimal_witness, parse_circuit, serialize_circuit,
)
from .clockham import (
    ClockState, LocalHamiltonian, LocalTerm, PARTS, compile_circuit,
    history_pull_back, history_state, legal_hamiltonian, parse_hamiltonian,
    serialize_hamiltonian, term_expectation, unary_encode,
)
from .spectral import (
    SpectralReport, assemble, matvec, min_eigenvalue, propagation_spectrum,
    serialize_report,
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
    decision_temperature, gibbs_decide, gibbs_factor, gibbs_reports,
    gibbs_state, ground_projector_state, ground_space_factor,
    mean_energy_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AmplifyParams", "Circuit", "ClockState",
    "ConsistencyError", "ConvergenceError", "DecisionTemperature",
    "DENSE_QUBIT_CAP", "DensityMatrix", "EnergyBound", "Gate",
    "LocalHamiltonian", "LocalTerm", "NAMED_GATES",
    "OptimalWitness", "ParseError", "PARTS", "PureState",
    "QclockError", "QUBIT_CAP", "RegisterLayout", "ResourceLimitError",
    "SpectralReport", "TailBound", "Temperature", "ThermalReport",
    "ValidationError", "WitnessParams", "WitnessResult",
    "accept_probability", "acceptance_operator", "apply_gates", "assemble",
    "circuit_unitary", "compile_circuit", "decision_temperature",
    "exact_reject_prob", "expectation", "extract_witness", "gibbs_decide",
    "gibbs_factor", "gibbs_reports", "gibbs_state", "ground_projector_state",
    "ground_space_factor", "hamiltonian_energy",
    "history_pull_back", "history_state",
    "kl_divergence", "legal_hamiltonian", "majority_threshold", "matvec",
    "mean_energy_bound", "min_eigenvalue", "named_stream",
    "naive_restriction_reject", "optimal_witness",
    "parse_circuit", "parse_hamiltonian", "partial_trace",
    "povm_verifier_accept", "povm_verifier_sample", "prepare_witness",
    "propagation_spectrum", "read_matrix", "replicate_circuit",
    "serialize_circuit", "serialize_hamiltonian", "serialize_report",
    "simulate_majority_vote", "sufficient_copies",
    "tail_bounds", "tensor_product", "term_expectation", "unary_encode",
    "write_matrix",
]
