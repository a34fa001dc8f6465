"""Two-qubit correlation analysis.

Classicality witness, quantum discord, entanglement criteria and an
NMR-style readout simulation for two-qubit states, plus a CLI
(``qcorr``) over the same functionality.
"""

from .correlations import (
    ClassicalCorrelationResult,
    DiscordReport,
    classical_correlation,
    conditioned_state,
    discord,
    measured_mutual_information,
    mutual_information,
    outcome_probability,
)
from .entanglement import (
    EntanglementReport,
    chsh_maximum,
    entanglement_report,
    negativity,
    partial_transpose,
)
from .exceptions import (
    InvalidStateError,
    NotPositiveError,
    OptimizerFailureError,
    OutOfClassError,
    QcorrError,
    ZeroProbabilityOutcomeError,
)
from .nmr import (
    ProtocolRun,
    cnot_ab,
    rotation_pair,
    run_protocol,
    sample_magnetization,
    transform_states,
    witness_via_protocol,
)
from .operators import (
    MeasurementBasis,
    PauliDecomposition,
    compose,
    decompose,
    eigenvalues_hermitian,
    expectation,
    partial_trace,
    pauli,
    tensor,
    von_neumann_entropy,
)
from .states import (
    StateValidity,
    bell_diagonal_eigenvalues,
    load_state,
    make_bell_diagonal,
    make_classical,
    make_general,
    make_product,
    make_werner,
    parse_state,
    save_state,
    validate,
)
from .witness import (
    DirectionPair,
    Verdict,
    WitnessReport,
    classify,
    matched_form,
    observable_expectations,
    observables,
    witness_value,
)

__version__ = "0.1.0"
