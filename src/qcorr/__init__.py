"""Two-qubit correlation analysis.

Classicality witness, quantum discord, entanglement criteria and an
NMR-style readout simulation for two-qubit states, plus a CLI
(``qcorr``) over the same functionality.
"""

from .correlations import (
    ClassicalCorrelationResult,
    DiscordReport,
    classical_correlation,
    discord,
    mutual_information,
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
)
from .nmr import (
    ProtocolRun,
    cnot_ab,
    rotation_pair,
    run_protocol,
    transform_states,
    witness_via_protocol,
)
from .operators import (
    MeasurementBasis,
    PauliDecomposition,
    compose,
    decompose,
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
