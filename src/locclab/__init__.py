"""Numerics for block-decomposed bipartite state ensembles: the
self-teleportation protocol, its fidelity bounds, and local-vs-global
estimation theory, with a small two-party protocol runtime."""

from .partitions import (
    Partition,
    as_spectrum,
    character,
    dim_u,
    dim_v,
    enumerate_partitions,
    large_deviation_bound,
    schur_ladder,
)
from .states import (
    StateVector,
    bell_state,
    bipartite_tensor_power,
    product_state,
    state_from_schmidt,
)
from .schur_weyl import (
    SchurBasis,
    build_schur_basis,
    load_basis,
    load_or_build_basis,
    save_basis,
    schur_basis,
    standard_form,
    weights_analytic,
)
from .teleport import (
    NothingToTeleportError,
    TeleportResult,
    fidelity_lower_bound,
    good_set,
    ideal_fidelity,
    ideal_fidelities,
    run_teleport,
    sample_haar_unitary,
)
from .models import (
    PureStateModel,
    anticopy_pair,
    get_model,
    model_from_json,
    product_model,
    qubit_conjugate,
    qubit_full,
    real_amplitude,
)
from .estimation import (
    FisherData,
    Povm,
    beta_combination,
    detection_condition,
    fisher_data,
    horizontal_lifts,
    locc_gap,
    measurement_fisher,
    weighted_cr_value,
)
from .locc import (
    EstimationReport,
    LoccProtocol,
    LoccTranscript,
    Round,
    run_locc,
    teleport_protocol,
    two_stage_estimate,
    verify_fisher_additivity,
)

__version__ = "0.1.0"
