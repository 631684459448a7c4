"""Numerical toolkit for catalytic local protocols and Schmidt-number audits."""

__version__ = "0.1.0"

from .errors import (
    LayoutError,
    OracleRefusal,
    ProtocolError,
    QcatError,
    ValidationError,
)
from .registers import (
    ALICE,
    BOB,
    REFEREE,
    CutDecomposition,
    MultipartiteOperator,
    Register,
    RegisterLayout,
    eig_hermitian,
    partial_trace,
    permute_registers,
    resolve_cut,
    svd_across_cut,
)
from .states import (
    EnsembleBranch,
    Factor,
    Instrument,
    KrausChannel,
    QuantumState,
    apply_channel,
    apply_instrument,
    basis_product,
    coalesce,
    distance_to,
    max_entangled,
    tensor_states,
    trace_distance,
)
from .entanglement import (
    SNCertificate,
    conditional_entropy,
    schmidt_rank,
    sn_flagged_blocks,
    sn_orthogonal_mixture,
    von_neumann_entropy,
)
from .catalysis import (
    CatalyticProtocol,
    build_protocol,
    run_clo,
)
from .protocols import (
    BranchLeaf,
    BranchTree,
    ProtocolRound,
    SloccqProtocol,
    adaptive_round,
    bell_basis,
    bell_measurement_instrument,
    compile_catalyst_prep,
    complete_isometry,
    construct_converse,
    filter_to_max_entangled,
    final_state,
    ledger_bound,
    local_round,
    run_protocol,
    send_round,
    teleport_rounds,
)
from .pipelines import (
    Quantity,
    ReportDocument,
    perturbed_channel,
    pipeline_lemma1,
    pipeline_obs1,
    pipeline_obs3,
    pipeline_schmidt,
    pipeline_theorem,
    qutrit_pair_states,
    separation_family,
)
from .sampling import (
    random_channel,
    random_density_matrix,
    random_instrument,
    random_pure_vector,
    random_unitary,
    rng,
)

__all__ = [name for name in dir() if not name.startswith("_")]
