"""Global spectral properties of networked dynamics from single-vertex data.

A linear (or Koopman-lifted nonlinear) system on a graph is simulated; one
vertex observes only its own scalar trajectory. When the system is
localizable in that vertex, a delay-embedded companion model fitted to the
local data carries the full characteristic polynomial of the network, so the
vertex can recover eigenvalues, its own eigenvector components,
bipartiteness of the dependency graph, cluster structure, and a predictive
local model, and can reconstruct the hidden state exactly.
"""

__version__ = "0.1.0"

from .dynsys import (
    CoupledCellSystem,
    GenerationError,
    LinearSystem,
    Trajectory,
    bipartite_fixture,
    build_wave_system,
    coupled_cell_fixture,
    generate_sbm,
    koopman_lift,
    lift_state,
    normalized_laplacian,
    simulate,
    simulate_coupled,
)
from .embedding import (
    CompanionModel,
    delay_windows,
    exact_companion,
    fit_companion,
    predict,
)
from .localizability import (
    LocalizabilityReport,
    NotLocalizableError,
    hautus_localizable,
    is_localizable,
    is_strongly_connected,
    localizable_everywhere,
    r_matrix,
    recover_hidden_state,
)
from .spectral import (
    DegenerateSpectrumError,
    SpectralReport,
    analyze_vertex,
    consensus_cluster_count,
    decentralized_cluster_labels,
    detect_cluster_count,
    is_bipartite_spectrum,
    local_eigenvalues,
    local_eigenvector_components,
    multiset_distance,
    sort_eigenvalues,
    trace_det,
)

__all__ = [
    "__version__",
    "CompanionModel",
    "CoupledCellSystem",
    "DegenerateSpectrumError",
    "GenerationError",
    "LinearSystem",
    "LocalizabilityReport",
    "NotLocalizableError",
    "SpectralReport",
    "Trajectory",
    "analyze_vertex",
    "bipartite_fixture",
    "build_wave_system",
    "consensus_cluster_count",
    "coupled_cell_fixture",
    "decentralized_cluster_labels",
    "delay_windows",
    "detect_cluster_count",
    "exact_companion",
    "fit_companion",
    "generate_sbm",
    "hautus_localizable",
    "is_bipartite_spectrum",
    "is_localizable",
    "is_strongly_connected",
    "koopman_lift",
    "lift_state",
    "local_eigenvalues",
    "local_eigenvector_components",
    "localizable_everywhere",
    "multiset_distance",
    "normalized_laplacian",
    "predict",
    "r_matrix",
    "recover_hidden_state",
    "simulate",
    "simulate_coupled",
    "sort_eigenvalues",
    "trace_det",
]
