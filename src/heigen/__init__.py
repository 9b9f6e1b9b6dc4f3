"""Least H-eigenvalues of adjacency tensors of even-uniform hypergraphs."""

__version__ = "0.1.0"

from .hypergraph import (
    Bipartition,
    Hypergraph,
    find_odd_bipartition,
    induced_subhypergraph,
    is_connected,
    is_hypertree,
    is_odd_bipartition,
)
from .constructions import (
    Coalescence,
    Relocation,
    RootedHypergraph,
    attach_hypertrees,
    blowup_power,
    coalesce,
    complete_hypergraph,
    cycle_blowup,
    hyperstar,
    kth_power_of_graph,
    relocate,
)
from .canon import are_isomorphic, canonical_form
from .spectral import (
    EigenResult,
    SolverConfig,
    UnsupportedUniformityError,
    brute_force_min,
    knorm,
    least_h_eigenvalue,
    rayleigh,
    residual,
    spectral_radius,
    tensor_apply,
)
from .analysis import (
    SearchEntry,
    SearchReport,
    TransportResult,
    branch_contribution,
    coalescence_campaign,
    enumerate_family,
    enumerate_hypertrees,
    find_minimizer,
    relocation_campaign,
    transport_vector,
    verify_coalescence_monotonicity,
    verify_odd_bipartite_identity,
    verify_relocation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
