"""Hamiltonicity closures, heavy pairs, and clique-chain graph families."""

from .closures import (
    ClosureTrace,
    TraceStep,
    bc_local,
    c_closure,
    c_eligible,
    is_c_closed,
    minimum_supergraph_oracle,
    o_closure,
    parse_trace,
    r_closure,
    r_eligible,
    supergraph_search,
    trace_to_text,
)
from .families import (
    ComponentSpec,
    FamilyKind,
    FamilyParams,
    FamilyWitness,
    TheoremVerdict,
    VerdictStatus,
    classify_theorem,
    generate,
    generate_with_certificate,
    parse_params,
    recognize,
    replay_certificate,
)
from .graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    emit_dot,
    emit_edge_list,
    emit_graph6,
    empty_graph,
    is_2_connected,
    maximal_cliques,
    parse_edge_list,
    parse_graph6,
    path_graph,
    sample_graphs,
)
from .hamiltonicity import HamiltonicityCertificate, is_hamiltonian
from .heaviness import (
    HeavyPair,
    a_heavy_pairs,
    heavy_vertices,
    is_heavy,
    is_pattern_o_heavy,
    o_heavy_pairs,
    satisfies_ore,
)
from .patterns import (
    NetHeaviness,
    NetProfile,
    PatternKind,
    classify_net,
    find_induced,
    find_induced_naive,
    is_free,
    net_profile,
)
from .regions import (
    GeneralizedClawNet,
    RegionDecomposition,
    decompose,
    generalized_claw_or_net,
    validate_generalized,
)
from .verify import verify_closure_preservation

__version__ = "0.1.0"
