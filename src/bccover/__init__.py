"""Biclique covers and partitions of graphs.

Exact oracles certify everything at desk scale; the constructive pipeline
covers co-chordal graphs via clique trees and tree edge-rankings; the bounds
module assembles certified lower/upper bound reports.
"""

from .bounds import (
    BoundEntry,
    BoundReport,
    bp_bc_window,
    conflict_graph,
    full_report,
    lb_log_chi,
    lb_log_mc,
    lb_matching,
    lb_omega_conflict,
    report_to_json_dict,
)
from .chordal import (
    CliqueTree,
    clique_tree,
    clique_tree_to_text,
    is_chordal,
    is_perfect_elimination_order,
    mcs_order,
    mis_membership_counts,
    verify_clique_tree,
)
from .cover import (
    Biclique,
    CoverMetadata,
    bfs_leaf_order,
    bicliques_from_text,
    bicliques_to_text,
    cover_cochordal,
    find_biclique_levels,
    find_partition,
    join_clique_forest,
    max_weight_clique_tree,
    merge_bicliques,
    verify_cover,
    verify_partition,
)
from .errors import BudgetExceededError, GraphFormatError, NotChordalError
from .gen import (
    NamedInstance,
    gen_copath,
    gen_cowindmill,
    gen_fig_graph,
    gen_random_chordal,
    gen_two_membership_cochordal,
)
from .graph import (
    Graph,
    complete_graph,
    cycle_graph,
    graph_from_text,
    graph_to_text,
    path_graph,
    read_graph,
    write_graph,
)
from .oracle import (
    OracleBudget,
    OracleResult,
    enumerate_maximal_bicliques,
    enumerate_maximal_cliques,
    exact_bc,
    exact_bp,
    exact_chromatic,
    exact_clique_number,
    exact_max_matching,
)
from .ranking import (
    Tree,
    ceil_log2,
    edge_ranking_lower_bound,
    heuristic_edge_ranking,
    is_valid_edge_ranking,
    optimal_edge_ranking,
)

__version__ = "0.1.0"
