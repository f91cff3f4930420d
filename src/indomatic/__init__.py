"""Exact computation of strong in-domatic partitions of digraphs and the
invariants, constructions and laws built on them."""

from types import ModuleType as _ModuleType

from .core import (
    Digraph,
    Inapplicable,
    NotStrongError,
    converse,
    delete_arc,
    is_complete,
    is_semicomplete,
    is_strong,
    is_strong_subset,
    make_digraph,
    min_in_degree,
    min_out_degree,
    stays_strong_without,
)
from .critical import (
    CharacterizationResult,
    DeletionProfile,
    characterization_holds,
    deletion_profile,
    is_strong_in_domatic_critical,
    partition_is_rigid,
)
from .domination import (
    ArcPartition,
    PartitionDiagnosis,
    VertexPartition,
    check_strong_in_domatic_partition,
    check_strong_out_domatic_partition,
    in_dominating_vertices,
    is_in_dominating,
    is_strong_cover,
    is_strong_cover_partition,
    is_strong_in_dominating,
    is_strong_in_domatic_partition,
    is_strong_out_domatic_partition,
)
from .families import (
    FamilyInstance,
    all_labeled_digraphs,
    complete_digraph,
    critical_composition_family,
    directed_cycle,
    empty_digraph,
    order_value_family,
    pair_critical_family,
    random_strong_digraph,
)
from .laws import LawEntry, LawReport, check_all, upper_bound
from .solver import (
    SolveResult,
    WitnessCheckError,
    brute_force_oracle,
    exists_partition_into_k,
    in_domatic_number,
    lambda_number,
    strong_in_domatic_number,
    strong_in_domatic_partitions,
    strong_out_domatic_number,
)
from .transforms import (
    TaggedVertex,
    cartesian_product,
    composition,
    composition_partition,
    lift_middle_partition,
    lift_product_partition,
    lift_total_partition,
    line_digraph,
    middle,
    root,
    subdivision,
    total,
)
from .undirected import (
    clique_domination_number,
    connected_domatic_number,
    is_clique,
    is_planar,
    make_ugraph,
    underlying_graph,
    vertex_connectivity,
)

# Every name imported above; the submodules stay reachable as attributes.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
