"""Lower bounds and code simulation for zero-error network function computation.

The package builds characteristic graphs of cut/partition pairs in a
directed acyclic network, evaluates their clique, graph, and chromatic
entropies through an exact decomposition wherever the graph splits into
disjoint unions and joins, and turns the results into computing-rate lower
bounds.  A small simulator runs concrete uniquely-decodable codes against
the same models.
"""

from .bounds import (
    BoundReport,
    SearchConfig,
    basic_lower_bound,
    fixed_length_bound,
    improved_lower_bound,
)
from .chargraph import CharGraph, build, layer_report
from .codesim import (
    FixedScheme,
    RateReport,
    UDCode,
    diamond_scheme,
    evaluate,
    huffman_transform,
    sardinas_patterson,
)
from .entropy import (
    DecompositionTree,
    EntropyResult,
    chromatic_entropy,
    clique_entropy,
    graph_entropy,
)
from .equiv import EquivPartition, i_aj_classes, il_al_aj_classes, n_C
from .errors import NetfuncompError, SizeCapError, UsageError
from .examples import diamond_model, single_edge_model
from .netmodel import (
    CutAnalysis,
    NetworkModel,
    StrongPartition,
    analyze_cut,
    enumerate_cut_sets,
    enumerate_strong_partitions,
    load_model,
    model_from_dict,
    model_to_dict,
    validate,
)
from .pgraph import ProbGraph

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CharGraph",
    "CutAnalysis",
    "DecompositionTree",
    "EntropyResult",
    "EquivPartition",
    "FixedScheme",
    "NetworkModel",
    "NetfuncompError",
    "ProbGraph",
    "RateReport",
    "SearchConfig",
    "SizeCapError",
    "StrongPartition",
    "UDCode",
    "UsageError",
    "analyze_cut",
    "basic_lower_bound",
    "build",
    "chromatic_entropy",
    "clique_entropy",
    "diamond_model",
    "diamond_scheme",
    "enumerate_cut_sets",
    "enumerate_strong_partitions",
    "evaluate",
    "fixed_length_bound",
    "graph_entropy",
    "huffman_transform",
    "i_aj_classes",
    "il_al_aj_classes",
    "improved_lower_bound",
    "layer_report",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "n_C",
    "sardinas_patterson",
    "single_edge_model",
    "validate",
    "__version__",
]
