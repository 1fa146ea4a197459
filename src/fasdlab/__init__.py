"""Feedback arc set decomposition laboratory.

Exact oracles for fas / fas_w / fasd on small digraphs, constructive
decompositions of bounded-degree orgraphs into feedback arc sets, the extremal
gadget families behind the tightness results, and spectral lower-bound
machinery, all glued together by a certificate-emitting CLI.
"""

import os

# The lab is single-threaded and its eigenvalue problems are small, where a
# BLAS thread pool costs far more than it gains.  Set before numpy loads; a
# value the caller set is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .coloring import (
    ConflictClique,
    CountingBound,
    FasdCertificate,
    SearchOutcome,
    counting_bound,
    fasd_exact,
    good_coloring_search,
    refute_by_conflict_clique,
    verify_good_coloring,
)
from .delta3 import (
    FvsCertificate,
    fas_sixth,
    fvs_exact,
    good_g_coloring,
)
from .digraph import (
    INFINITE,
    BudgetError,
    CycleEnumeration,
    Digraph,
    Graph,
    GraphError,
    MultiDigraph,
    enumerate_cycles,
    eulerian_orient,
    girth,
    is_acyclic,
    max_degree,
    strong_components,
)
from .ordering import (
    FasCertificate,
    backward_arc_ids,
    bas,
    fas_brute,
    fas_exact,
    fas_upper_heuristic,
    fas_weighted_exact,
)
from .spectral import (
    OrientationBound,
    SpectralReport,
    lambda_extremes,
    orientation_fas_lower_bound,
)
from .triples import (
    OrderingTriple,
    decompose3,
    verify_good_triple,
)

__all__ = [
    "INFINITE",
    "BudgetError",
    "ConflictClique",
    "CountingBound",
    "CycleEnumeration",
    "Digraph",
    "FasCertificate",
    "FasdCertificate",
    "FvsCertificate",
    "Graph",
    "GraphError",
    "MultiDigraph",
    "OrderingTriple",
    "OrientationBound",
    "SearchOutcome",
    "SpectralReport",
    "backward_arc_ids",
    "bas",
    "counting_bound",
    "decompose3",
    "enumerate_cycles",
    "eulerian_orient",
    "fas_brute",
    "fas_exact",
    "fas_sixth",
    "fas_upper_heuristic",
    "fas_weighted_exact",
    "fasd_exact",
    "fvs_exact",
    "girth",
    "good_coloring_search",
    "good_g_coloring",
    "is_acyclic",
    "lambda_extremes",
    "max_degree",
    "orientation_fas_lower_bound",
    "refute_by_conflict_clique",
    "strong_components",
    "verify_good_coloring",
    "verify_good_triple",
]

__version__ = "0.1.0"
