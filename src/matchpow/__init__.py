"""Matching powers of edge ideals of weighted oriented graphs.

Exact desk-scale tooling: monomial ideals, matchings and forest structure,
matching powers, the polymatroidal exchange property, multigraded Betti
numbers over GF(2) and Q, a certified recursive classifier for weighted
oriented forests, and a cross-validation harness.
"""

from .betti import (
    BettiTable,
    FIELD_GF2,
    FIELD_RATIONALS,
    GeneratorCapError,
    betti_numbers,
    has_linear_resolution,
    is_linearly_related,
    lcm_lattice,
)
from .classify import (
    ClassificationCertificate,
    classify_last_power,
    strong_edge_criterion,
    verify_certificate,
)
from .exchange import (
    ExchangeFailure,
    check_exchange,
    is_polymatroidal,
)
from .generate import (
    SplitMix64,
    construct_linear_forests,
)
from .graphs import (
    DistantConfig,
    IsolatedEdge,
    Matching,
    NO_EDGES,
    WeightedOrientedGraph,
    enumerate_matchings,
    find_distant_configuration,
    is_forest,
    is_strong_edge,
    matching_number,
    maximum_matchings,
)
from .harness import TrialReport, cross_validate
from .monomials import Monomial, MonomialIdeal, minimalize
from .powers import (
    edge_ideal,
    edge_monomial,
    matching_power,
    matching_power_from_matchings,
)

__version__ = "0.1.0"
