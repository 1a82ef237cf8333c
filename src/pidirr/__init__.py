"""Irreducibility of the information a set of variables conveys about a target.

The package layers four modules of machinery:

* :mod:`pidirr.distributions` - finite joint pmfs, entropy, mutual information;
* :mod:`pidirr.lattice` - the informational partial order with join and meet;
* :mod:`pidirr.parts` - combinatorial families of predictor subsets;
* :mod:`pidirr.union_info` - union-information measures over part families,
  solved by convex minimization over a marginal polytope;

and two application layers on top:

* :mod:`pidirr.irreducibility` - the IbE / IbDp / Ib2p / IbAp spectrum;
* :mod:`pidirr.corpus` - reference circuits with known values.

``pidirr.cli`` exposes everything as the ``pidirr`` command.
``pidirr.oracle`` holds a slow brute-force check of minimum-synergy values for
tests; ``brute_force_union_oracle`` imports it on first use.
"""

from .distributions import (
    DistributionError,
    JointDistribution,
    VariableSelector,
    conditional_entropy,
    entropy,
    marginalize,
    mutual_information,
    parse_distribution,
    random_distribution,
)
from .lattice import (
    DerivedVariable,
    from_selector,
    is_equivalent,
    is_poorer,
    join,
    meet,
)
from .parts import (
    PartFamily,
    PartitionSpec,
    PartSpec,
    all_bipartitions,
    all_partitions,
    all_parts,
    almost_pairs,
    almosts,
)
from .union_info import (
    AxiomReport,
    MarginalPolytope,
    MeasureKind,
    UnionConvergenceError,
    UnionMeasure,
    check_axioms,
    union_information,
)
from .irreducibility import (
    IrreducibilityReport,
    OrderingViolationError,
    full_report,
    ib2p,
    ibap,
    ibdp,
    ibe,
)
from .corpus import EXAMPLE_NAMES, NamedExample, load_example, verify_corpus, xor_circuit

__version__ = "0.1.0"

__all__ = [
    "DistributionError",
    "JointDistribution",
    "VariableSelector",
    "conditional_entropy",
    "entropy",
    "marginalize",
    "mutual_information",
    "parse_distribution",
    "random_distribution",
    "DerivedVariable",
    "from_selector",
    "is_equivalent",
    "is_poorer",
    "join",
    "meet",
    "PartFamily",
    "PartitionSpec",
    "PartSpec",
    "all_bipartitions",
    "all_partitions",
    "all_parts",
    "almost_pairs",
    "almosts",
    "AxiomReport",
    "MarginalPolytope",
    "MeasureKind",
    "UnionConvergenceError",
    "UnionMeasure",
    "check_axioms",
    "union_information",
    "IrreducibilityReport",
    "OrderingViolationError",
    "full_report",
    "ib2p",
    "ibap",
    "ibdp",
    "ibe",
    "EXAMPLE_NAMES",
    "NamedExample",
    "load_example",
    "verify_corpus",
    "xor_circuit",
    "__version__",
]


def __getattr__(name: str):
    # The test oracle imports scipy.optimize and takes a second per family;
    # it is loaded on first use so that ``import pidirr`` stays light.
    if name == "brute_force_union_oracle":
        from .oracle import brute_force_union_oracle

        return brute_force_union_oracle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
