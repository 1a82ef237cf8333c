"""Irreducibility of the information a set of variables conveys about a target.

The package layers four modules of machinery:

* :mod:`pidirr.distributions` - finite joint pmfs, entropy, mutual information;
* :mod:`pidirr.lattice` - the informational partial order with join and meet;
* :mod:`pidirr.parts` - combinatorial families of predictor subsets;
* :mod:`pidirr.union_info` - union-information measures over part families,
  solved by convex minimization over a marginal polytope;

and three on top:

* :mod:`pidirr.irreducibility` - the IbE / IbDp / Ib2p / IbAp spectrum;
* :mod:`pidirr.axioms` - a numerical check of the union measures' properties;
* :mod:`pidirr.corpus` - reference circuits with known values.

``pidirr.cli`` exposes everything as the ``pidirr`` command; ``pidirr.oracle``
holds a slow brute-force check of minimum-synergy values for tests.

Each module's ``__all__`` is its export list.  ``import pidirr`` loads only
what a report runs, and re-exports it whole: ``distributions``, ``parts``,
``union_info`` and ``irreducibility``.  The names taken from ``lattice``,
``axioms`` and ``corpus``, and ``brute_force_union_oracle`` from ``oracle``,
load their module on first use, as do those submodules (``pidirr.corpus``).
The oracle stays out of ``__all__``, so ``from pidirr import *`` never
imports ``scipy.optimize``.

The package's immutable value types (``VariableSelector``,
``JointDistribution``, ``PartSpec``, ``PartitionSpec``, ``PartFamily``,
``UnionMeasure``, ``IrreducibilityReport``, the corpus records
``NamedExample``, ``VerificationRow`` and ``CorpusVerification``, and the
property report's ``AxiomResult`` and ``AxiomReport``) are plain
classes on one small base in ``distributions``, not ``@dataclass`` classes:
``@dataclass`` writes and ``exec``-compiles their methods while the module
loads, about 4-5 ms of every fresh ``import pidirr``, plus about 1 ms to
import ``dataclasses``.  The base's constructor takes each field by position
or by keyword; a type that normalizes its fields has its own.  Each value
compares, hashes, prints, pickles and copies by its fields and refuses
assignment and deletion, but ``dataclasses.fields``, ``replace`` and
``asdict`` do not apply to them.
"""

from importlib import import_module

from . import distributions, irreducibility, parts, union_info
from .distributions import *  # noqa: F401,F403
from .parts import *  # noqa: F401,F403
from .union_info import *  # noqa: F401,F403
from .irreducibility import *  # noqa: F401,F403

# Names loaded with their module on first use: each module's ``__all__``.
_LAZY = {
    "lattice": ("DerivedVariable", "from_selector", "is_poorer", "is_equivalent", "join", "meet"),
    "axioms": ("AxiomResult", "AxiomReport", "check_axioms"),
    "corpus": (
        "EXAMPLE_NAMES",
        "NamedExample",
        "load_example",
        "xor_circuit",
        "CorpusVerification",
        "verify_corpus",
    ),
    # The test oracle imports scipy.optimize and takes a second per family.
    "oracle": ("brute_force_union_oracle",),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    *distributions.__all__,
    *parts.__all__,
    *union_info.__all__,
    *irreducibility.__all__,
    *(name for name in _LAZY_NAMES if name != "brute_force_union_oracle"),
    "__version__",
]


def __getattr__(name: str):
    if name in _LAZY:
        return import_module(f"{__name__}.{name}")
    if name in _LAZY_NAMES:
        value = getattr(import_module(f"{__name__}.{_LAZY_NAMES[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_NAMES})
