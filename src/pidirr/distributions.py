"""Finite joint probability distributions over named variables.

A :class:`JointDistribution` is an immutable probability mass function over
tuples of symbols, one symbol per named variable.  One variable is flagged as
the prediction target; the rest are the predictors.  All information
quantities are reported in bits (log base 2) and computed in double
precision, with the convention ``0 * log 0 = 0``.

The on-disk format is a small TSV dialect: a header comment declaring the
variable names (and optionally which one is the target), then one outcome per
line, symbols tab-separated, followed by a probability written either as a
decimal or as an exact fraction ``a/b``.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

__all__ = [
    "DistributionError",
    "VariableSelector",
    "JointDistribution",
    "parse_distribution",
    "random_distribution",
]

#: Outcomes with less mass than this are dropped from the stored support.
MASS_FLOOR = 1e-15

#: Accepted deviation of the raw probability column from 1 before normalizing.
RAW_SUM_SLACK = 1e-6

#: The default target, the last variable: an object no variable name equals.
_LAST = object()


class DistributionError(ValueError):
    """A pmf or distribution file violates the format contract."""


class _Value:
    """An immutable value, compared, hashed and shown by its ``_fields``.

    The value types of the package sit on this base: ``VariableSelector``
    and ``JointDistribution`` here, ``PartSpec``, ``PartitionSpec`` and
    ``PartFamily`` in :mod:`pidirr.parts`, ``UnionMeasure`` in
    :mod:`pidirr.union_info`, ``IrreducibilityReport`` in
    :mod:`pidirr.irreducibility`, ``NamedExample``, ``VerificationRow``
    and ``CorpusVerification`` in :mod:`pidirr.corpus`, and ``AxiomResult``
    and ``AxiomReport`` in :mod:`pidirr.axioms`.

    The constructor takes each of ``_fields`` by position or by keyword and
    raises ``TypeError`` on a missing, extra or repeated one.  A type that
    normalizes or checks its fields has its own ``__init__``.  Either way
    the fields go into the instance ``__dict__``, past ``__setattr__``;
    after that, assigning or deleting any attribute raises
    ``AttributeError``.  Equality holds only between instances of one
    class.  Pickling and copying restore the ``__dict__`` directly, so they
    need no hook; ``__slots__`` would need one.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        name = type(self).__qualname__
        if len(args) > len(self._fields):
            raise TypeError(f"{name} takes {len(self._fields)} fields, got {len(args)}")
        values = dict(zip(self._fields, args))
        for field in kwargs:
            if field in values:
                raise TypeError(f"{name} got field {field!r} twice")
            if field not in self._fields:
                raise TypeError(f"{name} has no field {field!r}")
        values.update(kwargs)
        missing = [field for field in self._fields if field not in values]
        if missing:
            raise TypeError(f"{name} is missing fields {missing}")
        vars(self).update(values)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class VariableSelector(_Value):
    """Positions of the variables a query refers to (may include the target).

    Positions index into ``JointDistribution.variables`` and are stored
    sorted and deduplicated.
    """

    _fields = ("indices",)
    indices: tuple[int, ...]

    def __init__(self, indices: Iterable[int]):
        object.__setattr__(self, "indices", tuple(sorted(set(indices))))
        if not self.indices:
            raise DistributionError("selector must name at least one variable")
        if any(i < 0 for i in self.indices):
            raise DistributionError(f"negative variable position in {self.indices}")

    def validate(self, d: "JointDistribution") -> None:
        if self.indices[-1] >= len(d.variables):
            raise DistributionError(
                f"selector {self.indices} out of range for {len(d.variables)} variables"
            )

    def overlaps(self, other: "VariableSelector") -> bool:
        return bool(set(self.indices) & set(other.indices))

    def union(self, other: "VariableSelector") -> "VariableSelector":
        return VariableSelector(self.indices + other.indices)


def _parse_probability(token: str) -> float:
    """Parse a probability written as a decimal or an exact fraction ``a/b``."""
    token = token.strip()
    try:
        if "/" in token:
            from fractions import Fraction  # only ``a/b`` tokens need it

            return float(Fraction(token))
        return float(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise DistributionError(f"cannot parse probability {token!r}") from exc


class _ReadOnlyDict(dict):
    """A ``dict`` whose mutators raise ``TypeError``: a distribution's pmf,
    which is hashed and compared as part of its value.  It pickles and
    copies as a rebuild from a plain ``dict``."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a distribution's pmf is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


class JointDistribution(_Value):
    """Immutable pmf over named finite variables.

    Parameters
    ----------
    variables:
        Ordered variable names.
    outcomes:
        Mapping or iterable of ``(outcome_tuple, probability)`` pairs.
        Duplicate outcomes are summed.  Probabilities must be nonnegative and
        sum to 1 within :data:`RAW_SUM_SLACK`.  Each is then divided by their
        sum (``math.fsum``), and those left below :data:`MASS_FLOOR` are
        dropped, so the stored pmf sums to 1 up to rounding and the dropped
        masses.
    target:
        Name of the target variable.  Defaults to the last variable.
        ``None`` is allowed for marginals that dropped the target.

    Its ``pmf`` maps each outcome of the support to its mass and refuses
    changes.  Two distributions are equal when their :meth:`key` is.
    """

    def __init__(
        self,
        variables: Sequence[str],
        outcomes: Mapping[tuple, float] | Iterable[tuple[tuple, float]],
        target: str | None = _LAST,
    ):
        variables = tuple(str(v) for v in variables)
        if len(set(variables)) != len(variables):
            raise DistributionError(f"duplicate variable names in {variables}")
        if not variables:
            raise DistributionError("a distribution needs at least one variable")

        if isinstance(outcomes, Mapping):
            items = outcomes.items()
        else:
            items = outcomes
        accum: dict[tuple, float] = {}
        for outcome, prob in items:
            outcome = tuple(str(s) for s in outcome)
            if len(outcome) != len(variables):
                raise DistributionError(
                    f"outcome {outcome} has arity {len(outcome)}, "
                    f"expected {len(variables)}"
                )
            p = float(prob)
            if not math.isfinite(p) or p < 0:
                raise DistributionError(f"negative or non-finite probability {prob!r}")
            accum[outcome] = accum.get(outcome, 0.0) + p

        total = math.fsum(accum.values())
        if abs(total - 1.0) > RAW_SUM_SLACK:
            raise DistributionError(
                f"probabilities sum to {total!r}, outside [1-{RAW_SUM_SLACK}, 1+{RAW_SUM_SLACK}]"
            )
        pmf = _ReadOnlyDict(
            (o, p / total) for o, p in sorted(accum.items()) if p / total >= MASS_FLOOR
        )
        if not pmf:
            raise DistributionError("distribution has empty support")

        if target is _LAST:
            target = variables[-1]
        if target is not None and target not in variables:
            raise DistributionError(f"target {target!r} not among variables {variables}")

        alphabets = tuple(
            tuple(sorted({o[i] for o in pmf})) for i in range(len(variables))
        )
        vars(self).update(variables=variables, alphabets=alphabets, target=target, pmf=pmf)

    # -- identity ---------------------------------------------------------

    def key(self) -> tuple:
        """Content key: equal distributions compare and hash equal."""
        return (self.variables, self.target, tuple(self.pmf.items()))

    _values = key

    def __repr__(self):
        return (
            f"JointDistribution(variables={self.variables}, "
            f"target={self.target!r}, support={len(self.pmf)})"
        )

    # -- structure --------------------------------------------------------

    @property
    def support(self) -> tuple[tuple, ...]:
        return tuple(self.pmf)

    @property
    def target_index(self) -> int:
        if self.target is None:
            raise DistributionError("distribution has no target variable")
        return self.variables.index(self.target)

    @property
    def predictor_indices(self) -> tuple[int, ...]:
        t = self.target_index
        return tuple(i for i in range(len(self.variables)) if i != t)

    @property
    def n_predictors(self) -> int:
        return len(self.variables) - (0 if self.target is None else 1)

    def selector(self, *names: str) -> VariableSelector:
        """Selector for the given variable names."""
        try:
            return VariableSelector(self.variables.index(n) for n in names)
        except ValueError as exc:
            raise DistributionError(f"unknown variable in {names}") from exc

    def whole_selector(self) -> VariableSelector:
        """Selector covering all predictors (the whole)."""
        return VariableSelector(self.predictor_indices)

    def target_selector(self) -> VariableSelector:
        return VariableSelector((self.target_index,))

    # -- queries ----------------------------------------------------------

    def project(self, sel: VariableSelector) -> dict[tuple, float]:
        """Aggregate the pmf onto the selected coordinates (masses sum to 1)."""
        sel.validate(self)
        idx = sel.indices
        out: dict[tuple, float] = {}
        for outcome, p in self.pmf.items():
            k = tuple(outcome[i] for i in idx)
            out[k] = out.get(k, 0.0) + p
        return out

    def marginalize(self, sel: VariableSelector) -> "JointDistribution":
        """Marginal distribution over the selected variables (original order)."""
        sel.validate(self)
        names = tuple(self.variables[i] for i in sel.indices)
        target = self.target if (self.target in names) else None
        return JointDistribution(names, self.project(sel), target=target)

    def entropy(self, sel: VariableSelector | None = None) -> float:
        """Shannon entropy in bits of the selected marginal (all variables if None)."""
        if sel is None:
            masses: Iterable[float] = self.pmf.values()
        else:
            masses = self.project(sel).values()
        return _entropy_bits(masses)

    def conditional_entropy(self, a: VariableSelector, b: VariableSelector) -> float:
        """H(A | B) = H(A ∨ B) − H(B), in bits."""
        a.validate(self)
        b.validate(self)
        return self.entropy(a.union(b)) - self.entropy(b)

    def mutual_information(self, a: VariableSelector, b: VariableSelector) -> float:
        """I(A ; B) = H(A) + H(B) − H(A ∨ B), in bits.  Selectors must be disjoint."""
        a.validate(self)
        b.validate(self)
        if a.overlaps(b):
            raise DistributionError(
                f"mutual information needs disjoint selectors, got {a.indices} and {b.indices}"
            )
        return self.entropy(a) + self.entropy(b) - self.entropy(a.union(b))

    # -- derived ----------------------------------------------------------

    def relabeled(self, variable: str, mapping: Mapping[str, str]) -> "JointDistribution":
        """Copy with one variable's symbols renamed through an injective map."""
        if variable not in self.variables:
            raise DistributionError(f"unknown variable {variable!r} in {self.variables}")
        i = self.variables.index(variable)
        symbols = self.alphabets[i]
        missing = [s for s in symbols if s not in mapping]
        if missing:
            raise DistributionError(f"relabeling of {variable!r} misses symbols {missing}")
        image = {str(mapping[s]) for s in symbols}  # as the constructor stores them
        if len(image) != len(symbols):
            raise DistributionError(f"relabeling of {variable!r} is not injective")
        pmf = {
            outcome[:i] + (mapping[outcome[i]],) + outcome[i + 1 :]: p
            for outcome, p in self.pmf.items()
        }
        return JointDistribution(self.variables, pmf, target=self.target)

    def with_constant_target(self, symbol: str = "*") -> "JointDistribution":
        """Copy whose target is collapsed to a single constant symbol."""
        t = self.target_index
        pmf: dict[tuple, float] = {}
        for outcome, p in self.pmf.items():
            k = outcome[:t] + (symbol,) + outcome[t + 1 :]
            pmf[k] = pmf.get(k, 0.0) + p
        return JointDistribution(self.variables, pmf, target=self.target)

    def to_tsv(self) -> str:
        """Serialize in the TSV format accepted by :func:`parse_distribution`.

        The format always names a target, so a distribution without one (a
        marginal that dropped it) raises :class:`DistributionError`.  So does
        any name or symbol that the parser would read back differently: an
        empty one, one holding whitespace, a name holding ``target:``, or a
        first-column symbol starting with ``#``.
        """
        if self.target is None:
            raise DistributionError(
                "cannot write a distribution without a target: the TSV format "
                "always names one"
            )
        for name, alphabet in zip(self.variables, self.alphabets):
            if name.split() != [name] or "target:" in name:
                raise DistributionError(
                    f"cannot write variable name {name!r}: a name must be non-empty, "
                    "hold no whitespace and not contain 'target:'"
                )
            for symbol in alphabet:
                if symbol.split() != [symbol]:
                    raise DistributionError(
                        f"cannot write symbol {symbol!r} of {name!r}: a symbol must be "
                        "non-empty and hold no whitespace"
                    )
        for symbol in self.alphabets[0]:
            if symbol.startswith("#"):
                raise DistributionError(
                    f"cannot write symbol {symbol!r} of {self.variables[0]!r}: a line "
                    "starting with '#' is read as a comment"
                )
        lines = [f"# vars: {' '.join(self.variables)}  target: {self.target}"]
        for outcome, p in self.pmf.items():
            lines.append("\t".join(outcome) + f"\t{p!r}")
        return "\n".join(lines) + "\n"


def _entropy_bits(masses: Iterable[float]) -> float:
    acc = 0.0
    for p in masses:
        if p > 0.0:
            acc -= p * math.log2(p)
    return max(acc, 0.0)


def parse_distribution(text: str) -> JointDistribution:
    """Parse the TSV distribution format.

    The first non-blank line must read ``# vars: A B ... Z`` and may carry a
    ``target: NAME`` clause (default: the last variable).  Every following
    non-comment line holds one symbol per variable plus a probability,
    whitespace-separated.  Duplicate outcome rows are summed.
    """
    variables: tuple[str, ...] | None = None
    target: str | None = None
    rows: list[tuple[tuple, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("vars:") and variables is None:
                spec = body[len("vars:") :]
                if "target:" in spec:
                    spec, _, tpart = spec.partition("target:")
                    target = tpart.strip().split()[0] if tpart.strip() else None
                names = spec.split()
                if not names:
                    raise DistributionError(f"line {lineno}: empty variable list")
                variables = tuple(names)
            continue
        if variables is None:
            raise DistributionError(
                f"line {lineno}: data before the '# vars:' header"
            )
        fields = line.split()
        if len(fields) != len(variables) + 1:
            raise DistributionError(
                f"line {lineno}: expected {len(variables) + 1} fields "
                f"(symbols + probability), got {len(fields)}"
            )
        rows.append((tuple(fields[:-1]), _parse_probability(fields[-1])))
    if variables is None:
        raise DistributionError("missing '# vars:' header line")
    if not rows:
        raise DistributionError("no outcome rows")
    return JointDistribution(variables, rows, target=_LAST if target is None else target)


def random_distribution(
    rng,
    n_predictors: int = 3,
    alphabet_size: int = 2,
    zero_fraction: float = 0.0,
    target_name: str = "Y",
) -> JointDistribution:
    """Seeded random pmf over the full product of small alphabets.

    Masses are Dirichlet(1); ``zero_fraction`` optionally knocks out a
    random share of outcomes (keeping at least one) to produce structured
    supports.  ``rng`` is a ``numpy.random.Generator``.
    """
    from itertools import product

    names = tuple(f"X{i + 1}" for i in range(n_predictors)) + (target_name,)
    symbols = tuple(str(k) for k in range(alphabet_size))
    outcomes = list(product(*([symbols] * len(names))))
    masses = rng.dirichlet([1.0] * len(outcomes))
    if zero_fraction > 0.0:
        kill = rng.random(len(outcomes)) < zero_fraction
        if kill.all():
            kill[int(rng.integers(len(outcomes)))] = False
        masses = masses * ~kill
        masses = masses / masses.sum()
    return JointDistribution(names, zip(outcomes, (float(m) for m in masses)))

