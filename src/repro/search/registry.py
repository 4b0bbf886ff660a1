"""Search strategy registry: paper abbreviations → factories.

The evaluation tables use two-letter abbreviations (Section IV):
CB, CM, DD, HR, HC, GA.  Full names are accepted too.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import MixPBenchError
from repro.search.base import SearchStrategy
from repro.search.bitwidth import BitWidthSearch
from repro.search.combinational import CombinationalSearch
from repro.search.compositional import CompositionalSearch
from repro.search.delta_debug import DeltaDebugSearch
from repro.search.genetic import GeneticSearch
from repro.search.hier_cluster import ClusterHierarchicalSearch
from repro.search.ladder import PrecisionLadderSearch
from repro.search.hier_comp import HierarchicalCompositionalSearch
from repro.search.hierarchical import HierarchicalSearch
from repro.search.random_search import RandomSearch

__all__ = [
    "make_strategy", "available_strategies", "register_strategy",
    "strategy_kwargs", "ALGORITHM_ORDER",
]

#: column order used by the paper's tables
ALGORITHM_ORDER = ("CB", "CM", "DD", "HR", "HC", "GA")

_FACTORIES: dict[str, Callable[..., SearchStrategy]] = {}
_CANONICAL: dict[str, str] = {}


def register_strategy(factory: Callable[..., SearchStrategy], *names: str) -> None:
    """Register a strategy factory under one or more names."""
    if not names:
        raise ValueError("at least one name is required")
    canonical = names[0].upper()
    for name in names:
        key = name.strip().lower()
        _FACTORIES[key] = factory
        _CANONICAL[key] = canonical


def make_strategy(name: str, **kwargs) -> SearchStrategy:
    """Instantiate a strategy by abbreviation or full name."""
    key = name.strip().lower()
    try:
        factory = _FACTORIES[key]
    except KeyError:
        raise MixPBenchError(
            f"unknown search strategy {name!r}; available: "
            f"{sorted(set(_CANONICAL.values()))}"
        ) from None
    return factory(**kwargs)


def canonical_name(name: str) -> str:
    """Paper abbreviation for a strategy name."""
    key = name.strip().lower()
    if key not in _CANONICAL:
        raise MixPBenchError(f"unknown search strategy {name!r}")
    return _CANONICAL[key]


def available_strategies() -> tuple[str, ...]:
    """Canonical name of every registered strategy, in registration
    order (the paper's six first, then the extensions)."""
    return tuple(dict.fromkeys(_CANONICAL.values()))


def strategy_kwargs(name: str, *, rounding: str | None = None) -> dict:
    """Factory kwargs for options only some strategies understand.

    ``rounding`` selects the emulated-format store-rounding mode and is
    meaningful only to the bit-width bisection search; for every other
    strategy the option is dropped so mixed grids
    (``--algorithms DD BW --rounding stochastic``) stay runnable.
    """
    kwargs: dict = {}
    if rounding is not None and canonical_name(name) == "BW":
        kwargs["rounding"] = rounding
    return kwargs


register_strategy(CombinationalSearch, "CB", "combinational")
register_strategy(CompositionalSearch, "CM", "compositional")
register_strategy(DeltaDebugSearch, "DD", "delta-debugging", "ddebug", "delta_debug")
register_strategy(HierarchicalSearch, "HR", "hierarchical")
register_strategy(
    HierarchicalCompositionalSearch,
    "HC", "hierarchical-compositional", "hier-comp",
)
register_strategy(GeneticSearch, "GA", "genetic", "genetic-algorithm")
# Extension (not in the paper's evaluation): the cluster-aware
# hierarchical redesign the paper's Section V calls for.
register_strategy(ClusterHierarchicalSearch, "HRC", "hierarchical-clustered")
register_strategy(RandomSearch, "RS", "random", "random-search")
register_strategy(PrecisionLadderSearch, "LD", "precision-ladder", "ladder")
# Extension: per-cluster mantissa-width bisection over the emulated
# arbitrary-precision formats (e8m*/e11m*).
register_strategy(BitWidthSearch, "BW", "bisect", "bitwidth", "bitwidth-bisection")
