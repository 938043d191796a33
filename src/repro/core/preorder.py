"""Additive preorders and their relation to Petri nets (paper, Section 3).

A binary relation ``R`` on ``P``-configurations is

* *additive*  if ``(alpha, beta) in R`` implies ``(alpha + rho, beta + rho) in R``,
* a *preorder* if it is reflexive and transitive,
* *conservative* if ``|alpha| = |beta|`` whenever ``(alpha, beta) in R``.

The paper defines protocols directly on additive preorders and then observes
(Section 3) that additive preorders of **finite interaction-width** are exactly
the reachability relations of Petri nets.  This module mirrors that picture:

* :class:`AdditivePreorder` is the abstract interface a protocol needs —
  essentially a ``relates(alpha, beta)`` oracle plus a way of enumerating
  successors for exploration,
* :class:`PetriNetPreorder` wraps a :class:`~repro.core.petrinet.PetriNet` and
  exposes its reachability relation as an additive preorder of width
  ``max_t |t|``,
* :class:`RelationPreorder` wraps an arbitrary Python predicate for the
  unbounded-width examples (e.g. Example 4.1 of the paper, whose width is
  exactly the threshold ``n``).
"""

from __future__ import annotations

import abc
from typing import Callable, Iterable, List, Optional, Set, Tuple

from .configuration import Configuration
from .petrinet import PetriNet, breadth_first
from .transition import Transition

__all__ = ["AdditivePreorder", "PetriNetPreorder", "RelationPreorder"]


class AdditivePreorder(abc.ABC):
    """Abstract additive preorder ``-->*`` on configurations.

    Concrete subclasses must provide :meth:`successors` (one-step exploration)
    or override :meth:`relates` directly when one-step exploration does not
    make sense (unbounded-width relations).
    """

    @abc.abstractmethod
    def successors(self, configuration: Configuration) -> Iterable[Configuration]:
        """Configurations reachable in "one step" (used for exhaustive exploration)."""

    @abc.abstractmethod
    def relates(self, source: Configuration, target: Configuration) -> bool:
        """Decide whether ``source -->* target``."""

    @property
    @abc.abstractmethod
    def width(self) -> Optional[int]:
        """The interaction-width, or ``None`` when it is not finite (``omega``)."""

    def is_conservative_on(self, samples: Iterable[Tuple[Configuration, Configuration]]) -> bool:
        """Check conservativity on a finite sample of related pairs."""
        return all(source.size == target.size for source, target in samples)

    def reachable_from(
        self, configuration: Configuration, max_nodes: Optional[int] = None
    ) -> Set[Configuration]:
        """Explore the configurations reachable from ``configuration``.

        Raises :class:`RuntimeError` once more than ``max_nodes``
        configurations are discovered.
        """
        reached, order, _ = breadth_first(
            [configuration],
            lambda node: ((None, successor) for successor in self.successors(node)),
            max_nodes=max_nodes,
        )
        if max_nodes is not None and len(order) > max_nodes:
            raise RuntimeError(f"preorder exploration exceeded {max_nodes} configurations")
        return set(reached)


class PetriNetPreorder(AdditivePreorder):
    """The reachability relation ``--T*-->`` of a Petri net, as an additive preorder."""

    def __init__(self, net: PetriNet, max_nodes: Optional[int] = None) -> None:
        self.net = net
        self.max_nodes = max_nodes

    @property
    def width(self) -> Optional[int]:
        """Width of the relation: the largest interaction-width of a transition."""
        return self.net.width

    def successors(self, configuration: Configuration) -> Iterable[Configuration]:
        return self.net.successor_set(configuration)

    def relates(self, source: Configuration, target: Configuration) -> bool:
        return self.net.is_reachable(source, target, max_nodes=self.max_nodes)

    def witness(self, source: Configuration, target: Configuration) -> Optional[List[Transition]]:
        """A witness word for ``source -->* target`` if one is found."""
        return self.net.find_path(source, target, max_nodes=self.max_nodes)

    def __repr__(self) -> str:
        return f"PetriNetPreorder({self.net!r})"


class RelationPreorder(AdditivePreorder):
    """An additive preorder given directly by a Python decision procedure.

    Used for relations that have no finite interaction-width or whose width is
    a parameter (Example 4.1 of the paper).  The ``successor_fn`` is optional;
    when omitted, :meth:`successors` enumerates nothing and exhaustive
    exploration is not available (``relates`` still is).
    """

    def __init__(
        self,
        relates_fn: Callable[[Configuration, Configuration], bool],
        successor_fn: Optional[Callable[[Configuration], Iterable[Configuration]]] = None,
        width: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        self._relates_fn = relates_fn
        self._successor_fn = successor_fn
        self._width = width
        self.name = name

    @property
    def width(self) -> Optional[int]:
        return self._width

    def successors(self, configuration: Configuration) -> Iterable[Configuration]:
        if self._successor_fn is None:
            return ()
        return self._successor_fn(configuration)

    def relates(self, source: Configuration, target: Configuration) -> bool:
        return self._relates_fn(source, target)

    def __repr__(self) -> str:
        label = self.name or "RelationPreorder"
        width = "omega" if self._width is None else self._width
        return f"{label}(width={width})"


def check_additivity(
    preorder: AdditivePreorder,
    pairs: Iterable[Tuple[Configuration, Configuration]],
    paddings: Iterable[Configuration],
) -> bool:
    """Spot-check additivity: for related pairs, padded pairs must stay related.

    This is a testing utility: additivity cannot be verified exhaustively, but
    the property-based tests use this helper on sampled pairs and paddings.
    """
    for source, target in pairs:
        if not preorder.relates(source, target):
            continue
        for padding in paddings:
            if not preorder.relates(source + padding, target + padding):
                return False
    return True
