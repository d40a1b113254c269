"""Result types for the User-Matching algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

Node = Hashable


@dataclass(frozen=True)
class PhaseRecord:
    """Bookkeeping for one (iteration, bucket) matching round.

    Attributes:
        iteration: outer iteration index (1-based, the paper's ``i``).
        bucket_exponent: the ``j`` of the degree bucket ``2^j`` (``None``
            when bucketing is disabled).
        min_degree: the degree floor ``2^j`` applied in this round.
        candidates: number of candidate pairs whose score reached the
            selection ``threshold``, counted after the round's
            eligibility filter (both endpoints unlinked and at or above
            ``min_degree``) and after candidate pruning.
        witnesses_emitted: the round's similarity-witness pairs as a
            full recount would emit them — ``Σ_k a_k · b_k`` over all
            current links, with ``a_k``/``b_k`` link ``k``'s eligible
            neighbors in each copy (the size of the paper's second
            MapReduce round output).  Every matcher that records
            bucket rounds reports this recount figure whatever join
            strategy ran, including a sweep that carries its score
            table across rounds and joins only what is new.
        links_added: new identification links produced by this round.
    """

    iteration: int
    bucket_exponent: int | None
    min_degree: int
    candidates: int
    witnesses_emitted: int
    links_added: int


@dataclass(frozen=True)
class StageTiming:
    """Wall-clock cost of one pipeline stage execution.

    Attributes:
        stage: stage label (``"seeds"``, ``"candidates"``, ``"score"``,
            ``"select"``, ``"validate"``, ...).
        round: 1-based round the stage ran in (0 for one-off stages).
        elapsed: wall-clock seconds spent in the stage.
    """

    stage: str
    round: int
    elapsed: float


@dataclass
class MatchingResult:
    """Output of a matcher run.

    Attributes:
        links: the full identification mapping ``g1-node -> g2-node``,
            including the input seeds.
        seeds: the seed links the run started from.
        phases: per-round history (in execution order).
        timings: per-stage wall-clock records (populated by matchers with
            instrumented pipelines, e.g. the Reconciler; empty otherwise).
    """

    links: dict[Node, Node]
    seeds: dict[Node, Node]
    phases: list[PhaseRecord] = field(default_factory=list)
    timings: list[StageTiming] = field(default_factory=list)

    @property
    def new_links(self) -> dict[Node, Node]:
        """Links discovered by the algorithm (excludes seeds)."""
        return {
            v1: v2 for v1, v2 in self.links.items() if v1 not in self.seeds
        }

    @property
    def num_links(self) -> int:
        """Total links, seeds included."""
        return len(self.links)

    @property
    def num_new_links(self) -> int:
        """Links discovered beyond the seeds."""
        return len(self.links) - len(self.seeds)

    @property
    def total_witnesses(self) -> int:
        """Sum of witness pairs emitted across every round (cost proxy)."""
        return int(sum(p.witnesses_emitted for p in self.phases))

    def __repr__(self) -> str:
        return (
            f"MatchingResult(num_links={self.num_links}, "
            f"num_new_links={self.num_new_links}, "
            f"phases={len(self.phases)})"
        )
