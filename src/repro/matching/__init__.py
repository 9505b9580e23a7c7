"""Map matching (paper Sec. IV.E).

Aligns cleaned route points onto the road graph:

* :mod:`repro.matching.candidates` — candidate edges near a fix, scored by
  distance and orientation, honouring one-way directions from the map
  ("enhanced with information retrieved from the digital map");
* :mod:`repro.matching.incremental` — the incremental matcher of
  Brakatsoulas et al. (VLDB'05) with look-ahead, the paper's choice;
* :mod:`repro.matching.hmm` — an HMM/Viterbi matcher as the modern
  baseline for comparison benches;
* :mod:`repro.matching.gapfill` — Dijkstra shortest-path gap filling
  between distant fixes (the pgRouting step);
* :mod:`repro.matching.types` — matched points and routes.

:func:`make_matcher` builds either matcher by name; the study, the pool
workers and the streaming service all construct theirs through it.
"""

from repro.matching.candidates import (
    Candidate,
    CandidateConfig,
    candidates_for_point,
    candidates_for_points,
)
from repro.matching.evaluate import (
    MatchEvaluation,
    edge_jaccard,
    evaluate_matcher,
    truth_for_segment,
)
from repro.matching.gapfill import connect_matches
from repro.matching.hmm import HmmConfig, HmmMatcher
from repro.matching.incremental import (
    IncrementalConfig,
    IncrementalMatcher,
    MatcherState,
)
from repro.matching.types import (
    MatchedPoint,
    MatchedRoute,
    edge_entries,
    edge_exits,
    movement_directions,
)


def make_matcher(graph, kind: str) -> IncrementalMatcher | HmmMatcher:
    """The ``kind`` matcher (``"incremental"`` or ``"hmm"``) over ``graph``."""
    if kind == "hmm":
        return HmmMatcher(graph)
    if kind == "incremental":
        return IncrementalMatcher(graph)
    raise ValueError(f"unknown matcher {kind!r}; choose 'incremental' or 'hmm'")


__all__ = [
    "Candidate",
    "CandidateConfig",
    "HmmConfig",
    "HmmMatcher",
    "IncrementalConfig",
    "IncrementalMatcher",
    "MatchEvaluation",
    "MatchedPoint",
    "MatchedRoute",
    "MatcherState",
    "candidates_for_point",
    "candidates_for_points",
    "connect_matches",
    "edge_entries",
    "edge_exits",
    "edge_jaccard",
    "evaluate_matcher",
    "make_matcher",
    "movement_directions",
    "truth_for_segment",
]
