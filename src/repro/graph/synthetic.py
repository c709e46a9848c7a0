"""Seeded synthetic mention-entity graphs and link worlds.

Used by the solver-equivalence tests and the relatedness differential
tests: both need families of inputs of controlled size that are
bit-identical across runs and across the production and oracle code
paths being compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.graph.mention_entity_graph import MentionEntityGraph
from repro.kb.links import LinkGraph
from repro.types import EntityId, Mention
from repro.utils.rng import SeededRng


@dataclass(frozen=True)
class SyntheticGraphSpec:
    """Shape of a synthetic candidate graph.

    ``mentions`` × ``candidates_per_mention`` entity nodes are created
    (disjoint candidate pools per mention, plus a ``shared_fraction`` of
    entities that are additionally injected into the next mention's pool,
    which exercises the metonymy/shared-candidate paths).  Each entity gets
    coherence edges to roughly ``ee_neighbors`` random other entities.
    """

    mentions: int = 10
    candidates_per_mention: int = 5
    ee_neighbors: int = 4
    shared_fraction: float = 0.1
    gamma: float = 0.4
    seed: int = 0


def synthetic_graph(spec: SyntheticGraphSpec) -> MentionEntityGraph:
    """Build a seeded random graph; identical spec → identical graph."""
    rng = SeededRng(spec.seed)
    mentions = [
        Mention(surface=f"m{i}", start=i * 2, end=i * 2 + 1)
        for i in range(spec.mentions)
    ]
    graph = MentionEntityGraph(mentions)
    entities = []
    for index in range(spec.mentions):
        for k in range(spec.candidates_per_mention):
            entity_id = f"E{index:03d}_{k:03d}"
            entities.append(entity_id)
            graph.add_mention_entity_edge(
                index, entity_id, rng.uniform(0.05, 1.0)
            )
            if (
                spec.mentions > 1
                and rng.maybe(spec.shared_fraction)
            ):
                graph.add_mention_entity_edge(
                    (index + 1) % spec.mentions,
                    entity_id,
                    rng.uniform(0.05, 1.0),
                )
    for entity_id in entities:
        for other in rng.sample(entities, spec.ee_neighbors):
            if other != entity_id:
                graph.add_entity_entity_edge(
                    entity_id, other, rng.uniform(0.05, 1.0)
                )
    graph.rescale_and_balance(spec.gamma)
    return graph


@dataclass(frozen=True)
class SyntheticLinkWorldSpec:
    """Shape of a synthetic entity-link world.

    ``entities`` nodes named ``E000`` … receive roughly ``mean_outlinks``
    outgoing links each, drawn toward a Zipf-weighted target distribution
    so some entities are link-rich hubs and others link-poor — the regime
    split the link-based relatedness measures care about.
    """

    entities: int = 40
    mean_outlinks: int = 8
    zipf_exponent: float = 1.0
    seed: int = 0


def synthetic_entity_ids(count: int) -> List[EntityId]:
    """The canonical entity-id vocabulary of the synthetic worlds."""
    return [f"E{index:03d}" for index in range(count)]


def synthetic_link_world(spec: SyntheticLinkWorldSpec) -> LinkGraph:
    """Build a seeded random link graph; identical spec → identical graph.

    Used by the relatedness differential tests, which need many small,
    structurally varied link worlds to compare a measure against its
    cached wrapper pair-for-pair.
    """
    rng = SeededRng(spec.seed)
    entities = synthetic_entity_ids(spec.entities)
    weights = rng.zipf_weights(len(entities), spec.zipf_exponent)
    links = LinkGraph()
    for source in entities:
        fanout = rng.randint(0, max(2 * spec.mean_outlinks, 1))
        for target in rng.pick_k_weighted(entities, weights, fanout):
            if target != source:
                links.add_link(source, target)
    return links
