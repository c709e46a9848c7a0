"""Entity relatedness with KORE vs. Milne–Witten (Chapter 4).

For a popular seed entity, ranks candidate entities by four relatedness
measures and compares the rankings against the world's latent ground
truth; then demonstrates the two-stage LSH acceleration by counting the
exact pairwise computations it avoids.

Run:  python examples/entity_relatedness.py
"""

from __future__ import annotations

from repro import (
    KoreLshRelatedness,
    KoreRelatedness,
    LshSettings,
    MilneWittenRelatedness,
    World,
    WorldConfig,
    build_world_kb,
)
from repro.weights.model import WeightModel


def main() -> None:
    world = World.generate(WorldConfig(seed=7, clusters_per_domain=6))
    kb, _wiki = build_world_kb(world, seed=101)
    weights = WeightModel(kb.keyphrases, kb.links)

    # Seed: the most popular music entity; candidates: cluster co-members
    # plus remote entities.
    music = [
        eid
        for eid in world.in_kb_ids()
        if world.entity(eid).domain == "music"
    ]
    seed = max(music, key=lambda eid: world.entity(eid).popularity)
    cluster = world.cluster_of(seed)
    in_kb = set(world.in_kb_ids())
    close = [m for m in cluster.members if m != seed and m in in_kb][:5]
    far = [
        eid
        for eid in world.in_kb_ids()
        if world.entity(eid).domain != "music"
    ][:5]
    candidates = close + far

    seed_name = world.entity(seed).names.canonical
    print(f"seed entity: {seed_name} ({seed})")
    print(f"candidates: {len(close)} cluster co-members + {len(far)} remote")

    mw = MilneWittenRelatedness(kb.links, kb.entity_count)
    kore = KoreRelatedness(kb.keyphrases, weights)
    print("\nrelatedness to the seed (MW vs KORE vs latent truth):")
    for candidate in candidates:
        name = world.entity(candidate).names.canonical
        latent = world.latent_relatedness(seed, candidate)
        print(
            f"  {name:28s} MW={mw.relatedness(seed, candidate):.3f}  "
            f"KORE={kore.relatedness(seed, candidate):.3f}  "
            f"latent={latent:.1f}"
        )

    # LSH acceleration: how many exact computations does pre-clustering
    # avoid over a larger entity pool?
    pool = world.in_kb_ids()[:120]
    exact = KoreRelatedness(kb.keyphrases, weights)
    for settings, label in (
        (LshSettings.recall_geared(), "KORE_LSH-G"),
        (LshSettings.fast(), "KORE_LSH-F"),
    ):
        inner = KoreRelatedness(kb.keyphrases, weights)
        lsh = KoreLshRelatedness(kb.keyphrases, inner, settings, name=label)
        surviving = len(lsh.candidate_pairs(pool))
        total_pairs = len(pool) * (len(pool) - 1) // 2
        print(
            f"\n{label}: {surviving} of {total_pairs} pairs "
            f"survive pre-clustering "
            f"({100 * surviving / total_pairs:.1f}%)"
        )


if __name__ == "__main__":
    main()
