"""Array-based rewrites of the keyphrase scorers.

Two hot loops are rewritten over integer arrays:

* **Cover matching** (Eq. 3.4): the shortest-window sweep runs over
  merged posting lists with id comparisons.  The plain sweep keeps the
  string sweep's first-minimal-window tie-break (which matters when the
  distance discount reads the cover's center).  Above
  :data:`NUMPY_MIN_HITS` hits a numpy kernel computes, for every hit
  position, the tightest window ending there via ``searchsorted`` and
  takes the first minimum — provably the same window.
* **KORE phrase overlap** (Eq. 4.3/4.4): PO is a single merge of two
  sorted id arrays with aligned γ weights (min over the intersection,
  max over the union), and candidate phrase pairs come from a word→
  phrase inverted index of id arrays instead of a set of tuple pairs.

Scores equal the string/dict oracles of ``tests/oracles/`` within 1e-9
(the residue is float summation order, not algorithm).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as _np

#: Below this many total hits the plain sweep beats numpy's call
#: overhead; both kernels return the identical window, so the threshold
#: is a pure performance knob.
NUMPY_MIN_HITS = 32


# ----------------------------------------------------------------------
# Cover matching (Eq. 3.4) over posting lists
# ----------------------------------------------------------------------
def cover_sweep(lists: Sequence[Sequence[int]]) -> Tuple[int, int, int]:
    """Shortest window covering one position from every list.

    Returns ``(length, start, end)`` in token offsets (inclusive).  Among
    minimal windows the one whose end position comes first wins
    (strict-improvement update over hits sorted by position).
    """
    if len(lists) == 1:
        pos = lists[0][0]
        return 1, pos, pos
    hits: List[Tuple[int, int]] = []
    for label, positions in enumerate(lists):
        for pos in positions:
            hits.append((pos, label))
    hits.sort()
    needed = len(lists)
    counts = [0] * needed
    covered = 0
    left = 0
    best_span = -1
    best_start = best_end = -1
    for pos_r, label_r in hits:
        counts[label_r] += 1
        if counts[label_r] == 1:
            covered += 1
        while covered == needed:
            pos_l, label_l = hits[left]
            span = pos_r - pos_l
            if best_span < 0 or span < best_span:
                best_span = span
                best_start = pos_l
                best_end = pos_r
            counts[label_l] -= 1
            if counts[label_l] == 0:
                covered -= 1
            left += 1
    return best_span + 1, best_start, best_end


def cover_numpy(arrays: Sequence) -> Tuple[int, int, int]:
    """The numpy kernel of :func:`cover_sweep` (identical window).

    For every hit position ``p`` (all lists merged, ascending) the
    tightest covering window ending at ``p`` starts at the minimum over
    lists of the latest occurrence ≤ ``p``; the answer is the first
    minimal window in end-position order, matching the sweep's
    strict-improvement tie-break.
    """
    if len(arrays) == 1:
        pos = int(arrays[0][0])
        return 1, pos, pos
    merged = _np.sort(_np.concatenate(arrays))
    starts = None
    valid = None
    for positions in arrays:
        count_le = _np.searchsorted(positions, merged, side="right")
        has = count_le > 0
        latest = positions[_np.maximum(count_le - 1, 0)]
        valid = has if valid is None else (valid & has)
        starts = latest if starts is None else _np.minimum(starts, latest)
    lengths = _np.where(valid, merged - starts + 1, _np.iinfo(merged.dtype).max)
    best = int(_np.argmin(lengths))  # first minimum == sweep tie-break
    return int(lengths[best]), int(starts[best]), int(merged[best])


def _best_cover(indexed, word_ids, lists):
    """Dispatch the cover computation on input size."""
    if (
        len(lists) > 1
        and sum(len(positions) for positions in lists) >= NUMPY_MIN_HITS
    ):
        return cover_numpy(
            [indexed.positions_array(wid) for wid in word_ids]
        )
    return cover_sweep(lists)


# ----------------------------------------------------------------------
# Mention-entity similarity (Eq. 3.6) over a compiled entity model
# ----------------------------------------------------------------------
def simscore_arrays(
    indexed,
    model,
    distance_discount: float = 0.0,
) -> Tuple[float, int, int]:
    """Aggregate keyphrase score of one entity against an indexed context.

    Returns ``(score, phrases_scored, phrases_skipped)``.  The matching
    phrases are discovered through the entity's word→phrase inverted
    index: one pass over the entity's distinct words touches only the
    (word, phrase) incidences that actually occur in the context, so a
    candidate sharing nothing with the document costs one posting probe
    per distinct word and no per-phrase work at all.
    """
    postings = indexed.postings
    word_ids = model.word_ids
    word_weights = model.word_weights
    inverted_offsets = model.word_phrase_offsets
    inverted_ids = model.word_phrase_ids
    #: phrase index -> ids of its words present in the context, and the
    #: accumulated matched weight (Eq. 3.4 numerator).
    matched_words: Dict[int, List[int]] = {}
    matched_weight: Dict[int, float] = {}
    for j in range(len(word_ids)):
        wid = word_ids[j]
        if wid not in postings:
            continue
        weight = word_weights[j]
        for t in range(inverted_offsets[j], inverted_offsets[j + 1]):
            phrase = inverted_ids[t]
            present = matched_words.get(phrase)
            if present is None:
                matched_words[phrase] = [wid]
                matched_weight[phrase] = weight
            else:
                present.append(wid)
                matched_weight[phrase] += weight
    scored = len(matched_words)
    skipped = model.phrase_count - scored
    if not scored:
        return 0.0, 0, skipped
    discounting = distance_discount > 0.0
    center = indexed.mention_center if discounting else None
    doc_length = indexed.document_length if discounting else 1
    totals = model.phrase_totals
    total = 0.0
    # Ascending phrase order keeps the float accumulation order of a
    # loop over ``entity_phrases``.
    for phrase in sorted(matched_words):
        total_weight = totals[phrase]
        if total_weight <= 0.0:
            continue
        word_subset = matched_words[phrase]
        lists = [postings[wid] for wid in word_subset]
        length, start, end = _best_cover(indexed, word_subset, lists)
        ratio = matched_weight[phrase] / total_weight
        score = (len(word_subset) / length) * ratio * ratio
        if score > 0.0 and center is not None:
            cover_center = (start + end) / 2.0
            score *= 1.0 / (
                1.0
                + distance_discount
                * abs(cover_center - center)
                / doc_length
            )
        total += score
    return total, scored, skipped


# ----------------------------------------------------------------------
# KORE (Eq. 4.3/4.4) over compiled entity models
# ----------------------------------------------------------------------
def _po_merge(
    a_ids,
    a_gammas,
    a_lo,
    a_hi,
    b_ids,
    b_gammas,
    b_lo,
    b_hi,
    a_word_gammas,
    b_word_gammas,
) -> float:
    """Eq. 4.3 as one merge of two sorted id ranges with aligned γ.

    Intersection words contribute ``min`` to the numerator and ``max``
    to the denominator.  A word on one side of the *phrase* pair still
    looks up the other **entity's** γ map (Eq. 4.3 weighs words by
    per-entity γ, so a word absent from phrase ``q`` but present
    elsewhere in entity ``f`` keeps f's weight in the ``max``); only
    words unknown to the other entity fall back to 0.0.
    """
    numerator = 0.0
    denominator = 0.0
    i, j = a_lo, b_lo
    while i < a_hi and j < b_hi:
        a_id = a_ids[i]
        b_id = b_ids[j]
        if a_id == b_id:
            a_w = a_gammas[i]
            b_w = b_gammas[j]
            if a_w <= b_w:
                numerator += a_w
                denominator += b_w
            else:
                numerator += b_w
                denominator += a_w
            i += 1
            j += 1
        elif a_id < b_id:
            a_w = a_gammas[i]
            other = b_word_gammas.get(a_id, 0.0)
            denominator += a_w if a_w >= other else other
            i += 1
        else:
            b_w = b_gammas[j]
            other = a_word_gammas.get(b_id, 0.0)
            denominator += b_w if b_w >= other else other
            j += 1
    while i < a_hi:
        a_w = a_gammas[i]
        other = b_word_gammas.get(a_ids[i], 0.0)
        denominator += a_w if a_w >= other else other
        i += 1
    while j < b_hi:
        b_w = b_gammas[j]
        other = a_word_gammas.get(b_ids[j], 0.0)
        denominator += b_w if b_w >= other else other
        j += 1
    if numerator == 0.0 or denominator <= 0.0:
        return 0.0
    return numerator / denominator


def kore_score(model_a, model_b, squared: bool = True) -> float:
    """Eq. 4.4 over two compiled KORE entity models.

    Candidate phrase pairs are discovered through the second entity's
    word→phrase inverted index; a per-phrase seen-set of integer phrase
    indices dedupes partners found through several shared words.
    """
    denominator = model_a.phi_sum + model_b.phi_sum
    if denominator <= 0.0:
        return 0.0
    a_offsets = model_a.phrase_word_offsets
    a_ids = model_a.phrase_word_ids
    a_gammas = model_a.phrase_word_gammas
    b_offsets = model_b.phrase_word_offsets
    b_ids = model_b.phrase_word_ids
    b_gammas = model_b.phrase_word_gammas
    b_index = model_b.word_to_phrases
    a_word_gammas = model_a.word_gammas
    b_word_gammas = model_b.word_gammas
    phi_a = model_a.phi
    phi_b = model_b.phi
    numerator = 0.0
    for p in range(model_a.phrase_count):
        lo = a_offsets[p]
        hi = a_offsets[p + 1]
        phi_p = phi_a[p]
        seen = set()
        for t in range(lo, hi):
            partners = b_index.get(a_ids[t])
            if partners is None:
                continue
            for q in partners:
                if q in seen:
                    continue
                seen.add(q)
                po = _po_merge(
                    a_ids,
                    a_gammas,
                    lo,
                    hi,
                    b_ids,
                    b_gammas,
                    b_offsets[q],
                    b_offsets[q + 1],
                    a_word_gammas,
                    b_word_gammas,
                )
                if po == 0.0:
                    continue
                if squared:
                    po *= po
                phi_q = phi_b[q]
                numerator += po * (phi_p if phi_p <= phi_q else phi_q)
    return numerator / denominator
