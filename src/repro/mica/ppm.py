"""Prediction-by-partial-match (PPM) branch predictability meter.

Implements the theoretical PPM predictor of Chen, Coffey and Mudge
("Analysis of branch prediction via data compression", ASPLOS 1996) as
used by MICA: for each dynamic conditional branch, predict using the
longest previously-seen history context, from the maximum history length
down to the empty context; after predicting, update the counters of
every tracked context length.

Four predictor organizations are measured, crossing the history kind
with the table kind:

========  =================  ==================
name      history            prediction table
========  =================  ==================
GAg       global             global
PAg       per-address        global
GAs       global             per-address
PAs       per-address        per-address
========  =================  ==================

For each organization the miss rate is reported for maximum history
lengths 4, 8 and 12.  A single pass per organization produces all three:
the prediction for maximum length L uses the longest matched context of
length <= L.

Two implementations live here.  :func:`measure_ppm_reference` is the
original per-branch table walk — tables update as the stream advances,
so it is sequential Python; tests use it as the oracle.
:func:`measure_ppm` is the grouped-scan formulation that produces
identical output from pure array operations:

1. Every (organization, tracked length, branch) triple becomes one
   *counter event*, keyed by the integer table context
   ``org | pc | length | history``.  All 24 keys per branch come from
   one broadcast over the precomputed history arrays.
2. Events are sorted by ``(key, time)`` — a single ``np.sort`` of
   composite ``(key << pos_bits) | position`` integers, which is stable
   by construction because the composites are unique.
3. Within each key segment, the saturating counter evolves by a
   segmented prefix scan.  A run of ±1 updates composes into the
   clamped-affine map ``y -> min(C, max(B, y + A))``; these maps form a
   monoid, so Hillis–Steele doubling over ``(A, B, C)`` triples yields
   every event's counter-before-update in ``O(log max_segment)`` array
   sweeps.
4. Scattering the counters back to program order gives, per branch, the
   counter each context held when the branch predicted; the longest
   non-zero context under each reported maximum is selected by a short
   suffix scan over the tracked lengths.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


#: Context lengths tracked per predictor.  A strict PPM tracks every
#: length 0..12; tracking this subset keeps the table state tractable
#: while preserving the short/medium/long history structure that
#: separates workloads.
TRACKED_LENGTHS = (12, 8, 4, 2, 1, 0)

#: Maximum history lengths reported, as in the paper.
REPORTED_LENGTHS = (4, 8, 12)

#: Saturating-counter clamp.
_COUNTER_MAX = 4

_HISTORY_BITS = 12
_HISTORY_MASK = (1 << _HISTORY_BITS) - 1

#: Bits reserved for the tracked-length tag inside a context key.
_LENGTH_BITS = 3


def global_histories(outcomes: np.ndarray) -> np.ndarray:
    """Vectorized 12-bit global history before each branch.

    Bit ``k`` of ``history[i]`` is the outcome of branch ``i - 1 - k``.
    """
    n = len(outcomes)
    hist = np.zeros(n, dtype=np.int64)
    bits = outcomes.astype(np.int64)
    for k in range(_HISTORY_BITS):
        # outcome of branch i-1-k contributes bit k
        if k + 1 >= n:
            break
        hist[k + 1 :] |= bits[: n - k - 1] << k
    return hist


def local_histories(pc_ids: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """Vectorized 12-bit per-address history before each branch.

    Same encoding as :func:`global_histories`, but only outcomes of the
    same static branch (same ``pc_id``) participate.
    """
    n = len(outcomes)
    order = np.argsort(pc_ids, kind="stable")
    sorted_ids = pc_ids[order]
    sorted_bits = outcomes[order].astype(np.int64)
    hist_sorted = np.zeros(n, dtype=np.int64)
    for k in range(_HISTORY_BITS):
        if k + 1 >= n:
            break
        same = sorted_ids[k + 1 :] == sorted_ids[: n - k - 1]
        contrib = np.where(same, sorted_bits[: n - k - 1] << k, 0)
        hist_sorted[k + 1 :] |= contrib
    hist = np.empty(n, dtype=np.int64)
    hist[order] = hist_sorted
    return hist


def _run_ppm(
    pc_ids: np.ndarray,
    outcomes: np.ndarray,
    histories: np.ndarray,
    *,
    per_address_table: bool,
) -> Dict[int, float]:
    """One reference PPM pass; returns miss rate per reported max length."""
    n = len(outcomes)
    if n == 0:
        return {length: 0.0 for length in REPORTED_LENGTHS}
    table: Dict[int, int] = {}
    misses = {length: 0 for length in REPORTED_LENGTHS}
    lengths = TRACKED_LENGTHS
    masks = [(1 << length) - 1 for length in lengths]
    pc_list = pc_ids.tolist() if per_address_table else None
    out_list = outcomes.tolist()
    hist_list = histories.tolist()
    reported = REPORTED_LENGTHS
    for i in range(n):
        taken = out_list[i]
        hist = hist_list[i]
        addr_part = (pc_list[i] << 20) if per_address_table else 0
        # Predict: longest matched context wins; record the first match
        # whose length fits under each reported maximum.
        preds = {}
        keys = []
        for j, length in enumerate(lengths):
            key = addr_part | (length << 14) | (hist & masks[j])
            keys.append(key)
            counter = table.get(key)
            if counter is not None and counter != 0:
                pred = counter > 0
                for maxlen in reported:
                    if length <= maxlen and maxlen not in preds:
                        preds[maxlen] = pred
                if len(preds) == len(reported):
                    # Remaining (shorter) contexts only matter for update.
                    for jj in range(j + 1, len(lengths)):
                        keys.append(addr_part | (lengths[jj] << 14) | (hist & masks[jj]))
                    break
        for maxlen in reported:
            if preds.get(maxlen, False) != taken:
                misses[maxlen] += 1
        # Update all tracked context lengths.
        delta = 1 if taken else -1
        for key in keys:
            counter = table.get(key, 0) + delta
            if counter > _COUNTER_MAX:
                counter = _COUNTER_MAX
            elif counter < -_COUNTER_MAX:
                counter = -_COUNTER_MAX
            table[key] = counter
    return {length: misses[length] / n for length in reported}


def _empty_result() -> Dict[str, float]:
    out: Dict[str, float] = {}
    for kind in ("gag", "pag", "gas", "pas"):
        for length in REPORTED_LENGTHS:
            out[f"ppm_{kind}_h{length}"] = 0.0
    return out


def measure_ppm_reference(pcs: np.ndarray, outcomes: np.ndarray) -> Dict[str, float]:
    """Reference PPM meter: the original sequential table walk."""
    if len(pcs) != len(outcomes):
        raise ValueError("pcs and outcomes must have equal length")
    if len(pcs) == 0:
        return _empty_result()
    _, pc_ids = np.unique(pcs, return_inverse=True)
    g_hist = global_histories(outcomes)
    l_hist = local_histories(pc_ids, outcomes)
    configs = (
        ("gag", g_hist, False),
        ("pag", l_hist, False),
        ("gas", g_hist, True),
        ("pas", l_hist, True),
    )
    out: Dict[str, float] = {}
    for kind, hist, per_addr in configs:
        rates = _run_ppm(pc_ids, outcomes, hist, per_address_table=per_addr)
        for length, rate in rates.items():
            out[f"ppm_{kind}_h{length}"] = rate
    return out


def measure_ppm(pcs: np.ndarray, outcomes: np.ndarray) -> Dict[str, float]:
    """PPM miss rates for the 4 organizations x 3 max history lengths.

    Grouped-scan meter; bit-identical to :func:`measure_ppm_reference`.

    Args:
        pcs: static branch addresses of the sampled conditional branches,
            in program order.
        outcomes: their taken/not-taken outcomes.

    Returns:
        12 features named ``ppm_{gag,pag,gas,pas}_h{4,8,12}``.
    """
    if len(pcs) != len(outcomes):
        raise ValueError("pcs and outcomes must have equal length")
    n = len(pcs)
    if n == 0:
        return _empty_result()
    _, pc_ids = np.unique(pcs, return_inverse=True)
    g_hist = global_histories(outcomes)
    l_hist = local_histories(pc_ids, outcomes)
    n_lengths = len(TRACKED_LENGTHS)
    m = 4 * n_lengths * n
    pc_bits = max(1, int(n - 1).bit_length())
    pos_bits = int(m - 1).bit_length()
    key_bits = 2 + pc_bits + _LENGTH_BITS + _HISTORY_BITS
    if key_bits + pos_bits > 63:  # pragma: no cover - needs n ~ 2**21
        return measure_ppm_reference(pcs, outcomes)

    # -- 1. context keys: org | pc | length | masked history ------------
    masks = np.array([(1 << L) - 1 for L in TRACKED_LENGTHS], dtype=np.int64)
    len_tags = np.arange(n_lengths, dtype=np.int64) << _HISTORY_BITS
    pc_part = pc_ids.astype(np.int64) << (_LENGTH_BITS + _HISTORY_BITS)
    org_shift = pc_bits + _LENGTH_BITS + _HISTORY_BITS
    keys = np.empty((4, n_lengths, n), dtype=np.int64)
    for org, (hist, per_addr) in enumerate(
        ((g_hist, False), (l_hist, False), (g_hist, True), (l_hist, True))
    ):
        base = (np.int64(org) << org_shift) + (pc_part if per_addr else 0)
        keys[org] = (hist[None, :] & masks[:, None]) | len_tags[:, None] | base

    # -- 2. stable (key, time) order via one sort of unique composites --
    events = keys.reshape(-1)
    np.left_shift(events, pos_bits, out=events)
    np.bitwise_or(events, np.arange(m, dtype=np.int64), out=events)
    events.sort()
    order = events & ((np.int64(1) << pos_bits) - 1)
    np.right_shift(events, pos_bits, out=events)  # back to bare keys
    starts = np.empty(m, dtype=bool)
    starts[0] = True
    np.not_equal(events[1:], events[:-1], out=starts[1:])
    idx = np.arange(m, dtype=np.int32)
    seg_first = np.maximum.accumulate(np.where(starts, idx, np.int32(0)))
    longest_segment = int((idx - seg_first).max()) + 1

    # -- 3. segmented scan over clamped-affine counter maps -------------
    # A run of updates acts on a counter as y -> min(C, max(B, y + A));
    # composing the map of events (i-shift, i] after the map ending at
    # i-shift doubles the window, Hillis-Steele style.  int16 triples:
    # the clamp keeps every intermediate in [-2*COUNTER_MAX*m, ...].
    deltas = np.where(outcomes, np.int16(1), np.int16(-1))[order % n]
    lo = np.int16(-_COUNTER_MAX)
    hi = np.int16(_COUNTER_MAX)
    A = deltas.copy()
    B = np.full(m, lo, dtype=np.int16)
    C = np.full(m, hi, dtype=np.int16)
    tmp_a = np.empty(m, dtype=np.int16)
    tmp_b = np.empty(m, dtype=np.int16)
    tmp_c = np.empty(m, dtype=np.int16)
    in_segment = np.empty(m, dtype=bool)
    shift = 1
    while shift < longest_segment:
        left_a, left_b, left_c = A[:-shift], B[:-shift], C[:-shift]
        right_a, right_b, right_c = A[shift:], B[shift:], C[shift:]
        ok = in_segment[shift:]
        np.less_equal(seg_first[shift:], idx[:-shift], out=ok)
        new_a, new_b, new_c = tmp_a[shift:], tmp_b[shift:], tmp_c[shift:]
        np.add(left_a, right_a, out=new_a)
        np.add(left_b, right_a, out=new_b)
        np.maximum(new_b, right_b, out=new_b)
        np.add(left_c, right_a, out=new_c)
        np.maximum(new_c, right_b, out=new_c)
        np.minimum(new_c, right_c, out=new_c)
        np.copyto(right_a, new_a, where=ok)
        np.copyto(right_b, new_b, where=ok)
        np.copyto(right_c, new_c, where=ok)
        shift <<= 1
    # Counter value after event i (from the fresh-table state 0) is the
    # prefix map applied to 0: min(C, max(B, A)).
    np.maximum(B, A, out=A)
    np.minimum(A, C, out=A)

    # -- 4. counter seen at prediction time, back in program order ------
    before_sorted = np.empty(m, dtype=np.int16)
    before_sorted[0] = 0
    np.copyto(before_sorted[1:], A[:-1])
    before_sorted[1:][starts[1:]] = 0
    before = np.empty(m, dtype=np.int16)
    before[order] = before_sorted
    before = before.reshape(4, n_lengths, n)

    # Longest non-zero context per reported maximum: a suffix scan over
    # the tracked lengths (ordered longest-first) keeps, per branch, the
    # counter of the first non-zero context at or below each start.
    chosen = before[:, n_lengths - 1, :].copy()
    reported_start = {12: 0, 8: 1, 4: 2}
    chosen_at = {}
    for j in range(n_lengths - 2, -1, -1):
        chosen = np.where(before[:, j, :] != 0, before[:, j, :], chosen)
        if j in reported_start.values():
            chosen_at[j] = chosen
    out: Dict[str, float] = {}
    for maxlen in REPORTED_LENGTHS:
        picked = chosen_at[reported_start[maxlen]]
        # No seen context (counter 0) predicts not-taken, as the
        # reference's preds.get(maxlen, False) default does.
        miss = (picked > 0) != outcomes[None, :]
        for org, kind in enumerate(("gag", "pag", "gas", "pas")):
            out[f"ppm_{kind}_h{maxlen}"] = float(np.count_nonzero(miss[org])) / n
    return out

