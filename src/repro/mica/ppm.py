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
   monoid, so :func:`counters_before` composes them sequentially inside
   fixed-size blocks, doubles (Hillis–Steele) over the block totals
   only, and fixes every event up with the counter carried into its
   block.
4. Scattering the counters back to program order gives, per branch, the
   counter each context held when the branch predicted; the longest
   non-zero context under each reported maximum is selected by a short
   suffix scan over the tracked lengths.

The fused whole-trace pass (:mod:`repro.mica.fused`) builds its keys
with the interval id as one more key field and shares steps 2-4
(:func:`ppm_misses`) with :func:`measure_ppm`.
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

#: Predictor organizations in context-key order (the ``org`` field).
ORGANIZATIONS = ("gag", "pag", "gas", "pas")

#: Events per block of the blocked counter scan.  Measured over every
#: scan of a paper-preset and a tiny-preset featurization (2-vCPU
#: Xeon): 8 beat 4, 6, 12, 16 and 32 at paper sizes and beat the
#: whole-array Hillis-Steele scan at both.
_SCAN_BLOCK = 8


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
    for kind in ORGANIZATIONS:
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
    pc_bits = max(1, int(n - 1).bit_length())
    key_bits = 2 + pc_bits + _LENGTH_BITS + _HISTORY_BITS
    if key_bits + _event_bits(n) > 63:  # pragma: no cover - needs n ~ 2**21
        return measure_ppm_reference(pcs, outcomes)
    pc_part = pc_ids.astype(np.int64) << (_LENGTH_BITS + _HISTORY_BITS)
    org_shift = pc_bits + _LENGTH_BITS + _HISTORY_BITS
    keys = context_keys(g_hist, l_hist, np.int64(0), pc_part, org_shift)
    out: Dict[str, float] = {}
    for maxlen, miss in ppm_misses(keys, outcomes).items():
        for org, kind in enumerate(ORGANIZATIONS):
            out[f"ppm_{kind}_h{maxlen}"] = float(np.count_nonzero(miss[org])) / n
    return out


def _event_bits(n: int) -> int:
    """Bits addressing one of the ``4 * len(TRACKED_LENGTHS) * n`` events."""
    return int(4 * len(TRACKED_LENGTHS) * n - 1).bit_length()


def context_keys(
    g_hist: np.ndarray,
    l_hist: np.ndarray,
    base: np.ndarray | np.int64,
    pc_part: np.ndarray,
    org_shift: int,
) -> np.ndarray:
    """``(4, len(TRACKED_LENGTHS), n)`` integer table contexts.

    Key of (organization, tracked length, branch) is
    ``org << org_shift | base | [pc_part] | length tag | masked history``;
    ``pc_part`` joins the key only for the per-address tables, and
    ``base`` carries any further tag (the fused pass's interval id).
    """
    n_lengths = len(TRACKED_LENGTHS)
    masks = np.array([(1 << L) - 1 for L in TRACKED_LENGTHS], dtype=np.int64)
    len_tags = np.arange(n_lengths, dtype=np.int64) << _HISTORY_BITS
    keys = np.empty((4, n_lengths, len(g_hist)), dtype=np.int64)
    for org, (hist, per_addr) in enumerate(
        ((g_hist, False), (l_hist, False), (g_hist, True), (l_hist, True))
    ):
        org_base = (np.int64(org) << org_shift) | base
        if per_addr:
            org_base = org_base | pc_part
        keys[org] = (hist[None, :] & masks[:, None]) | len_tags[:, None] | org_base
    return keys


def ppm_misses(keys: np.ndarray, outcomes: np.ndarray) -> Dict[int, np.ndarray]:
    """Per reported maximum length, which branches each organization misses.

    Args:
        keys: :func:`context_keys` output, shape ``(4, len(TRACKED_LENGTHS), n)``;
            overwritten.
        outcomes: the ``n`` branch outcomes in program order.

    Returns:
        ``{maxlen: (4, n) bool}`` — entry ``[org, i]`` is True when
        organization ``org`` mispredicts branch ``i``.
    """
    n = len(outcomes)
    n_lengths = len(TRACKED_LENGTHS)
    m = keys.size
    pos_bits = _event_bits(n)

    # Stable (key, time) order via one sort of unique composites.
    events = keys.reshape(-1)
    np.left_shift(events, pos_bits, out=events)
    np.bitwise_or(events, np.arange(m, dtype=np.int64), out=events)
    events.sort()
    order = events & ((np.int64(1) << pos_bits) - 1)
    np.right_shift(events, pos_bits, out=events)  # back to bare keys
    starts = np.empty(m, dtype=bool)
    starts[0] = True
    np.not_equal(events[1:], events[:-1], out=starts[1:])

    # Counter seen at prediction time, back in program order.
    deltas = np.tile(np.where(outcomes, np.int16(1), np.int16(-1)), m // n)[order]
    before = np.empty(m, dtype=np.int16)
    before[order] = counters_before(deltas, starts)
    before = before.reshape(4, n_lengths, n)

    # Longest non-zero context per reported maximum: a suffix scan over
    # the tracked lengths (ordered longest-first) keeps, per branch, the
    # counter of the first non-zero context at or below each start.
    chosen = before[:, n_lengths - 1, :].copy()
    reported_start = {TRACKED_LENGTHS.index(L): L for L in REPORTED_LENGTHS}
    out: Dict[int, np.ndarray] = {}
    for j in range(n_lengths - 2, -1, -1):
        chosen = np.where(before[:, j, :] != 0, before[:, j, :], chosen)
        if j in reported_start:
            # No seen context (counter 0) predicts not-taken, as the
            # reference's preds.get(maxlen, False) default does.
            out[reported_start[j]] = (chosen > 0) != outcomes[None, :]
    return {L: out[L] for L in REPORTED_LENGTHS}


def counters_before(deltas: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Saturating counter each event sees, by a blocked segmented scan.

    Every segment (``starts`` marks its first event) is one table
    context: its counter starts at 0 and each event adds its ``±1``
    delta, clamped to ``±_COUNTER_MAX``.  Returns the counter before
    each event's own update.

    A run of updates acts on a counter as the clamped-affine map
    ``y -> min(C, max(B, y + A))``, and these maps compose.  The scan
    (1) composes the maps sequentially inside blocks of
    :data:`_SCAN_BLOCK` events, one vectorized step per lane across all
    blocks; (2) carries each block's total map across blocks by
    segmented Hillis-Steele doubling over the block totals only; and
    (3) applies each event's in-block map to the counter carried into
    its block.  All arithmetic is int16 and exact.
    """
    m = len(deltas)
    width = _SCAN_BLOCK
    nb = -(-m // width)
    # Lane-major layout: maps[j] holds lane j of every block as rows
    # (C, B, A), so one ufunc call steps all three across all blocks.
    # Padding events form their own segments with a zero delta.
    maps = np.empty((width, 3, nb), dtype=np.int16)
    maps[:, 0] = _COUNTER_MAX
    maps[:, 1] = -_COUNTER_MAX
    padded = np.zeros(nb * width, dtype=np.int16)
    padded[:m] = deltas
    maps[:, 2] = padded.reshape(nb, width).T
    flags = np.ones(nb * width, dtype=bool)
    flags[:m] = starts
    lane_starts = flags.reshape(nb, width).T.copy()  # C order: rows contiguous

    # (1) In-block prefix maps; a segment start restarts the map.
    # Composing (C', B', A') then (c, b, a) gives
    # (min(c, max(b, C' + a)), max(b, B' + a), A' + a); it is blended
    # in as lane += (step - lane) * keep, which vectorizes far better
    # than a masked copy.  keep[j] starts as "lane j starts no segment"
    # and ends as "no segment starts in the block up to lane j" —
    # exactly when the counter carried into the block still counts.
    keep = (~lane_starts).astype(np.int16)
    step = np.empty((3, nb), dtype=np.int16)
    for j in range(1, width):
        lane = maps[j]
        np.add(maps[j - 1], lane[2], out=step)
        np.maximum(step[:2], lane[1], out=step[:2])
        np.minimum(step[0], lane[0], out=step[0])
        step -= lane
        step *= keep[j]
        lane += step
        keep[j] *= keep[j - 1]

    # (2) Whole-prefix maps at block ends by segmented doubling over
    # the block totals; open_[b] while block b's map does not yet
    # reach back to its segment's start.
    total = maps[-1].copy()
    open_ = keep[-1].copy()
    shift = 1
    while shift < nb and open_.any():
        right = total[:, shift:]
        new = total[:, :-shift] + right[2]
        np.maximum(new[:2], right[1], out=new[:2])
        np.minimum(new[0], right[0], out=new[0])
        new -= right
        new *= open_[shift:]
        right += new
        open_[shift:] = open_[shift:] * open_[:-shift]
        shift <<= 1
    carry = np.zeros(nb, dtype=np.int16)
    carry[1:] = np.minimum(np.maximum(total[1], total[2]), total[0])[:-1]

    # (3) Counter after each event from the counter carried into its
    # block, then the one before it: the previous event's (the carry
    # for lane 0), or 0 at a segment start.
    after = keep * carry
    after += maps[:, 2]
    np.maximum(after, maps[:, 1], out=after)
    np.minimum(after, maps[:, 0], out=after)
    before = np.empty((width, nb), dtype=np.int16)
    before[0] = carry
    before[1:] = after[:-1]
    before *= ~lane_starts
    return before.T.reshape(-1)[:m]
