"""Prediction-by-partial-match (PPM) branch predictability kernels.

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

The predictor's tables update as the branch stream advances, so the
natural formulation is a sequential per-branch table walk; that walk is
the tests' PPM oracle (``tests/mica/oracle.py``).
The kernels here produce identical output from pure array operations,
for every interval of a fused batch (:mod:`repro.mica.fused`) at once:

1. Every (organization, tracked length, branch) triple becomes one
   *counter event*, keyed by the integer table context
   ``org | interval | pc | length | history`` (:func:`context_keys`).
   All 24 keys per branch come from one broadcast over the precomputed
   history arrays.
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
   suffix scan over the tracked lengths (:func:`ppm_misses`).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .features import REPORTED_LENGTHS, TRACKED_LENGTHS
from .workspace import Workspace

#: Saturating-counter clamp.
_COUNTER_MAX = 4

#: Bits of branch history kept per context (the longest tracked length).
_HISTORY_BITS = 12

#: Bits reserved for the tracked-length tag inside a context key.
_LENGTH_BITS = 3

#: Events per block of the blocked counter scan.  Measured over every
#: scan of a paper-preset and a tiny-preset featurization (2-vCPU
#: Xeon): 8 beat 4, 6, 12, 16 and 32 at paper sizes and beat the
#: whole-array Hillis-Steele scan at both.
_SCAN_BLOCK = 8


def local_histories(
    pc_ids: np.ndarray, outcomes: np.ndarray, order: Optional[np.ndarray] = None
) -> np.ndarray:
    """Vectorized 12-bit per-address history before each branch.

    Bit ``k`` of ``history[i]`` is the outcome of the ``k + 1``-th
    previous branch with the same ``pc_id`` (bit 0 is the most recent).
    ``order``, when the caller has it, must be
    ``np.argsort(pc_ids, kind="stable")``.
    """
    n = len(outcomes)
    if order is None:
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


def _event_bits(n: int) -> int:
    """Bits addressing one of the ``4 * len(TRACKED_LENGTHS) * n`` events."""
    return int(4 * len(TRACKED_LENGTHS) * n - 1).bit_length()


def context_keys(
    g_hist: np.ndarray,
    l_hist: np.ndarray,
    base: np.ndarray | np.int64,
    pc_part: np.ndarray,
    org_shift: int,
    ws: Optional[Workspace] = None,
) -> np.ndarray:
    """``(4, len(TRACKED_LENGTHS), n)`` integer table contexts.

    Key of (organization, tracked length, branch) is
    ``org << org_shift | base | [pc_part] | length tag | masked history``;
    ``pc_part`` joins the key only for the per-address tables, and
    ``base`` carries any further tag (the fused pass's interval id).
    The keys are taken from ``ws`` when given.
    """
    n_lengths = len(TRACKED_LENGTHS)
    masks = np.array([(1 << L) - 1 for L in TRACKED_LENGTHS], dtype=np.int64)
    len_tags = np.arange(n_lengths, dtype=np.int64) << _HISTORY_BITS
    shape = (4, n_lengths, len(g_hist))
    keys = np.empty(shape, dtype=np.int64) if ws is None else ws.empty(shape, np.int64)
    for org, (hist, per_addr) in enumerate(
        ((g_hist, False), (l_hist, False), (g_hist, True), (l_hist, True))
    ):
        org_base = (np.int64(org) << org_shift) | base
        if per_addr:
            org_base = org_base | pc_part
        np.bitwise_and(hist[None, :], masks[:, None], out=keys[org])
        keys[org] |= len_tags[:, None]
        keys[org] |= org_base
    return keys


def ppm_misses(
    keys: np.ndarray, outcomes: np.ndarray, ws: Optional[Workspace] = None
) -> Dict[int, np.ndarray]:
    """Per reported maximum length, which branches each organization misses.

    Args:
        keys: :func:`context_keys` output, shape ``(4, len(TRACKED_LENGTHS), n)``;
            overwritten.
        outcomes: the ``n`` branch outcomes in program order.
        ws: workspace for the event-sized temporaries.

    Returns:
        ``{maxlen: (4, n) bool}`` — entry ``[org, i]`` is True when
        organization ``org`` mispredicts branch ``i``.
    """
    if ws is None:
        ws = Workspace()
    n = len(outcomes)
    n_lengths = len(TRACKED_LENGTHS)
    m = keys.size
    pos_bits = _event_bits(n)

    # Stable (key, time) order via one sort of unique composites: an
    # event's position tags its freshly zeroed low bits, so adding it
    # equals OR-ing it in.
    events = keys.reshape(-1)
    np.left_shift(events, pos_bits, out=events)
    rows = events.reshape(-1, n)
    rows += ws.positions(n)
    rows += ws.positions(len(rows))[:, None] * n
    events.sort()
    order = ws.empty(m, np.int64)
    np.bitwise_and(events, (np.int64(1) << pos_bits) - 1, out=order)
    np.right_shift(events, pos_bits, out=events)  # back to bare keys
    starts = ws.empty(m, bool)
    starts[0] = True
    np.not_equal(events[1:], events[:-1], out=starts[1:])

    # Counter seen at prediction time, back in program order.  Event
    # e belongs to branch e % n; a tiled gather is far faster than a
    # "wrap" take.
    deltas = ws.empty(m, np.int16)
    with ws.frame():
        tiled = ws.empty((m // n, n), np.int16)
        tiled[:] = np.where(outcomes, np.int16(1), np.int16(-1))
        np.take(tiled.reshape(-1), order, out=deltas, mode="clip")
    before = ws.empty(m, np.int16)
    before[order] = counters_before(deltas, starts, ws)
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


def counters_before(
    deltas: np.ndarray, starts: np.ndarray, ws: Optional[Workspace] = None
) -> np.ndarray:
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
    its block.  All arithmetic is int16 and exact.  The result and the
    temporaries are taken from ``ws`` when given.
    """
    if ws is None:
        ws = Workspace()
    m = len(deltas)
    width = _SCAN_BLOCK
    nb = -(-m // width)
    result = ws.empty((nb, width), np.int16)
    with ws.frame():
        _blocked_scan(deltas, starts, nb, result.T, ws)
    return result.reshape(-1)[:m]


def _blocked_scan(
    deltas: np.ndarray, starts: np.ndarray, nb: int, before: np.ndarray, ws: Workspace
) -> None:
    """:func:`counters_before`'s scan, into the lane-major ``before``."""
    m = len(deltas)
    width = _SCAN_BLOCK
    # Lane-major layout: maps[j] holds lane j of every block as rows
    # (C, B, A), so one ufunc call steps all three across all blocks.
    # Padding events form their own segments with a zero delta.
    maps = ws.empty((width, 3, nb), np.int16)
    maps[:, 0] = _COUNTER_MAX
    maps[:, 1] = -_COUNTER_MAX
    lane_starts = ws.empty((width, nb), bool)  # C order: rows contiguous
    with ws.frame():
        padded = ws.empty(nb * width, np.int16)
        padded[:m] = deltas
        padded[m:] = 0
        maps[:, 2] = padded.reshape(nb, width).T
        flags = padded.view(bool)[: nb * width]  # padded is spent
        flags[:m] = starts
        flags[m:] = True
        lane_starts[:] = flags.reshape(nb, width).T

    # (1) In-block prefix maps; a segment start restarts the map.
    # Composing (C', B', A') then (c, b, a) gives
    # (min(c, max(b, C' + a)), max(b, B' + a), A' + a); it is blended
    # in as lane += (step - lane) * keep, which vectorizes far better
    # than a masked copy.  keep[j] starts as "lane j starts no segment"
    # and ends as "no segment starts in the block up to lane j" —
    # exactly when the counter carried into the block still counts.
    keep = ws.empty((width, nb), np.int16)
    np.logical_not(lane_starts, out=keep)
    step = ws.empty((3, nb), np.int16)
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
    total = ws.empty((3, nb), np.int16)
    total[:] = maps[-1]
    open_ = keep[-1].copy()
    shift = 1
    while shift < nb and open_.any():
        right = total[:, shift:]
        new = step[:, : nb - shift]
        np.add(total[:, :-shift], right[2], out=new)
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
    after = keep
    after *= carry
    after += maps[:, 2]
    np.maximum(after, maps[:, 1], out=after)
    np.minimum(after, maps[:, 0], out=after)
    before[0] = carry
    before[1:] = after[:-1]
    np.logical_not(lane_starts, out=lane_starts)
    before *= lane_starts
