"""Exact streaming Lloyd: k-means over data seen only in batches.

The batch clustering stage runs full Lloyd iterations over the whole
``(n, d)`` rescaled space.  This module clusters data it only ever
sees in batches:

* :class:`StreamingLloyd` — exact Lloyd restructured so one iteration
  is one pass over the stream: assignments and per-cluster sums
  accumulate batch by batch in ``O(k·d)``, centers update at pass
  end, empty clusters re-seed from the globally farthest points
  (tracked via a bounded candidate merge).  Every decision mirrors
  one iteration of :func:`repro.stats.kmeans_engine.lloyd_accelerated`
  — same kernels, same tie-breaks, same convergence checks — so from
  the same initial centers it reproduces the exact trajectory: the
  same labels and iteration count, centers equal up to floating-point
  rounding (pinned against the full-distance reference in
  ``tests/stats/oracle.py`` by ``tests/stats/test_minibatch_kmeans.py``).
* :class:`FrozenScorer` — one pass with frozen centers that streams
  labels, SSE, counts and representatives.

Discipline shared with the exact path (:mod:`repro.stats.kmeans`):

* assignment and farthest-point selection reuse the exact engine's
  kernels (:func:`assign_points`, :func:`farthest_rows`), and center
  means accumulate bincount-style like
  :func:`~repro.stats.kmeans_engine.group_means`, so
  tie-breaking matches;
* BIC is :func:`repro.stats.bic.bic_from_stats` — the one formula
  :func:`~repro.stats.bic.kmeans_bic` also returns — evaluated from
  the streamed SSE and cluster counts.

Each restart's initial rows come from
:func:`repro.stats.kmeans.restart_init_rows`, the batch path's own
draw; best-BIC selection is the caller's
(:mod:`repro.streaming.engine`), and the approximation gap is
test-pinned in ``tests/streaming``.
"""

from __future__ import annotations

import numpy as np

from .bic import bic_from_stats
from .kmeans_engine import assign_points, farthest_rows


class StreamingLloyd:
    """Lloyd's algorithm with one iteration per pass over the stream.

    Drive it pass by pass::

        lloyd = StreamingLloyd(init_centers, n_rows, max_iter)
        while lloyd.wants_pass():
            for batch in stream:          # same batches every pass
                lloyd.fold_batch(batch)
            lloyd.end_pass()

    Each pass replicates one full-distance Lloyd iteration (the
    trajectory :func:`~repro.stats.kmeans_engine.lloyd_accelerated`
    takes too): chunked assignment (shared kernel), empty-cluster
    reseeding from the globally farthest points, bincount-style center
    means, and both convergence checks (stable labels; zero center
    drift without a reseed).  Fixed-size state is ``O(k·d)`` — sums,
    counts, and a ``k``-bounded farthest-candidate set merged with
    :func:`farthest_rows`'s tie-break (descending distance, ties to
    the higher global row) — plus two ``O(n)`` int64 label vectors for
    the stable-labels check, the same deliberate per-row cost the
    scorer carries.
    """

    def __init__(self, init_centers: np.ndarray, n_rows: int, max_iter: int) -> None:
        if init_centers.ndim != 2 or len(init_centers) == 0:
            raise ValueError("expected non-empty (k, d) initial centers")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.centers = init_centers.astype(np.float64, copy=True)
        self.n_rows = n_rows
        self.max_iter = max_iter
        self.n_iter = 0
        self.converged = False
        self._prev_labels: np.ndarray | None = None
        self._labels = np.empty(n_rows, dtype=np.int64)
        self._in_pass = False

    @property
    def k(self) -> int:
        return len(self.centers)

    def wants_pass(self) -> bool:
        """True while another pass would still change anything."""
        return not self.converged and self.n_iter < self.max_iter

    def _begin_pass(self) -> None:
        k, d = self.centers.shape
        self._sums = np.zeros((k, d), dtype=np.float64)
        self._counts = np.zeros(k, dtype=np.int64)
        self._cand_dist = np.empty(0, dtype=np.float64)
        self._cand_rows = np.empty(0, dtype=np.int64)
        self._cand_points = np.empty((0, d), dtype=np.float64)
        self._filled = 0
        self._in_pass = True

    def fold_batch(self, batch: np.ndarray) -> None:
        """Assign one batch against the pass's frozen centers."""
        if not self._in_pass:
            if not self.wants_pass():
                raise RuntimeError("StreamingLloyd is finished; no more passes")
            self._begin_pass()
        if len(batch) == 0:
            return
        k, d = self.centers.shape
        start = self._filled
        labels, assigned, _ = assign_points(batch, self.centers)
        self._labels[start : start + len(batch)] = labels
        for j in range(d):
            self._sums[:, j] += np.bincount(labels, weights=batch[:, j], minlength=k)
        self._counts += np.bincount(labels, minlength=k)
        # Bounded global-farthest tracking: k candidates survive the
        # merge, enough to reseed every possible empty cluster with
        # exactly the rows a whole-array farthest_rows would pick.
        take = farthest_rows(assigned, min(k, len(batch)))
        self._cand_dist = np.concatenate([self._cand_dist, assigned[take]])
        self._cand_rows = np.concatenate([self._cand_rows, start + take])
        self._cand_points = np.concatenate([self._cand_points, batch[take]])
        order = np.lexsort((-self._cand_rows, -self._cand_dist))[:k]
        self._cand_dist = self._cand_dist[order]
        self._cand_rows = self._cand_rows[order]
        self._cand_points = self._cand_points[order]
        self._filled = start + len(batch)

    def end_pass(self) -> None:
        """Reseed empties, update centers, check convergence."""
        if not self._in_pass:
            raise RuntimeError("end_pass without a started pass")
        if self._filled != self.n_rows:
            raise ValueError(
                f"pass covered {self._filled} rows, expected {self.n_rows}"
            )
        self._in_pass = False
        self.n_iter += 1
        # Empty-cluster reseeding, mirroring reseed_empty_clusters:
        # ascending empty ids take the farthest candidates in order,
        # the chosen rows are relabeled so the center update sees them
        # in their new cluster.
        empties = np.flatnonzero(self._counts == 0)
        reseeded = len(empties) > 0
        for cluster, j in zip(empties, range(len(self._cand_rows))):
            row = self._cand_rows[j]
            point = self._cand_points[j]
            old = self._labels[row]
            self._sums[old] -= point
            self._counts[old] -= 1
            self._sums[cluster] += point
            self._counts[cluster] += 1
            self._labels[row] = cluster
            self.centers[cluster] = point
        if self._prev_labels is not None and np.array_equal(
            self._labels, self._prev_labels
        ):
            self.converged = True
            return
        self._prev_labels, self._labels = self._labels, (
            self._prev_labels
            if self._prev_labels is not None
            else np.empty(self.n_rows, dtype=np.int64)
        )
        previous = self.centers
        denom = np.where(self._counts > 0, self._counts, 1)
        means = self._sums / denom[:, None]
        self.centers = np.where(
            self._counts[:, None] > 0, means, previous
        )
        if not reseeded and np.array_equal(self.centers, previous):
            self.converged = True


class FrozenScorer:
    """Score a stream against frozen centers, accumulating BIC inputs.

    One pass after fitting: per-batch assignment (shared kernel), with
    running SSE, per-cluster counts, full label vector, and the
    per-cluster representative — the member row nearest its center,
    ties toward the lowest global row, matching the exact path's
    :meth:`~repro.stats.kmeans.Clustering.representatives`.

    The label vector is the one deliberately ``O(n)`` output (int64
    per row); everything downstream of the paper's methodology needs
    per-interval cluster membership, and 8 bytes/row is a different
    regime from the 69-column float64 matrix the exact path holds.
    """

    def __init__(self, centers: np.ndarray, n_rows: int) -> None:
        self.centers = centers
        self.labels = np.empty(n_rows, dtype=np.int64)
        self.sse = 0.0
        self.counts = np.zeros(len(centers), dtype=np.int64)
        self.rep_rows = np.full(len(centers), -1, dtype=np.int64)
        self._rep_dist = np.full(len(centers), np.inf)
        self._filled = 0

    def score_batch(self, batch: np.ndarray) -> np.ndarray:
        """Assign one batch; returns the batch's labels."""
        if len(batch) == 0:
            return np.empty(0, dtype=np.int64)
        start = self._filled
        k = len(self.centers)
        labels, assigned, _ = assign_points(batch, self.centers)
        self.labels[start : start + len(batch)] = labels
        self.sse += float(np.square(assigned).sum())
        batch_counts = np.bincount(labels, minlength=k)
        self.counts += batch_counts
        # Representative update: within the batch, lexsort on (label,
        # distance, row) puts each cluster's nearest member first with
        # ties toward the lowest row; across batches, strict < keeps
        # the earlier (lower global row) winner on equal distance.
        order = np.lexsort((np.arange(len(batch)), assigned, labels))
        sorted_labels = labels[order]
        positions = np.searchsorted(sorted_labels, np.arange(k), side="left")
        firsts = order[np.minimum(positions, len(batch) - 1)]
        better = (batch_counts > 0) & (assigned[firsts] < self._rep_dist)
        self.rep_rows[better] = start + firsts[better]
        self._rep_dist[better] = assigned[firsts[better]]
        self._filled = start + len(batch)
        return labels

    def bic(self, d: int) -> float:
        """BIC of the scored stream (requires the full stream seen)."""
        return bic_from_stats(self._filled, d, self.sse, self.counts)
