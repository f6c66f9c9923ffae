"""Process-backend restarts read the points through the fork-inherited payload."""

import numpy as np

from repro.stats import kmeans
from repro.synth import generator


def test_process_fanout_reads_shared_payload():
    rng = np.random.default_rng(12)
    points = rng.normal(size=(300, 4))
    serial = kmeans(points, 6, restarts=4, rng=generator("shm", 1))
    forked = kmeans(
        points, 6, restarts=4, rng=generator("shm", 1), n_jobs=2, backend="process"
    )
    np.testing.assert_array_equal(forked.labels, serial.labels)
    np.testing.assert_array_equal(forked.centers, serial.centers)
    np.testing.assert_array_equal(forked.assigned_sq, serial.assigned_sq)
    assert forked.bic == serial.bic
    assert forked.inertia == serial.inertia
    assert forked.n_iter == serial.n_iter
