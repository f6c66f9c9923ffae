"""Fault injectors for the crash-safety test suite.

Shared by ``tests/io/test_faults.py`` and ``tests/core/test_resume.py``:
byte-level corruption of on-disk artifacts (truncation, bit flips, torn
writes), subprocess writers SIGKILLed at chosen points inside the
atomic-write protocol, and lock holders that die while holding an
advisory lock.  Everything is deterministic — no timing-based kills.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Optional

SRC = Path(__file__).resolve().parents[2] / "src"


def env_with_src(**extra: str) -> dict:
    """A subprocess environment that can ``import repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


def truncate_file(path: Path, keep: float = 0.5) -> None:
    """Truncate a file to ``keep`` of its size — a partial/torn write."""
    data = Path(path).read_bytes()
    Path(path).write_bytes(data[: max(1, int(len(data) * keep))])


def bit_flip(path: Path, offset: Optional[int] = None) -> None:
    """Flip one byte (default: the middle of the file) — silent bit rot."""
    raw = bytearray(Path(path).read_bytes())
    i = len(raw) // 2 if offset is None else offset
    raw[i] ^= 0xFF
    Path(path).write_bytes(bytes(raw))


_WRITER_CODE = """
import os, signal, sys
import numpy as np
from repro.io import artifacts

when = sys.argv[2]
real_replace = os.replace

def killing_replace(src, dst):
    if when == "before_replace":
        os.kill(os.getpid(), signal.SIGKILL)
    real_replace(src, dst)
    if when == "after_replace":
        os.kill(os.getpid(), signal.SIGKILL)

os.replace = killing_replace
artifacts.write_artifact(
    sys.argv[1], {"payload": np.arange(10_000)}, schema="fault-test"
)
"""


def crash_writer(path: Path, when: str = "before_replace") -> int:
    """Run ``write_artifact`` in a subprocess SIGKILLed at ``when``.

    ``before_replace`` dies with the payload fully written to the temp
    file but not yet published; ``after_replace`` dies immediately after
    publication.  Returns the subprocess's return code (-SIGKILL).
    """
    proc = subprocess.run(
        [sys.executable, "-c", _WRITER_CODE, str(path), when],
        env=env_with_src(),
        capture_output=True,
    )
    return proc.returncode


_HOLDER_CODE = """
import sys, time
from repro.io.artifacts import artifact_lock

with artifact_lock(sys.argv[1], timeout=60):
    print("HELD", flush=True)
    time.sleep(600)
"""


def spawn_lock_holder(target: Path) -> subprocess.Popen:
    """Start a subprocess holding ``artifact_lock(target)``.

    Blocks until the child confirms acquisition.  Kill it with
    :func:`kill_process` to simulate lock-holder death.
    """
    proc = subprocess.Popen(
        [sys.executable, "-c", _HOLDER_CODE, str(target)],
        env=env_with_src(),
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    if line.strip() != "HELD":
        proc.kill()
        raise RuntimeError(f"lock holder failed to start: {line!r}")
    return proc


def kill_process(proc: subprocess.Popen) -> None:
    """SIGKILL a subprocess and reap it."""
    proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def sigkill_rc() -> int:
    """The return code a SIGKILLed subprocess reports."""
    return -signal.SIGKILL
