"""Result caching for expensive experiment artifacts.

The training campaign and the 54-workload sweeps cost minutes; every
figure bench reuses them.  Artifacts are pickled under a cache
directory keyed by a content hash of (artifact name, parameters,
calibration tag), so a physics recalibration invalidates stale
results.

Writes are multi-process safe: each writer dumps to a temp file whose
name embeds its PID (two processes building the same key can never
clobber each other's half-written bytes) and publishes it with the
atomic ``os.replace``.  Concurrent builders of one key race benignly
-- last publish wins, and every publish holds the same deterministic
artifact.

Set ``REPRO_CACHE_DIR`` to relocate the cache, or ``REPRO_NO_CACHE=1``
to disable it entirely (tests that must re-compute use the latter).
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Any, Callable

#: Bump when the simulator's physics calibration changes; invalidates
#: every cached artifact.  v11: online prediction moved onto the
#: batch-size-invariant vectorized kernel (per-row pairwise sums
#: instead of BLAS matmul), shifting predictions by ~1 ulp and thus
#: potentially any cached governor decision downstream.
CALIBRATION_TAG = "dora-repro-v11"

#: Pinned hash of every model-affecting constant (leakage parameters,
#: Table-I layout, DVFS tables and piecewise knots, prediction floors,
#: power/thermal coefficients, campaign defaults); computed by
#: :func:`repro.experiments.fingerprint.model_fingerprint`.  Whenever
#: the computed value drifts from this pin, the change altered model
#: behaviour: bump :data:`CALIBRATION_TAG` and re-pin in the same
#: commit (``tests/experiments/test_fingerprint.py`` enforces this;
#: rule R006 of ``repro.analysis`` forbids runtime mutation).
CALIBRATION_FINGERPRINT = "838f80e01341286c"


def cache_dir() -> Path:
    """The cache directory (created on demand)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        path = Path(root)
    else:
        path = Path(__file__).resolve().parents[3] / ".cache" / "repro"
    path.mkdir(parents=True, exist_ok=True)
    return path


def cache_enabled() -> bool:
    """Whether caching is active."""
    return os.environ.get("REPRO_NO_CACHE", "") != "1"


def _key_digest(name: str, key: Any) -> str:
    payload = repr((CALIBRATION_TAG, name, key)).encode()
    return hashlib.sha1(payload).hexdigest()[:16]


def artifact_path(name: str, key: Any) -> Path:
    """Where the artifact for (name, key) lives on disk."""
    return cache_dir() / f"{name}-{_key_digest(name, key)}.pkl"


def peek(name: str, key: Any) -> tuple[bool, Any]:
    """Load the cached artifact for (name, key) without building.

    Returns:
        ``(True, value)`` on a hit; ``(False, None)`` when the cache
        is disabled, the artifact is absent, or it fails to unpickle
        (the corrupt file is removed so the next build replaces it).
        Any exception raised while loading counts as a miss: besides
        truncated or garbled bytes, a stale artifact whose class moved
        modules raises ``ModuleNotFoundError``, and keeping that file
        would fail every later run the same way.
    """
    if not cache_enabled():
        return False, None
    path = artifact_path(name, key)
    if not path.exists():
        return False, None
    try:
        with path.open("rb") as handle:
            return True, pickle.load(handle)
    except Exception:  # noqa: BLE001 - any unloadable artifact is a miss
        path.unlink(missing_ok=True)
        return False, None


def store(name: str, key: Any, artifact: Any) -> None:
    """Atomically publish an artifact for (name, key).

    The temp name embeds the writer's PID so concurrent writers of the
    same key never interleave bytes; ``os.replace`` makes the publish
    atomic on POSIX and Windows alike.
    """
    if not cache_enabled():
        return
    path = artifact_path(name, key)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as handle:
            pickle.dump(artifact, handle)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def memoized(name: str, key: Any, builder: Callable[[], Any]) -> Any:
    """Return the cached artifact for (name, key), building if absent.

    Args:
        name: Artifact family (e.g. ``"trained-models"``).
        key: Hashable-by-repr parameter description.
        builder: Zero-argument function producing the artifact.
    """
    if not cache_enabled():
        return builder()
    hit, value = peek(name, key)
    if hit:
        return value
    artifact = builder()
    store(name, key, artifact)
    return artifact


def clear() -> int:
    """Delete every cached artifact (and orphaned temp files).

    Returns:
        The number of artifacts removed (temp orphans not counted).
    """
    removed = 0
    for path in cache_dir().glob("*.pkl"):
        path.unlink(missing_ok=True)
        removed += 1
    for orphan in cache_dir().glob("*.tmp"):
        orphan.unlink(missing_ok=True)
    return removed
