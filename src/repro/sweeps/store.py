"""Content-addressed on-disk cache for sweep results.

Every cache entry is keyed by the SHA-256 of a canonical JSON encoding of
*what produced it* — for a unit result, the full serialized spec plus the
repeat index — so a cache hit is exactly "this computation already ran":
specs that differ in any field hash to different entries, and entries are
shared between figures that sweep overlapping (app, workload, seed) points.

Robustness properties the scheduler relies on:

* **atomic writes** — entries are written to a temp file in the target
  directory and ``os.replace``d into place, so a killed sweep never leaves
  a half-written entry and concurrent writers of the same key can only
  produce one complete file (last writer wins, both wrote the same bytes);
* **corruption-tolerant loads** — a truncated/garbled/foreign file is a
  cache miss (counted in :attr:`SweepStore.stats`), never an exception, and
  the recomputed result simply overwrites it;
* **self-describing entries** — each file stores its own key object and is
  verified against the requested key on load, so a hash collision or a
  misplaced file cannot alias a different computation.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TYPE_CHECKING

from repro.obs.metrics import default_registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.spec import ExperimentSpec

__all__ = [
    "JsonDirectoryStore",
    "Lease",
    "LeaseNamespace",
    "SweepStore",
    "StoreStats",
    "canonical_key",
]

_FORMAT = 1

#: Queue state (leases, done markers, worker reports) lives under this
#: directory inside a store root.  Entry files live under two-hex-char
#: shards (``ab/<digest>.json``), so the queue namespace can never
#: collide with — or be globbed up as — a cache entry.
QUEUE_DIRNAME = "_queue"

# Process-global mirrors of the per-handle StoreStats counters: store
# handles come and go (one per sweep, per service state dir), the
# registry series aggregate across all of them for the /metrics scrape.
_REG = default_registry()
_STORE_HITS = _REG.counter(
    "repro_store_hits_total", "Result-store cache hits (all handles)."
)
_STORE_MISSES = _REG.counter(
    "repro_store_misses_total", "Result-store cache misses (all handles)."
)
_STORE_WRITES = _REG.counter(
    "repro_store_writes_total", "Result-store entries written (all handles)."
)
_STORE_CORRUPT = _REG.counter(
    "repro_store_corrupt_total",
    "Corrupt/foreign result-store entries treated as misses.",
)


def canonical_key(key_obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``key_obj``."""
    encoded = json.dumps(
        key_obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclass
class StoreStats:
    """Counters for one store handle (not persisted)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
        }


@dataclass
class JsonDirectoryStore:
    """A directory of content-addressed JSON entries (the raw backend).

    Knows nothing about experiments: any JSON-encodable key object maps
    to an atomic, corruption-tolerant file.  :class:`SweepStore` layers
    the experiment-aware key constructors on top; the always-on service's
    state store (:mod:`repro.service.state`) uses this class directly as
    its ``directory`` backend, so both persistence planes share one
    on-disk format and one robustness contract.
    """

    root: Path
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key_obj: Any) -> Path:
        digest = canonical_key(key_obj)
        return self.root / digest[:2] / f"{digest}.json"

    # -- raw payload access ------------------------------------------------------
    def get_raw(self, key_obj: Any) -> Any | None:
        """The stored payload for ``key_obj``, or None on miss/corruption."""
        path = self.path_for(key_obj)
        try:
            entry = json.loads(path.read_text())
        except FileNotFoundError:
            self.stats.misses += 1
            _STORE_MISSES.inc()
            return None
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            _STORE_CORRUPT.inc()
            _STORE_MISSES.inc()
            return None
        # A foreign/garbled-but-valid-JSON file is also just a miss.
        if (
            not isinstance(entry, dict)
            or "payload" not in entry
            or canonical_key(entry.get("key")) != canonical_key(key_obj)
        ):
            self.stats.corrupt += 1
            self.stats.misses += 1
            _STORE_CORRUPT.inc()
            _STORE_MISSES.inc()
            return None
        self.stats.hits += 1
        _STORE_HITS.inc()
        return entry["payload"]

    def put_raw(self, key_obj: Any, payload: Any) -> Path:
        """Atomically persist ``payload`` under ``key_obj``."""
        path = self.path_for(key_obj)
        _write_json_replace(
            path, {"format": _FORMAT, "key": key_obj, "payload": payload}
        )
        self.stats.writes += 1
        _STORE_WRITES.inc()
        return path

    # -- maintenance -------------------------------------------------------------
    def entry_paths(self) -> list[Path]:
        return sorted(self.root.glob("??/*.json"))

    def __len__(self) -> int:
        return len(self.entry_paths())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        paths = self.entry_paths()
        for path in paths:
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        return len(paths)

    # -- queue namespace ---------------------------------------------------------
    def queue_root(self, plan_id: str) -> Path:
        """The coordination directory of one distributed plan.

        Holds ``leases/``, ``done/`` and ``workers/`` subdirectories —
        the claim state :mod:`repro.sweeps.distributed` layers over the
        cache entries.  Disjoint from the entry shards by construction.
        """
        return self.root / QUEUE_DIRNAME / plan_id


def _write_json_replace(path: Path, payload: Any) -> None:
    """Atomically (re)write ``path`` with a JSON payload.

    The temp file lives in the target directory and is fsynced before
    the ``os.replace``, so a reader never observes a half-written file
    and concurrent writers leave exactly one winner's bytes.  Cache
    entries and lease files both go through here.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.stem[:16]}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, sort_keys=True, allow_nan=False)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@dataclass(frozen=True)
class Lease:
    """One worker's claim on one task: who, until when, under which token.

    The ``token`` is what makes ownership checkable: every acquisition —
    fresh or stolen — mints a new one, and renew/release only act when
    the on-disk lease still carries the caller's token.
    """

    task_id: str
    worker: str
    token: str
    expires: float
    acquired: float
    renewals: int = 0
    stolen_from: str | None = None

    @property
    def stolen(self) -> bool:
        return self.stolen_from is not None

    def to_dict(self) -> dict[str, Any]:
        return {
            "task": self.task_id,
            "worker": self.worker,
            "token": self.token,
            "expires": self.expires,
            "acquired": self.acquired,
            "renewals": self.renewals,
            "stolen_from": self.stolen_from,
        }


@dataclass
class LeaseNamespace:
    """Atomic lease files over a shared directory (one file per task).

    The claim protocol needs only two filesystem guarantees — exclusive
    create (``O_CREAT|O_EXCL``) and atomic rename — both of which hold on
    local filesystems and NFSv4-style shared mounts:

    * **fresh claim** — exclusively create ``<task_id>.json``; losing the
      race means another worker holds the task;
    * **takeover** — an *expired* (or corrupt-and-stale) lease is replaced
      via temp-file + ``os.replace``, then re-read: only the worker whose
      token survived the rename proceeds;
    * **renewal/release** — read-verify the token first, so a worker that
      lost its lease to a steal cannot silently extend or delete the
      thief's claim.

    Leases are an *optimization*, not a correctness mechanism: in the
    worst interleavings two workers may both believe they own a task and
    compute it twice, but every result lands in the content-addressed
    store under the same key with identical bytes, so duplicated work can
    never corrupt a sweep.  Expiry compares wall-clock timestamps across
    workers, so multi-host fleets need loosely synchronized clocks (NTP
    drift ≪ the TTL).
    """

    root: Path

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, task_id: str) -> Path:
        return self.root / f"{task_id}.json"

    def read(self, task_id: str) -> dict[str, Any] | None:
        """The current lease record, or None (absent or unreadable)."""
        try:
            data = json.loads(self.path_for(task_id).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        return data if isinstance(data, dict) else None

    def _fresh_by_mtime(self, task_id: str, ttl: float, now: float) -> bool:
        """Is an unreadable lease file young enough to be an in-flight write?

        A reader can catch a lease between exclusive create and content
        write; treating every unreadable file as stale would steal claims
        that are microseconds old.  An unreadable file older than one TTL
        really is garbage.
        """
        try:
            mtime = self.path_for(task_id).stat().st_mtime
        except OSError:
            return False
        return mtime > now - max(ttl, 1e-9)

    def acquire(
        self,
        task_id: str,
        worker: str,
        ttl: float,
        *,
        now: float | None = None,
    ) -> Lease | None:
        """Try to claim ``task_id``; returns the lease or None if held.

        A lease whose expiry has passed is taken over (``Lease.stolen``
        is set on the result).  ``ttl`` ≤ 0 makes every lease instantly
        stale — useful in tests, never in production.
        """
        now = time.time() if now is None else now
        lease = Lease(
            task_id=task_id,
            worker=worker,
            token=uuid.uuid4().hex,
            expires=now + ttl,
            acquired=now,
        )
        path = self.path_for(task_id)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            current = self.read(task_id)
            if current is not None:
                if float(current.get("expires", 0.0)) > now:
                    return None  # live claim by someone else
                holder = current.get("worker")
            else:
                if self._fresh_by_mtime(task_id, ttl, now):
                    return None  # probably an in-flight fresh claim
                holder = None
            lease = Lease(**{**lease.__dict__, "stolen_from": holder})
            _write_json_replace(path, lease.to_dict())
            after = self.read(task_id)
            if after is not None and after.get("token") == lease.token:
                return lease
            return None  # lost the takeover race to another stealer
        with os.fdopen(fd, "w") as fh:
            json.dump(lease.to_dict(), fh, sort_keys=True, allow_nan=False)
            fh.flush()
            os.fsync(fh.fileno())
        return lease

    def renew(
        self, lease: Lease, ttl: float, *, now: float | None = None
    ) -> Lease | None:
        """Extend a held lease; returns the renewed lease or None if lost."""
        now = time.time() if now is None else now
        current = self.read(lease.task_id)
        if current is None or current.get("token") != lease.token:
            return None
        renewed = Lease(
            **{
                **lease.__dict__,
                "expires": now + ttl,
                "renewals": lease.renewals + 1,
            }
        )
        _write_json_replace(self.path_for(lease.task_id), renewed.to_dict())
        return renewed

    def release(self, lease: Lease) -> bool:
        """Drop a held lease; returns False if it was no longer ours."""
        current = self.read(lease.task_id)
        if current is None or current.get("token") != lease.token:
            return False
        try:
            self.path_for(lease.task_id).unlink()
        except FileNotFoundError:
            pass
        return True


@dataclass
class SweepStore(JsonDirectoryStore):
    """A directory of content-addressed JSON cache entries."""

    # -- key construction --------------------------------------------------------
    @staticmethod
    def unit_key(spec: "ExperimentSpec", repeat: int) -> dict[str, Any]:
        """The cache key of one (spec, repeat) unit result.

        Fields that don't influence the unit's computation are excluded
        so grids sweeping the same physical point share entries:
        ``name`` is cosmetic, and ``repeats`` only bounds the repeat
        index (repeat ``r`` is fully determined by ``seed + r``), so a
        3-repeat and a 5-repeat sweep of the same base share their
        common units.
        """
        spec_data = spec.to_dict()
        spec_data.pop("name", None)
        spec_data.pop("repeats", None)
        return {
            "kind": "unit",
            "format": _FORMAT,
            "spec": spec_data,
            "repeat": int(repeat),
        }

    @staticmethod
    def optimum_key(
        app: str, workload: float, restarts: int
    ) -> dict[str, Any]:
        """The cache key of one OPTM search (see ``optimum_total``)."""
        return {
            "kind": "optimum",
            "format": _FORMAT,
            "app": app,
            "workload": round(float(workload), 6),
            "restarts": int(restarts),
        }

    # -- unit results ------------------------------------------------------------
    def get_result(
        self, spec: "ExperimentSpec", repeat: int
    ) -> dict[str, Any] | None:
        """A stored unit run history (``loop_result_to_dict`` form) or None."""
        payload = self.get_raw(self.unit_key(spec, repeat))
        if payload is not None and not (
            isinstance(payload, dict) and isinstance(payload.get("records"), list)
        ):
            # Structurally wrong payload: treat as corruption, recompute.
            # (The global counters are monotonic, so only the per-handle
            # hit tally is rolled back.)
            self.stats.hits -= 1
            self.stats.misses += 1
            self.stats.corrupt += 1
            _STORE_CORRUPT.inc()
            _STORE_MISSES.inc()
            return None
        return payload

    def put_result(
        self, spec: "ExperimentSpec", repeat: int, result: dict[str, Any]
    ) -> Path:
        return self.put_raw(self.unit_key(spec, repeat), result)
