"""Content-addressed result store over a pluggable object backend.

Layout under a *filesystem* store root::

    manifest.jsonl           # append-only index cache: one entry/line
    .lock                    # flock serializing manifest writes
    objects/ab/abcdef...json # one envelope per artifact
    quarantine/              # poisoned envelopes, kept for forensics
    leases/                  # fabric work-lease ledger (raw blobs)

An object's file name is the SHA-256 of the canonical JSON of its
*key payload* -- a dict carrying the artifact kind, schema version,
experiment, scale, seed and condition config -- so logically identical
requests land on the same entry across invocations and processes.

The store's byte-level I/O goes through a
:class:`repro.store.backend.StoreBackend`: :class:`FsBackend` is the
local directory layout above; :class:`repro.fabric.remote.HttpBackend`
speaks the same five primitives to a shared object service
(``repro store serve``), which is how N hosts share one store.  All
envelope semantics -- checksums, schema staleness, quarantine -- are
backend-independent and live here.

Each ``put`` serializes its artifact in one pass
(:mod:`repro.store.serialize`): the body is walked once into a small
JSON skeleton plus the base64 bytes of its arrays; the C ``json``
encoder emits the skeleton twice -- sorted keys for the body
checksum, streamed into SHA-256, and insertion order for the envelope
-- and the payload bytes are spliced in verbatim.  Base64 needs no
JSON escaping, so the envelope is byte-for-byte what ``json.dumps``
of the encoded envelope would be, and a multi-megabyte DTA
characterization is never scanned as a Python ``str``.  ``get``
verifies the checksum with the same hasher.

Robustness rules:

* Writes are **atomic**: the envelope is written to a temp file in the
  same directory and ``os.replace``d into place (the HTTP service does
  the same server-side), so a killed campaign never leaves a
  half-written (and thus poisoned) entry.
* Reads are **paranoid**: an entry whose JSON does not parse, whose
  embedded key does not canonically match the request, whose artifact
  body fails its stored checksum, or whose schema version is stale is
  treated as a miss (never returned).  Corrupt objects are never
  silently skipped: they are **quarantined** -- moved to
  ``quarantine/`` under the store root with a logged reason -- so the
  caller recomputes and the forensic evidence survives until ``gc``
  reclaims it (after :data:`~ResultStore.TEMP_GRACE_S`, under
  ``--max-bytes`` pressure, or on ``--all``).
* Writes are **durable**: the object temp file and the manifest are
  fsynced (plus the containing directory after the rename), so an
  acknowledged ``put`` survives a crash of the machine, not only of
  the process.  ``REPRO_STORE_NO_FSYNC=1`` trades that away for speed.
* Transient ``OSError``s on the write path are retried with bounded
  exponential backoff and deterministic seeded jitter
  (:class:`repro.store.retry.RetryPolicy`; budget via
  ``REPRO_STORE_RETRIES`` / ``REPRO_STORE_BACKOFF_S``).
* The manifest is only an index *cache* and is append-only on the hot
  path: each ``put`` appends one line under an exclusive ``flock``
  (O(1), no read-modify-write for fork workers to corrupt); ``ls``
  skips unparsable lines, drops entries whose object vanished, and
  rebuilds the whole file from the objects directory -- the source of
  truth -- whenever it is missing.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro import faults, obs
from repro.store.backend import FsBackend, StoreBackend, fsync_dir, \
    fsync_enabled
from repro.store.retry import RetryPolicy
from repro.store.schema import artifact_from_json, artifact_to_json, \
    current_schema
from repro.store.serialize import canonical_json, digest, dump, \
    key_hash, skeleton

try:
    import fcntl
except ImportError:  # pragma: no cover - non-posix fallback
    fcntl = None

FORMAT = "repro-store/1"

_LOG = logging.getLogger("repro.store")


@dataclass(frozen=True)
class StoreEntry:
    """One manifest row describing a stored artifact."""

    sha256: str
    kind: str
    schema: int
    experiment: str
    label: str
    created_unix: float
    n_bytes: int


def default_root() -> Path:
    """Store location used by the CLI when ``--store`` is not given.

    ``REPRO_STORE`` overrides; otherwise the XDG cache directory.
    """
    env = os.environ.get("REPRO_STORE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-store"


class ResultStore:
    """Content-addressed artifact store over an object backend."""

    def __init__(self, root: str | Path | None = None, *,
                 backend: StoreBackend | None = None):
        if backend is None:
            if root is None:
                raise ValueError("ResultStore needs a root or a backend")
            backend = FsBackend(root)
        self.backend = backend
        self.retry = RetryPolicy.from_env()
        self._fs = backend if isinstance(backend, FsBackend) else None
        if self._fs is not None:
            self.root: Path | str = self._fs.root
            self.objects = self._fs.root / "objects"
            self.quarantine_dir = self._fs.root / "quarantine"
            self.manifest_path = self._fs.root / "manifest.jsonl"
            self.objects.mkdir(parents=True, exist_ok=True)
        else:
            self.root = backend.describe()
            self.objects = None
            self.quarantine_dir = None
            self.manifest_path = None

    @classmethod
    def default(cls) -> "ResultStore":
        return cls(default_root())

    @classmethod
    def remote(cls, url: str, **backend_kwargs) -> "ResultStore":
        """A store served over HTTP by ``repro store serve``."""
        from repro.fabric.remote import HttpBackend
        return cls(backend=HttpBackend(url, **backend_kwargs))

    # -- keys and paths --------------------------------------------------

    @staticmethod
    def key_of(payload: dict) -> str:
        """SHA-256 content address of a key payload."""
        return key_hash(payload)

    @staticmethod
    def _object_name(sha: str) -> str:
        return f"objects/{sha[:2]}/{sha}.json"

    def _object_path(self, sha: str) -> Path:
        assert self.objects is not None, "fs-only operation"
        return self.objects / sha[:2] / f"{sha}.json"

    # -- core operations -------------------------------------------------

    def put(self, key_payload: dict, artifact, label: str = "",
            if_absent: bool = False) -> str:
        """Store an artifact under its key; returns the content hash.

        The envelope lands atomically, then the manifest index is
        updated under the store lock (filesystem backends; the HTTP
        service maintains its own root).  With ``if_absent`` the write
        is conditional: an existing entry is left untouched -- the
        fabric's duplicate-compute suppression.
        """
        kind = key_payload["kind"]
        with obs.span("store.put", kind=kind):
            sha = self.key_of(key_payload)
            body = skeleton(artifact_to_json(kind, artifact))
            envelope = {
                "format": FORMAT,
                "sha256": sha,
                "label": label,
                "created_unix": time.time(),
                "key": json.loads(canonical_json(key_payload)),
                "artifact": body,
                # Body checksum, verified on get(): detects torn or
                # bit-rotted artifact bodies behind a parseable
                # envelope.
                "body_sha256": digest(body),
            }
            name = self._object_name(sha)
            data = b"".join(dump(envelope))
            self._retry("object write",
                        lambda: self._write_object(name, data,
                                                   if_absent=if_absent))
            if self._fs is not None:
                entry = self._entry_of(envelope, len(data))
                self._retry("manifest append",
                            lambda: self._manifest_add(entry))
            obs.counter("store.put_bytes", len(data))
        return sha

    def _write_object(self, name: str, data: bytes, *,
                      if_absent: bool = False) -> None:
        mode = faults.fire("store.object_write")
        if mode == "oserror":
            raise OSError(
                "injected transient OSError at store.object_write")
        if mode == "torn":
            # An acknowledged-but-torn write: the atomic machinery runs,
            # but half the payload is lost.  get() must catch this via
            # parse/checksum failure and quarantine the object.
            data = data[:len(data) // 2]
        self.backend.write(name, data, if_absent=if_absent)

    def _retry(self, what: str, func):
        """Run a write-path step, absorbing transient OSErrors."""
        return self.retry.run(what, func, log=_LOG)

    def get(self, key_payload: dict, readback: bool = False):
        """Load the artifact stored under a key, or None on any miss.

        Corrupted files, key mismatches (hash collisions, tampering),
        checksum failures and stale schema versions all read as
        misses -- and any of those found *on disk* is quarantined with
        a logged reason rather than silently skipped, so the caller's
        recompute does not re-hit the same poison.

        ``readback`` marks a read of an artifact the caller's own run
        just computed and put: a found artifact then counts as
        ``store.readback`` instead of ``store.hit``, so the hit
        counter only counts work the store actually saved.
        """
        with obs.span("store.get",
                      kind=key_payload.get("kind", "")) as rec:
            artifact = self._get(key_payload)
            hit = artifact is not None
            rec.set(hit=hit)
        if not hit:
            obs.counter("store.miss")
        else:
            obs.counter("store.readback" if readback else "store.hit")
        return artifact

    def _get(self, key_payload: dict):
        kind = key_payload.get("kind", "")
        try:
            if key_payload.get("schema") != current_schema(kind):
                return None  # stale-schema request: never served
        except KeyError:
            return None
        name = self._object_name(self.key_of(key_payload))
        data = self.backend.read(name)
        if data is None:
            return None
        if faults.fire("store.object_read") == "corrupt":
            self._quarantine(name, "injected read corruption")
            return None
        envelope = self._parse_envelope(data)
        if envelope is None:
            self._quarantine(name, "unreadable or malformed envelope")
            return None
        if canonical_json(envelope["key"]) != canonical_json(key_payload):
            self._quarantine(name, "embedded key mismatches address")
            return None
        body_sha = envelope.get("body_sha256")
        if body_sha is not None \
                and key_hash(envelope["artifact"]) != body_sha:
            self._quarantine(name, "artifact body checksum mismatch")
            return None
        try:
            return artifact_from_json(kind, envelope["artifact"])
        except Exception as error:
            self._quarantine(name,
                             f"artifact body failed to decode: {error}")
            return None

    def contains(self, key_payload: dict) -> bool:
        """Whether a valid-looking entry exists for a key.

        Envelope-level check only (format, key match, schema): unlike
        :meth:`get` it does not decode the artifact body, so scanning
        a large campaign for pending units stays cheap.  A corrupted
        artifact body behind a valid envelope still reads as a miss in
        :meth:`get`; callers that need the artifact must handle that.
        """
        kind = key_payload.get("kind", "")
        try:
            if key_payload.get("schema") != current_schema(kind):
                return False
        except KeyError:
            return False
        name = self._object_name(self.key_of(key_payload))
        data = self.backend.read(name)
        if data is None:
            return False
        envelope = self._parse_envelope(data)
        if envelope is None:
            self._quarantine(name, "unreadable or malformed envelope")
            return False
        if canonical_json(envelope["key"]) != canonical_json(key_payload):
            self._quarantine(name, "embedded key mismatches address")
            return False
        return True

    def delete(self, key_payload: dict) -> bool:
        """Remove the entry stored under a key; True if one existed.

        The stale manifest line is filtered by ``ls`` on its next read
        (vanished objects never surface), so no index rewrite is
        needed here.
        """
        return self.backend.delete(
            self._object_name(self.key_of(key_payload)))

    def _quarantine(self, name: str, reason: str) -> None:
        """Move a corrupt object aside, keeping it for forensics."""
        if not self.backend.quarantine(name, reason):
            return  # already gone (e.g. a racing reader moved it)
        obs.counter("store.quarantine")
        _LOG.warning("quarantined corrupt store object %s: %s",
                     name.rsplit("/", 1)[-1], reason)

    # -- manifest index --------------------------------------------------

    def ls(self) -> list[StoreEntry]:
        """All live entries, oldest first (from the manifest index).

        Unparsable manifest lines (e.g. a line torn by a kill mid-
        append) are skipped; entries whose object file is gone are
        dropped; a missing manifest is rebuilt from the objects
        directory.  The manifest is also reconciled against the
        objects directory -- the source of truth -- whenever an
        on-disk object has no manifest line (a writer killed between
        the object ``os.replace`` and the manifest append in ``put``
        leaves exactly that state): the rebuild re-indexes every live
        object, so ``ls`` never under-reports what ``get`` serves.
        A dead on-disk object (stale schema, corrupted envelope) keeps
        triggering the reconcile scan until ``gc`` reclaims it --
        correctness over speed.

        A *remote* store has no local manifest: the listing is built
        by enumerating the service's objects and reading each envelope
        (diagnostics-grade, not a hot path).
        """
        if self._fs is None:
            return self._ls_remote()
        if not self.manifest_path.exists():
            entries = self.rebuild_manifest()
        else:
            entries = {}
            for line in self.manifest_path.read_text().splitlines():
                try:
                    row = json.loads(line)
                    entry = StoreEntry(**row)
                except (json.JSONDecodeError, TypeError):
                    continue
                if self._object_path(entry.sha256).exists():
                    entries[entry.sha256] = entry
            on_disk = {path.stem for path in self.objects.glob("*/*.json")}
            if on_disk - set(entries):
                entries = self.rebuild_manifest()
        return sorted(entries.values(),
                      key=lambda entry: entry.created_unix)

    def _ls_remote(self) -> list[StoreEntry]:
        entries: list[StoreEntry] = []
        for stat in self.backend.list("objects/"):
            data = self.backend.read(stat.name)
            if data is None:
                continue
            envelope = self._parse_envelope(data)
            if envelope is None:
                continue
            entries.append(self._entry_of(envelope, stat.size))
        return sorted(entries, key=lambda entry: entry.created_unix)

    def rebuild_manifest(self) -> dict[str, StoreEntry]:
        """Regenerate the manifest by scanning the objects directory."""
        entries: dict[str, StoreEntry] = {}
        for path in sorted(self.objects.glob("*/*.json")):
            envelope = self._read_envelope(path)
            if envelope is None or not self._self_consistent(envelope,
                                                             path):
                continue
            try:
                size = path.stat().st_size
            except OSError:
                continue
            entry = self._entry_of(envelope, size)
            entries[entry.sha256] = entry
        text = "".join(json.dumps(entry.__dict__, sort_keys=True) + "\n"
                       for entry in entries.values())
        with self._lock():
            self._atomic_write(self.manifest_path, text)
        return entries

    # -- garbage collection ----------------------------------------------

    #: Temp files *and quarantined objects* younger than this are left
    #: alone by the default ``gc`` pass: a young temp file may belong
    #: to a live writer mid-``_atomic_write``, and young quarantine is
    #: forensic evidence someone may still want to inspect.
    TEMP_GRACE_S = 3600.0

    def gc(self, *, remove_all: bool = False,
           kinds: tuple[str, ...] | None = None,
           max_bytes: int | None = None,
           pin_kinds: tuple[str, ...] = ()) -> tuple[int, int]:
        """Reclaim store space; returns (entries removed, bytes freed).

        The default pass removes only *dead* data: unparsable or
        self-inconsistent envelopes, entries with a stale schema
        version, temp files abandoned by killed writers and
        quarantined objects that have outlived their forensic value
        (both older than :data:`TEMP_GRACE_S`; younger temp files may
        belong to an in-flight atomic write of a concurrent campaign
        worker).  ``remove_all`` drops every entry (optionally
        restricted to ``kinds``) and empties the quarantine.

        ``max_bytes`` adds a size-capped LRU pass *after* the
        dead-data reclaim: while the surviving objects still exceed
        the cap, entries are evicted -- and only until the total drops
        to the cap, never below it, so a gc racing a live campaign
        reclaims the minimum necessary (evicted entries are recomputed
        on their next resolve; everything newer stays a hit).
        Quarantined objects **count toward the cap** and are reclaimed
        first, oldest first -- poisoned evidence is never worth a live
        entry's eviction.

        ``pin_kinds`` weights the LRU pass by recompute cost: entries
        of a pinned kind (e.g. ``alu_characterization``, whose 1.5 MB
        tables cost a full DTA sweep to rebuild) are evicted only
        after every unpinned entry is gone -- age order within each
        class.  The cap stays *hard*: when the pinned entries alone
        exceed ``max_bytes`` (including a cap smaller than the largest
        single pinned entry), pinned entries are evicted too, oldest
        first, until the store fits.
        """
        if self._fs is None:
            raise RuntimeError(
                "gc runs on the service host against its store root, "
                "not through the HTTP backend")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        with obs.span("store.gc", remove_all=remove_all) as rec:
            removed, freed = self._gc(remove_all=remove_all,
                                      kinds=kinds, max_bytes=max_bytes,
                                      pin_kinds=pin_kinds)
            rec.set(removed=removed, freed_bytes=freed)
        return removed, freed

    def _gc(self, *, remove_all: bool,
            kinds: tuple[str, ...] | None,
            max_bytes: int | None,
            pin_kinds: tuple[str, ...]) -> tuple[int, int]:
        removed = 0
        freed = 0
        cutoff = time.time() - self.TEMP_GRACE_S
        temp_files = list(self.objects.glob("*/.tmp-*")) \
            + list(self.root.glob(".tmp-*"))  # manifest rebuild temps
        for path in temp_files:
            try:
                stat = path.stat()
                if stat.st_mtime >= cutoff:
                    continue
                path.unlink()
            except OSError:
                continue  # renamed/removed by its writer meanwhile
            freed += stat.st_size
            removed += 1
        # Eviction candidates: (rank, age, path, size).  Rank orders
        # the classes -- quarantine (0) before unpinned live entries
        # (1) before pinned ones (2) -- and the byte-cap pass walks
        # them in sorted order.
        candidates: list[tuple[int, float, Path, int]] = []
        if self.quarantine_dir.exists():
            for path in sorted(self.quarantine_dir.iterdir()):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                if remove_all and kinds is None \
                        or stat.st_mtime < cutoff:
                    try:
                        path.unlink()
                    except OSError:
                        continue
                    removed += 1
                    freed += stat.st_size
                else:
                    candidates.append((0, stat.st_mtime, path,
                                       stat.st_size))
        for path in sorted(self.objects.glob("*/*.json")):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            envelope = self._read_envelope(path)
            dead = envelope is None \
                or not self._self_consistent(envelope, path) \
                or self._stale(envelope)
            kind = (envelope or {}).get("key", {}).get("kind")
            if remove_all and (kinds is None or kind in kinds):
                dead = True
            if dead:
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += 1
                freed += size
            else:
                candidates.append((
                    2 if kind in pin_kinds else 1,
                    float((envelope or {}).get("created_unix", 0.0)),
                    path, size))
        if max_bytes is not None:
            evicted, evicted_bytes = self._evict_lru(candidates,
                                                     max_bytes)
            removed += evicted
            freed += evicted_bytes
        self.rebuild_manifest()
        return removed, freed

    def _evict_lru(self, candidates: list[tuple[int, float, Path, int]],
                   max_bytes: int) -> tuple[int, int]:
        """Evict candidates until the total fits ``max_bytes``.

        ``candidates`` carries (rank, age, path, size) of every
        surviving object -- quarantined files, then unpinned live
        entries, then pinned ones; the sort order (rank, oldest first
        within each rank, path as the deterministic tie-break) *is*
        the eviction order.  Eviction stops the moment the running
        total is at or under the cap.
        """
        total = sum(size for _, _, _, size in candidates)
        removed = 0
        freed = 0
        for _, _, path, size in sorted(candidates):
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue  # already reclaimed by a concurrent gc
            total -= size
            removed += 1
            freed += size
        return removed, freed

    # -- internals -------------------------------------------------------

    @staticmethod
    def _atomic_write(path: Path, text: str) -> None:
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=path.parent)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
                if fsync_enabled():
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
            if fsync_enabled():
                # Persist the rename itself: without the directory
                # fsync a machine crash can roll back an acknowledged
                # write even though the file data hit the platter.
                fsync_dir(path.parent)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def _parse_envelope(cls, data: bytes) -> dict | None:
        try:
            envelope = json.loads(data.decode())
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(envelope, dict) \
                or envelope.get("format") != FORMAT \
                or not isinstance(envelope.get("key"), dict) \
                or "artifact" not in envelope:
            return None
        return envelope

    @classmethod
    def _read_envelope(cls, path: Path) -> dict | None:
        try:
            data = path.read_bytes()
        except OSError:
            return None
        return cls._parse_envelope(data)

    @staticmethod
    def _self_consistent(envelope: dict, path: Path) -> bool:
        """Entry's own key must hash to its file name."""
        try:
            return key_hash(envelope["key"]) == path.stem
        except TypeError:
            return False

    @staticmethod
    def _stale(envelope: dict) -> bool:
        key = envelope["key"]
        try:
            return key.get("schema") != current_schema(key["kind"])
        except KeyError:
            return True

    @staticmethod
    def _entry_of(envelope: dict, n_bytes: int) -> StoreEntry:
        key = envelope["key"]
        return StoreEntry(
            sha256=envelope["sha256"],
            kind=key.get("kind", "?"),
            schema=int(key.get("schema", -1)),
            experiment=str(key.get("experiment", "")),
            label=str(envelope.get("label", "")),
            created_unix=float(envelope.get("created_unix", 0.0)),
            n_bytes=n_bytes,
        )

    def _manifest_add(self, entry: StoreEntry) -> None:
        """Append one index line (O(1); duplicate shas resolve to the
        newest line on read, vanished objects are filtered by ls)."""
        line = json.dumps(entry.__dict__, sort_keys=True) + "\n"
        mode = faults.fire("store.manifest_append")
        if mode == "oserror":
            raise OSError(
                "injected transient OSError at store.manifest_append")
        if mode == "torn":
            line = line[:len(line) // 2]  # killed mid-append
        with self._lock():
            with open(self.manifest_path, "a") as handle:
                handle.write(line)
                if fsync_enabled():
                    handle.flush()
                    os.fsync(handle.fileno())

    def _lock(self):
        return _FileLock(self.root / ".lock")


class _FileLock:
    """Exclusive advisory lock on a file (no-op where flock is absent)."""

    def __init__(self, path: Path):
        self._path = path
        self._handle = None

    def __enter__(self):
        if fcntl is not None:
            self._handle = open(self._path, "a+")
            fcntl.flock(self._handle, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc):
        if self._handle is not None:
            fcntl.flock(self._handle, fcntl.LOCK_UN)
            self._handle.close()
            self._handle = None
        return False
