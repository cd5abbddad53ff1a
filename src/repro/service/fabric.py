"""Distributed cache fabric: N daemons, one warm cache.

The content addresses of :mod:`repro.service.digest` are
host-independent -- a (network, clocks, config) triple digests to the
same key on every machine, and a cluster's sub-key is a function of the
sub-circuit's content alone.  This module exploits that to share warm
results *across* hosts:

* :class:`CacheServer` -- an HTTP object store exposing one
  :class:`~repro.service.cache.ResultCache` over the shared
  :class:`~repro.service.httpmon.RouteTable` stack.  ``GET``/``PUT``/
  ``HEAD`` by digest, ``repro.fabric/1`` envelopes, integrity verified
  on both ends, and **lease-based eviction**: a client naming itself in
  ``?lease=<owner>`` holds a TTL lease on the entry, and the server's
  LRU never evicts a leased entry out from under a peer that recently
  used it.
* :class:`ShardRouter` -- deterministic digest-prefix sharding over a
  static peer list (see the class docstring for the hash scheme).
* :class:`RemoteCache` -- the HTTP client side: per-request timeout,
  bounded retry with backoff, and graceful degradation (an unreachable
  peer is marked unhealthy and skipped until a periodic re-probe
  succeeds -- a dead peer costs recomputation, never a failed job).
* :class:`TieredCache` -- local L1 :class:`ResultCache` in front of a
  remote L2 :class:`RemoteCache`, implementing the ``ResultCache``
  probe/store surface so the daemon, the batch engine and the cluster
  cache all gain the fabric without call-site rewrites.  Remote hits
  are written through to L1.

Everything observable lands under ``service.fabric.*`` (see
``docs/observability.md``): remote hit/miss/store counters, a
round-trip latency histogram, a ``degraded`` gauge (number of
unhealthy peers) feeding the ``fabric.peer_down`` default alert rule.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.obs.hist import LATENCY_BUCKETS
from repro.service.cache import (
    CACHE_SCHEMA,
    CacheStats,
    ResultCache,
    _payload_sha,
)
from repro.service.httpmon import HttpRequest, RouteHTTPServer, RouteTable

__all__ = [
    "FABRIC_SCHEMA",
    "CacheServer",
    "FabricStats",
    "RemoteCache",
    "ShardRouter",
    "TieredCache",
    "load_peers",
]

#: Schema identifier of one fabric wire envelope.
FABRIC_SCHEMA = "repro.fabric/1"

#: Counter namespace of the fabric client side.
COUNTER_PREFIX = "service.fabric"

#: Number of digest-prefix buckets the key space is divided into.
SHARD_BUCKETS = 16


def _default_owner() -> str:
    """Lease owner identity: stable per process, unique per host."""
    return f"{socket.gethostname()}:{os.getpid()}"


def load_peers(path: Union[str, Path]) -> List[str]:
    """Parse a ``--peers-file`` into a normalised, deduplicated URL list.

    Two formats are accepted:

    * plain text -- one base URL per line, ``#`` comments and blank
      lines ignored;
    * JSON -- either a bare list of URLs or ``{"peers": [...]}``.

    URLs are normalised (surrounding whitespace and trailing ``/``
    stripped) and deduplicated preserving first-seen order, matching
    :class:`ShardRouter`'s normalisation.
    """
    text = Path(path).read_text()
    raw: Sequence[object]
    if text.lstrip().startswith(("[", "{")):
        parsed = json.loads(text)
        if isinstance(parsed, dict):
            parsed = parsed.get("peers") or []
        if not isinstance(parsed, list):
            raise ValueError(
                "JSON peers file must be a list or {'peers': [...]}"
            )
        raw = parsed
    else:
        raw = [line.partition("#")[0] for line in text.splitlines()]
    peers: List[str] = []
    for entry in raw:
        url = str(entry).strip().rstrip("/")
        if url and url not in peers:
            peers.append(url)
    return peers


class ShardRouter:
    """Deterministic digest-prefix sharding over a static peer list.

    Hash scheme (documented; stable across processes and Python hash
    seeds):

    1. A key's **bucket** is its first hex nibble:
       ``bucket = int(key[0], 16)`` -- 16 buckets over the SHA-256 key
       space, uniformly filled because the digests are uniform.
    2. Each bucket is assigned to a peer by **rendezvous (highest
       random weight) hashing**: the owner of bucket ``b`` is the peer
       maximising ``sha256(f"{b:x}|{peer_url}")``.

    Rendezvous hashing gives minimal movement on peer-set change:
    removing one peer reassigns exactly the buckets that peer owned
    (every other bucket keeps its argmax); adding a peer steals only
    the buckets it now wins.  The mapping is a pure function of the
    peer-URL set, so every client with the same ``--peers`` list routes
    identically without coordination.
    """

    def __init__(self, peers: Sequence[str]) -> None:
        # Dedupe while preserving order; normalise trailing slashes so
        # "http://h:1/" and "http://h:1" are one peer.
        cleaned = []
        for peer in peers:
            url = str(peer).rstrip("/")
            if url and url not in cleaned:
                cleaned.append(url)
        if not cleaned:
            raise ValueError("ShardRouter needs at least one peer")
        self.peers: Tuple[str, ...] = tuple(cleaned)
        self._owners: Tuple[str, ...] = tuple(
            self._rendezvous(bucket) for bucket in range(SHARD_BUCKETS)
        )

    def _rendezvous(self, bucket: int) -> str:
        def weight(peer: str) -> str:
            seed = f"{bucket:x}|{peer}".encode("utf-8")
            return hashlib.sha256(seed).hexdigest()

        return max(self.peers, key=weight)

    @staticmethod
    def bucket_of(key: str) -> int:
        """The digest-prefix bucket of one key (first hex nibble)."""
        try:
            return int(key[0], 16)
        except (IndexError, ValueError):
            raise ValueError(f"malformed cache key {key!r}") from None

    def peer_for(self, key: str) -> str:
        """The peer URL owning ``key``."""
        return self._owners[self.bucket_of(key)]

    def mapping(self) -> Dict[int, str]:
        """bucket -> owning peer URL (for tests and ``/fabricz``)."""
        return dict(enumerate(self._owners))


class CacheServer(RouteHTTPServer):
    """HTTP object store: one :class:`ResultCache` on the wire.

    Routes (``repro.fabric/1`` envelopes)::

        GET    /objects/<key>[?lease=<owner>&ttl=<s>]  -> envelope|404
        HEAD   /objects/<key>                          -> 200|404
        PUT    /objects/<key>[?lease=<owner>&ttl=<s>]  <- envelope
        DELETE /leases/<key>?owner=<owner>             release a lease
        GET    /healthz                                liveness JSON
        GET    /fabricz                                store/lease stats

    Integrity: a ``PUT`` body's entry must carry a ``payload_sha256``
    matching the recomputed digest of its payload+manifest, or the
    request is rejected with 400 (counted as
    ``service.fabric.server.integrity_rejects``) -- a corrupt client
    can never poison the shared store.  ``GET`` responses are verified
    again client-side (:class:`RemoteCache`), so a corrupt *server*
    cannot poison a client either.

    Leases: ``?lease=<owner>`` on GET/PUT grants ``owner`` a TTL lease
    on the entry.  The store's LRU eviction (capacity ``max_entries``)
    skips leased keys via :class:`ResultCache`'s ``protect`` hook, so
    an entry a peer recently read or wrote is never evicted out from
    under it; the capacity bound is advisory while leases pin entries
    over it.  Leases expire by wall clock; ``DELETE /leases/<key>``
    releases one early.
    """

    def __init__(
        self,
        root: Union[str, Path],
        port: int = 0,
        host: str = "127.0.0.1",
        max_entries: Optional[int] = 4096,
        lease_ttl_s: float = 600.0,
    ) -> None:
        super().__init__(table=RouteTable(), port=port, host=host)
        self.cache = ResultCache(
            root,
            max_entries=max_entries,
            counter_prefix="service.fabric.server",
            protect=self.leased,
        )
        self.lease_ttl_s = float(lease_ttl_s)
        self.started_at = time.time()
        self.requests = 0
        #: key -> {owner: lease expiry (epoch seconds)}
        self._leases: Dict[str, Dict[str, float]] = {}
        self._lock = threading.Lock()
        self.table.add("GET", "/objects/<key>", self._get_object)
        self.table.add("HEAD", "/objects/<key>", self._head_object)
        self.table.add("PUT", "/objects/<key>", self._put_object)
        self.table.add("DELETE", "/leases/<key>", self._release_lease)
        self.table.add("GET", "/healthz", self._healthz)
        self.table.add("GET", "/fabricz", self._fabricz)

    # ------------------------------------------------------------------
    # leases
    # ------------------------------------------------------------------
    def leased(self, key: str) -> bool:
        """True while any unexpired lease pins ``key`` (protect hook)."""
        now = time.time()
        with self._lock:
            holders = self._leases.get(key)
            if not holders:
                return False
            live = {
                owner: expiry
                for owner, expiry in holders.items()
                if expiry > now
            }
            if live:
                self._leases[key] = live
                return True
            del self._leases[key]
            return False

    def lease_count(self) -> int:
        """Number of keys currently pinned by an unexpired lease."""
        now = time.time()
        with self._lock:
            return sum(
                1
                for holders in self._leases.values()
                if any(expiry > now for expiry in holders.values())
            )

    def _grant(self, key: str, params: Dict[str, str]) -> None:
        owner = params.get("lease")
        if not owner:
            return
        try:
            ttl = float(params.get("ttl", self.lease_ttl_s))
        except ValueError:
            raise ValueError(
                f"?ttl must be a number, got {params['ttl']!r}"
            ) from None
        ttl = min(max(ttl, 0.0), self.lease_ttl_s)
        with self._lock:
            self._leases.setdefault(key, {})[owner] = time.time() + ttl
        obs.counter("service.fabric.server.lease_grants")

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def _get_object(
        self, request: HttpRequest
    ) -> Tuple[int, str, str]:
        self.requests += 1
        obs.counter("service.fabric.server.gets")
        key = request.operand
        entry = self.cache.get(key)  # raises ValueError on a bad key
        if entry is None:
            doc = json.dumps(
                {"ok": False, "error": f"unknown key {key!r}"},
                sort_keys=True,
            )
            return 404, "application/json", doc + "\n"
        self._grant(key, request.params)
        envelope = {"schema": FABRIC_SCHEMA, "key": key, "entry": entry}
        return (
            200,
            "application/json",
            json.dumps(envelope, sort_keys=True) + "\n",
        )

    def _head_object(
        self, request: HttpRequest
    ) -> Tuple[int, str, str]:
        self.requests += 1
        obs.counter("service.fabric.server.heads")
        # Cheap existence probe: no entry read, no integrity check, no
        # recency bump -- HEAD must stay O(1).
        present = request.operand in self.cache
        status = 200 if present else 404
        return (
            status,
            "application/json",
            json.dumps({"ok": present}, sort_keys=True) + "\n",
        )

    def _put_object(
        self, request: HttpRequest
    ) -> Tuple[int, str, str]:
        self.requests += 1
        obs.counter("service.fabric.server.puts")
        key = request.operand
        self.cache._entry_path(key)  # key hygiene: ValueError -> 400
        try:
            envelope = json.loads(request.body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise ValueError("request body is not valid JSON") from None
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema") != FABRIC_SCHEMA
        ):
            raise ValueError(
                f"request body is not a {FABRIC_SCHEMA} envelope"
            )
        entry = envelope.get("entry")
        if not isinstance(entry, dict) or not self._verify(key, entry):
            obs.counter("service.fabric.server.integrity_rejects")
            raise ValueError(
                "entry failed integrity verification "
                "(key/schema/payload_sha256 mismatch)"
            )
        manifest = entry.get("manifest")
        self.cache.put(
            key,
            entry["payload"],
            manifest if isinstance(manifest, dict) else None,
        )
        self._grant(key, request.params)
        doc = json.dumps({"ok": True, "key": key}, sort_keys=True)
        return 200, "application/json", doc + "\n"

    @staticmethod
    def _verify(key: str, entry: Dict[str, object]) -> bool:
        if entry.get("schema") != CACHE_SCHEMA or entry.get("key") != key:
            return False
        expected = entry.get("payload_sha256")
        actual = _payload_sha(entry.get("payload"), entry.get("manifest"))
        return expected == actual

    def _release_lease(
        self, request: HttpRequest
    ) -> Tuple[int, str, str]:
        key = request.operand
        owner = request.params.get("owner")
        if not owner:
            raise ValueError("?owner=<owner> is required")
        with self._lock:
            holders = self._leases.get(key) or {}
            released = holders.pop(owner, None) is not None
            if not holders:
                self._leases.pop(key, None)
        doc = json.dumps(
            {"ok": True, "released": released}, sort_keys=True
        )
        return 200, "application/json", doc + "\n"

    def _healthz(self, request: HttpRequest) -> Tuple[int, str, str]:
        doc = json.dumps(
            {
                "ok": True,
                "schema": FABRIC_SCHEMA,
                "pid": os.getpid(),
                "uptime_s": round(time.time() - self.started_at, 3),
                "objects": self.cache.stats.entries,
            },
            sort_keys=True,
        )
        return 200, "application/json", doc + "\n"

    def _fabricz(self, request: HttpRequest) -> Tuple[int, str, str]:
        doc = json.dumps(
            {
                "ok": True,
                "schema": FABRIC_SCHEMA,
                "requests": self.requests,
                "leases": self.lease_count(),
                "lease_ttl_s": self.lease_ttl_s,
                "max_entries": self.cache.max_entries,
                "store": self.cache.stats.to_dict(),
            },
            sort_keys=True,
        )
        return 200, "application/json", doc + "\n"

    def stop(self) -> None:
        super().stop()
        self.cache.close()


@dataclass
class FabricStats:
    """In-process counters of one :class:`RemoteCache`."""

    remote_hits: int = 0
    remote_misses: int = 0
    remote_stores: int = 0
    store_errors: int = 0
    errors: int = 0
    retries: int = 0
    integrity_failures: int = 0
    #: Requests short-circuited because the owning peer was unhealthy.
    degraded_skips: int = 0
    #: Healthy -> down transitions observed.
    peer_down_events: int = 0
    #: Peer-set rebuilds from a changed ``peers_file``.
    peer_set_reloads: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.remote_hits,
            "misses": self.remote_misses,
            "stores": self.remote_stores,
            "store_errors": self.store_errors,
            "errors": self.errors,
            "retries": self.retries,
            "integrity_failures": self.integrity_failures,
            "degraded_skips": self.degraded_skips,
            "peer_down_events": self.peer_down_events,
            "peer_set_reloads": self.peer_set_reloads,
        }

    @property
    def lookups(self) -> int:
        return self.remote_hits + self.remote_misses

    @property
    def hit_rate(self) -> float:
        return self.remote_hits / self.lookups if self.lookups else 0.0


@dataclass
class _PeerState:
    url: str
    healthy: bool = True
    down_since: Optional[float] = None
    #: Earliest wall time the next re-probe may touch this peer.
    next_probe: float = 0.0
    consecutive_failures: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class RemoteCache:
    """HTTP client of the cache fabric (the remote L2).

    Parameters
    ----------
    peers:
        Static list of :class:`CacheServer` base URLs; keys shard over
        them via :class:`ShardRouter`.
    timeout_s:
        Per-request socket timeout.  The fabric is an optimisation
        layer: it must fail *fast* and let the caller recompute.
    retries:
        Extra attempts per request after the first (with backoff).
    backoff_s:
        Sleep between attempts, doubled each retry.
    reprobe_s:
        How long an unhealthy peer is skipped before one request is
        allowed through to re-probe it.
    lease_owner:
        Identity sent as ``?lease=`` so the server pins entries this
        host uses (default ``hostname:pid``).
    on_peer_down / on_peer_up:
        Optional hooks called with the peer URL on health transitions
        (the daemon fires/clears the ``fabric.peer_down`` alert here).
        Exceptions are swallowed.
    peers_file:
        Optional path the peer set was loaded from.  When set,
        :meth:`maybe_reload_peers` re-reads it on mtime change and
        rebuilds the shard router in place (counted as
        ``service.fabric.peer_set_reloads``) -- dynamic membership
        without a daemon restart.
    """

    def __init__(
        self,
        peers: Sequence[str],
        timeout_s: float = 2.0,
        retries: int = 1,
        backoff_s: float = 0.05,
        reprobe_s: float = 5.0,
        lease_owner: Optional[str] = None,
        on_peer_down: Optional[Callable[[str], None]] = None,
        on_peer_up: Optional[Callable[[str], None]] = None,
        peers_file: Union[None, str, "os.PathLike[str]"] = None,
    ) -> None:
        if timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.router = ShardRouter(peers)
        self.timeout_s = float(timeout_s)
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.reprobe_s = float(reprobe_s)
        self.lease_owner = lease_owner or _default_owner()
        self.on_peer_down = on_peer_down
        self.on_peer_up = on_peer_up
        self.stats = FabricStats()
        self._states = {
            url: _PeerState(url) for url in self.router.peers
        }
        self.peers_file = (
            Path(peers_file) if peers_file is not None else None
        )
        self._peers_mtime = self._peers_file_mtime()
        self._reload_lock = threading.Lock()

    # ------------------------------------------------------------------
    # dynamic membership
    # ------------------------------------------------------------------
    def _peers_file_mtime(self) -> Optional[float]:
        if self.peers_file is None:
            return None
        try:
            return self.peers_file.stat().st_mtime
        except OSError:
            return None

    def maybe_reload_peers(self) -> bool:
        """Re-read ``peers_file`` when its mtime changed; True on a
        peer-set change.

        Rendezvous hashing makes the swap cheap: only the buckets whose
        argmax changed move, so a new peer starts receiving exactly the
        buckets it now wins.  Health state for retained peers is
        preserved (a peer that was down stays down until it re-probes);
        an unreadable or empty file leaves the current set untouched.
        Never raises -- the daemon calls this from its history tick.
        """
        if self.peers_file is None:
            return False
        mtime = self._peers_file_mtime()
        if mtime is None or mtime == self._peers_mtime:
            return False
        with self._reload_lock:
            if mtime == self._peers_mtime:
                return False
            self._peers_mtime = mtime
            try:
                peers = load_peers(self.peers_file)
                if not peers:
                    return False
                router = ShardRouter(peers)
            except Exception:  # noqa: BLE001 -- keep the old set
                return False
            if router.peers == self.router.peers:
                return False
            states = {
                url: self._states.get(url) or _PeerState(url)
                for url in router.peers
            }
            self.router = router
            self._states = states
        self.stats.peer_set_reloads += 1
        obs.counter(f"{COUNTER_PREFIX}.peer_set_reloads")
        obs.event(
            f"{COUNTER_PREFIX}.peer_set_reload",
            peers=list(router.peers),
        )
        self._sync_degraded_gauge()
        return True

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    @property
    def peers(self) -> Tuple[str, ...]:
        return self.router.peers

    def down_peers(self) -> List[str]:
        """URLs of peers currently marked unhealthy."""
        return [
            state.url
            for state in self._states.values()
            if not state.healthy
        ]

    @property
    def degraded(self) -> bool:
        """True while at least one peer is marked unhealthy."""
        return any(not s.healthy for s in self._states.values())

    def _sync_degraded_gauge(self) -> None:
        obs.gauge(
            f"{COUNTER_PREFIX}.degraded", float(len(self.down_peers()))
        )

    def _mark_down(self, state: _PeerState) -> None:
        with state.lock:
            transition = state.healthy
            state.healthy = False
            if transition:
                state.down_since = time.time()
            state.consecutive_failures += 1
            state.next_probe = time.time() + self.reprobe_s
        if transition:
            self.stats.peer_down_events += 1
            obs.counter(f"{COUNTER_PREFIX}.peer_down")
            obs.event(
                f"{COUNTER_PREFIX}.peer_down",
                peer=state.url,
            )
            self._sync_degraded_gauge()
            if self.on_peer_down is not None:
                try:
                    self.on_peer_down(state.url)
                except Exception:  # noqa: BLE001 -- hook must not break I/O
                    pass

    def _mark_up(self, state: _PeerState) -> None:
        with state.lock:
            transition = not state.healthy
            state.healthy = True
            state.down_since = None
            state.consecutive_failures = 0
        if transition:
            obs.counter(f"{COUNTER_PREFIX}.peer_up")
            obs.event(f"{COUNTER_PREFIX}.peer_up", peer=state.url)
            self._sync_degraded_gauge()
            if self.on_peer_up is not None:
                try:
                    self.on_peer_up(state.url)
                except Exception:  # noqa: BLE001
                    pass

    def _usable(self, state: _PeerState) -> bool:
        """Healthy, or unhealthy but due for a re-probe request."""
        with state.lock:
            if state.healthy:
                return True
            if time.time() >= state.next_probe:
                # Let exactly this request through; push the window so
                # concurrent callers keep degrading instead of queueing
                # up on a dead socket.
                state.next_probe = time.time() + self.reprobe_s
                return True
        self.stats.degraded_skips += 1
        obs.counter(f"{COUNTER_PREFIX}.degraded_skips")
        return False

    def probe_peers(
        self, timeout_s: Optional[float] = None
    ) -> List[str]:
        """Actively health-check every peer; returns the down list.

        ``GET /healthz`` with a short timeout against each peer,
        updating health state on the way.  The daemon calls this on its
        metrics-history cadence so a dead peer is noticed (and the
        ``fabric.peer_down`` alert fires) even while no cache traffic
        flows.
        """
        timeout = timeout_s if timeout_s is not None else self.timeout_s
        for state in self._states.values():
            try:
                request = urllib.request.Request(
                    f"{state.url}/healthz", method="GET"
                )
                with urllib.request.urlopen(
                    request, timeout=timeout
                ) as response:
                    ok = response.status == 200
            except Exception:  # noqa: BLE001 -- any failure means down
                ok = False
            if ok:
                self._mark_up(state)
            else:
                self._mark_down(state)
        self._sync_degraded_gauge()
        return self.down_peers()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request(
        self,
        state: _PeerState,
        method: str,
        path: str,
        body: Optional[bytes] = None,
    ) -> Tuple[Optional[int], Optional[bytes]]:
        """One request with bounded retry; ``(status, body)`` or
        ``(None, None)`` after marking the peer down."""
        attempt = 0
        while True:
            started = time.perf_counter()
            try:
                request = urllib.request.Request(
                    f"{state.url}{path}",
                    data=body,
                    method=method,
                    headers=(
                        {"Content-Type": "application/json"}
                        if body is not None
                        else {}
                    ),
                )
                with urllib.request.urlopen(
                    request, timeout=self.timeout_s
                ) as response:
                    payload = response.read()
                    status = response.status
            except urllib.error.HTTPError as exc:
                # The server answered: the peer is alive.  4xx/5xx is a
                # per-request verdict (404 = miss), not a health event.
                obs.histogram(
                    f"{COUNTER_PREFIX}.round_trip_seconds",
                    time.perf_counter() - started,
                    LATENCY_BUCKETS,
                )
                self._mark_up(state)
                try:
                    detail = exc.read()
                except Exception:  # noqa: BLE001
                    detail = b""
                return exc.code, detail
            except (OSError, urllib.error.URLError):
                attempt += 1
                if attempt <= self.retries:
                    self.stats.retries += 1
                    obs.counter(f"{COUNTER_PREFIX}.retries")
                    time.sleep(self.backoff_s * (2 ** (attempt - 1)))
                    continue
                self.stats.errors += 1
                obs.counter(f"{COUNTER_PREFIX}.errors")
                self._mark_down(state)
                return None, None
            obs.histogram(
                f"{COUNTER_PREFIX}.round_trip_seconds",
                time.perf_counter() - started,
                LATENCY_BUCKETS,
            )
            self._mark_up(state)
            return status, payload

    # ------------------------------------------------------------------
    # ResultCache-shaped remote operations
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The remote entry under ``key``, verified, or ``None``."""
        state = self._states[self.router.peer_for(key)]
        if not self._usable(state):
            return None
        status, payload = self._request(
            state,
            "GET",
            f"/objects/{key}?lease={self.lease_owner}",
        )
        if status != 200 or payload is None:
            if status is not None:
                self.stats.remote_misses += 1
                obs.counter(f"{COUNTER_PREFIX}.remote_misses")
            return None
        try:
            envelope = json.loads(payload.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            envelope = None
        entry = (
            envelope.get("entry")
            if isinstance(envelope, dict)
            and envelope.get("schema") == FABRIC_SCHEMA
            else None
        )
        if not isinstance(entry, dict) or not CacheServer._verify(
            key, entry
        ):
            # A corrupt/lying peer is a miss, never a crash.
            self.stats.integrity_failures += 1
            obs.counter(f"{COUNTER_PREFIX}.integrity_failures")
            self.stats.remote_misses += 1
            obs.counter(f"{COUNTER_PREFIX}.remote_misses")
            return None
        self.stats.remote_hits += 1
        obs.counter(f"{COUNTER_PREFIX}.remote_hits")
        return entry

    def head(self, key: str) -> bool:
        """Cheap remote existence probe (no entry transfer)."""
        state = self._states[self.router.peer_for(key)]
        if not self._usable(state):
            return False
        status, __ = self._request(state, "HEAD", f"/objects/{key}")
        return status == 200

    def put(
        self,
        key: str,
        payload: Dict[str, object],
        manifest: Optional[Dict[str, object]] = None,
    ) -> bool:
        """Store an entry on the owning peer; False on degradation."""
        state = self._states[self.router.peer_for(key)]
        if not self._usable(state):
            return False
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "stored_at": time.strftime(
                "%Y-%m-%dT%H:%M:%S", time.gmtime()
            ),
            "payload_sha256": _payload_sha(payload, manifest),
            "payload": payload,
            "manifest": manifest,
        }
        envelope = {"schema": FABRIC_SCHEMA, "key": key, "entry": entry}
        body = json.dumps(
            envelope, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        status, __ = self._request(
            state,
            "PUT",
            f"/objects/{key}?lease={self.lease_owner}",
            body=body,
        )
        if status == 200:
            self.stats.remote_stores += 1
            obs.counter(f"{COUNTER_PREFIX}.remote_stores")
            return True
        if status is not None:
            # Alive peer refused the entry (integrity reject, bad key).
            self.stats.store_errors += 1
            obs.counter(f"{COUNTER_PREFIX}.store_errors")
        return False

    def release(self, key: str) -> None:
        """Release this client's lease on ``key`` (best effort)."""
        state = self._states[self.router.peer_for(key)]
        if not self._usable(state):
            return
        self._request(
            state,
            "DELETE",
            f"/leases/{key}?owner={self.lease_owner}",
        )


class _TieredStats:
    """Combined stats view: local L1 counters + remote L2 sub-dict."""

    def __init__(self, local: CacheStats, remote: FabricStats) -> None:
        self._local = local
        self._remote = remote

    def __getattr__(self, name: str):
        return getattr(self._local, name)

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = dict(self._local.to_dict())
        doc["remote"] = self._remote.to_dict()
        doc["remote_hit_rate"] = round(self._remote.hit_rate, 4)
        return doc


class TieredCache:
    """Local L1 in front of the remote fabric L2.

    Implements the :class:`ResultCache` probe/store surface (``get`` /
    ``put`` / ``evict`` / ``flush`` / ``close`` / ``stats`` /
    ``__contains__`` / ``__len__``) so every existing call site -- the
    daemon, the batch engine, the cluster cache -- gains the fabric by
    substitution, not rewrite.

    Semantics:

    * ``get`` -- L1 first (free); on miss, the owning peer.  A remote
      hit is **written through to L1** so the next probe is local.
    * ``put`` -- written to L1 and pushed to the owning peer (best
      effort; a down peer degrades to local-only silently).
    * ``evict``/``clear`` -- local only.  Entries are content-addressed,
      so a remote copy is never *wrong* for its key; remote capacity is
      the server's LRU's problem, not the mutating client's.
    * degradation -- every remote failure path inside
      :class:`RemoteCache` returns miss/False, so the tier never
      raises on peer death; the job recomputes instead.
    """

    def __init__(self, local: ResultCache, remote: RemoteCache) -> None:
        self.local = local
        self.remote = remote
        self.stats = _TieredStats(local.stats, remote.stats)

    # -- ResultCache surface -------------------------------------------
    @property
    def root(self) -> Path:
        return self.local.root

    @property
    def max_entries(self) -> Optional[int]:
        return self.local.max_entries

    def get(self, key: str) -> Optional[Dict[str, object]]:
        entry = self.local.get(key)
        if entry is not None:
            return entry
        entry = self.remote.get(key)
        if entry is not None:
            payload = entry.get("payload")
            manifest = entry.get("manifest")
            if isinstance(payload, dict):
                # Write-through: the next probe for this key is an L1
                # hit (and survives the peer dying).
                self.local.put(
                    key,
                    payload,
                    manifest if isinstance(manifest, dict) else None,
                )
        return entry

    def put(
        self,
        key: str,
        payload: Dict[str, object],
        manifest: Optional[Dict[str, object]] = None,
    ) -> Path:
        path = self.local.put(key, payload, manifest)
        self.remote.put(key, payload, manifest)
        return path

    def evict(self, key: str) -> bool:
        return self.local.evict(key)

    def clear(self) -> int:
        return self.local.clear()

    def flush(self) -> None:
        self.local.flush()

    def close(self) -> None:
        self.local.close()

    def __enter__(self) -> "TieredCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.local)

    def __bool__(self) -> bool:
        return True

    def __contains__(self, key: str) -> bool:
        return key in self.local or self.remote.head(key)
