"""Cluster-granular result cache for batch workers.

The triple-keyed :class:`~repro.service.cache.ResultCache` answers "have
we analysed exactly this (network, clocks, config)?" -- a one-gate edit
invalidates the whole design.  This module adds the paper's Section-7
cluster decomposition as the unit of caching: every *cluster* (a maximal
connected combinational network bounded by synchroniser terminals) gets
its own content address (:func:`~repro.service.digest.cluster_digest`)
over its cells, arc delays, internal nets, boundary clock bindings and
the analysis config.  A delay mutation therefore changes exactly one
cluster's digest, and a warm batch re-run of an edited design

* **hits** on every clean cluster -- its ``repro.clusterart/1`` artifact
  (source-to-capture reachability, ``dmax_p`` / ``dmin_p`` path delays,
  per-capture worst arcs) loads from the cache and its reachability map
  seeds the analysis model before Algorithm 1 seeds windows, skipping
  the cluster's one-sweep reachability pass;
* **recomputes** only the dirty cluster's artifact.

Content addressing needs no invalidation: a stale artifact is simply
never addressed again and ages out of the LRU.  The cache only pays
when it is warmed *before* the analysis model is built, so that the
seeded reachability replaces the sweep; batch workers do exactly that.

Storage reuses :class:`ResultCache` (same ``repro.cache/1`` on-disk
entries, atomic writes, advisory index, LRU, integrity quarantine)
under a separate root with the ``service.cluster_cache`` counter
namespace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.core.clusters import (
    ARTIFACT_SCHEMA,
    Cluster,
    cluster_timing_artifact,
    extract_clusters,
)
from repro.service.cache import ResultCache
from repro.service.digest import cluster_digest

__all__ = [
    "ClusterCache",
    "ClusterMap",
    "ClusterWarmup",
    "build_cluster_map",
]

#: Counter namespace of the cluster-level cache.
COUNTER_PREFIX = "service.cluster_cache"


@dataclass(frozen=True)
class ClusterMap:
    """The sub-keys of one design at one delay state.

    Binds each cluster to its content sub-key.  The map is a function
    of the *live* delays: after a mutation the edited cluster's sub-key
    changes and every other one stays.
    """

    clusters: Tuple[Cluster, ...]
    #: cluster name -> cluster_digest sub-key.
    keys: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Plain-data summary of the map."""
        return {
            "clusters": len(self.clusters),
            "keys": dict(self.keys),
        }


def build_cluster_map(
    network,
    schedule,
    delays,
    config_sha: str,
    clusters: Optional[Tuple[Cluster, ...]] = None,
) -> ClusterMap:
    """Build the sub-key map for ``network`` at ``delays``.

    ``clusters`` lets callers reuse an already-extracted partition (the
    analysis model and the batch planner both run
    :func:`extract_clusters`); otherwise the partition is computed here.
    """
    if clusters is None:
        clusters = extract_clusters(network)
    keys = {
        cluster.name: cluster_digest(cluster, schedule, delays, config_sha)
        for cluster in clusters
    }
    return ClusterMap(clusters=tuple(clusters), keys=keys)


@dataclass
class ClusterWarmup:
    """Outcome of one :meth:`ClusterCache.warm` pass."""

    map: ClusterMap
    #: Cluster names whose artifacts loaded from the cache.
    hits: List[str] = field(default_factory=list)
    #: Cluster names whose artifacts had to be recomputed.
    recomputed: List[str] = field(default_factory=list)
    #: cluster name -> repro.clusterart/1 artifact (hits + recomputed).
    artifacts: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def clusters(self) -> int:
        return len(self.map.clusters)

    @property
    def hit_rate(self) -> float:
        return len(self.hits) / self.clusters if self.clusters else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "clusters": self.clusters,
            "hits": len(self.hits),
            "recomputed": len(self.recomputed),
            "hit_rate": self.hit_rate,
        }


class ClusterCache:
    """Per-cluster artifact store, keyed by cluster content.

    Parameters
    ----------
    root:
        Cache directory.  By convention the service layers place it
        next to the triple cache (``<cache-dir>/clusters``).
    max_entries:
        LRU bound of the underlying :class:`ResultCache`; clusters are
        much smaller than whole-design results, so the default bound is
        wider.
    backend:
        Pre-built store implementing the :class:`ResultCache` surface
        (e.g. a :class:`repro.service.fabric.TieredCache` fronting the
        cache fabric).  When given, ``root``/``max_entries`` describe
        it rather than build a new local store -- this is how cluster
        artifacts computed on other hosts become hits here.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_entries: Optional[int] = 4096,
        backend: Optional[ResultCache] = None,
    ) -> None:
        self.root = Path(root)
        if backend is not None:
            self._cache = backend
        else:
            self._cache = ResultCache(
                self.root,
                max_entries=max_entries,
                counter_prefix=COUNTER_PREFIX,
            )

    # ------------------------------------------------------------------
    # probing / warming
    # ------------------------------------------------------------------
    def probe(self, key: str) -> Optional[Dict[str, object]]:
        """The artifact stored under one sub-key, or ``None``."""
        entry = self._cache.get(key)
        if entry is None:
            return None
        payload = entry.get("payload")
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != ARTIFACT_SCHEMA
        ):
            # Content addressing makes this near-impossible (the schema
            # version is folded into the digest); treat it as corrupt.
            self._cache.evict(key)
            return None
        return payload

    def store(self, key: str, artifact: Dict[str, object]) -> None:
        self._cache.put(key, artifact)

    def warm(
        self,
        network,
        schedule,
        delays,
        config_sha: str,
        clusters: Optional[Tuple[Cluster, ...]] = None,
    ) -> ClusterWarmup:
        """Probe every cluster of a design; seed hits, fill misses.

        For each cluster: a cache hit seeds the cluster's reachability
        map from the stored artifact (counted as
        ``service.cluster_cache.seeded``); a miss recomputes the
        artifact (``service.cluster_cache.recomputed``) -- which *is*
        the cold reachability sweep plus two path-delay sweeps -- and
        stores it.  Either way the cluster object ends up warm, so the
        analysis model built from these clusters never re-runs the
        reachability sweep.
        """
        cmap = build_cluster_map(
            network, schedule, delays, config_sha, clusters=clusters
        )
        warmup = ClusterWarmup(map=cmap)
        for cluster in cmap.clusters:
            key = cmap.keys[cluster.name]
            artifact = self.probe(key)
            if artifact is not None:
                cluster.seed_reachability(artifact.get("reach", {}))
                warmup.hits.append(cluster.name)
                obs.counter(f"{COUNTER_PREFIX}.seeded")
            else:
                artifact = cluster_timing_artifact(
                    network, cluster, delays
                )
                self.store(key, artifact)
                warmup.recomputed.append(cluster.name)
                obs.counter(f"{COUNTER_PREFIX}.recomputed")
            warmup.artifacts[cluster.name] = artifact
        self.flush()
        obs.gauge(
            f"{COUNTER_PREFIX}.hit_rate", warmup.hit_rate
        )
        return warmup

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def stats(self):
        return self._cache.stats

    @property
    def max_entries(self) -> Optional[int]:
        return self._cache.max_entries

    def flush(self) -> None:
        self._cache.flush()

    def close(self) -> None:
        self._cache.close()

    def __len__(self) -> int:
        return len(self._cache)

    def __bool__(self) -> bool:
        return True
