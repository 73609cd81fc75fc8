"""Query serving: a long-lived HTTP daemon over a (mmap-loaded) index.

The build pipeline ends with an :class:`~repro.ads.index.AdsIndex` on
disk; this package is the layer that takes traffic against it:

* :class:`AdsServer` -- the JSON API on one asyncio event loop:
  pipelined HTTP/1.1 keep-alive parsing, one write per wave of
  buffered requests, an LRU cache for whole-graph results
  (:mod:`repro.serve.server`, which also holds the
  :class:`~repro.serve.server.ServerBase` chassis the router shares);
* :class:`QueryClient` -- keep-alive stdlib client, JSON or binary
  wire mode (:mod:`repro.serve.client`);
* :class:`RouterServer` -- the sharded cluster tier: fan-out over
  node-range workers, exact merges, replica failover, startup topology
  validation (:class:`ClusterTopologyError`), and automatic
  stale-replica resync
  (:mod:`repro.serve.cluster`, :mod:`repro.serve.membership`);
* :mod:`repro.serve.wire` -- the compact binary codec servers and
  clients negotiate via ``Accept``/``Content-Type``;
* :class:`LruCache` -- the cache primitive (:mod:`repro.serve.cache`);
* :class:`ReadWriteLock` -- readers/writer exclusion for live updates
  (:mod:`repro.serve.locks`);
* :mod:`repro.serve.schemas` -- wire-format parsing and shaping.

Shell entry points: ``python -m repro serve --index graph.adsidx``
(add ``--graph graph.txt`` to accept ``POST /update``, ``--cluster
START:STOP`` to serve one node-range shard) and ``python -m repro
route --index graph.adsidx --group URL[,URL...] ...`` for the cluster
router.
"""

from repro.serve.cache import LruCache
from repro.serve.client import QueryClient, ServeClientError
from repro.serve.cluster import ClusterTopologyError, RouterServer
from repro.serve.locks import ReadWriteLock
from repro.serve.membership import ClusterMembership, Replica, ShardGroup
from repro.serve.schemas import WireError
from repro.serve.server import AdsServer
from repro.serve.wire import WireFormatError

__all__ = [
    "AdsServer",
    "ClusterMembership",
    "ClusterTopologyError",
    "LruCache",
    "QueryClient",
    "Replica",
    "RouterServer",
    "ServeClientError",
    "ShardGroup",
    "WireError",
    "WireFormatError",
]
