"""The declarative endpoint registry shared by every server flavor.

One table defines the serving API: each :class:`EndpointSpec` names a
path (or a ``/name/<label>`` prefix), its allowed methods, the handler
*attribute* servers bind it to, which server scopes carry it, and
whether it takes the exclusive side of the read/write lock.  The
chassis (:meth:`repro.serve.server.ServerBase._build_routes`) builds
its dispatch tables from this registry, so the single server, the
shard worker, and the cluster router all serve exactly the same route
table -- an endpoint registered here exists on all of them (or 404s
identically on all of them).  The handlers the public read endpoints
name are themselves ``ServerBase`` methods, inherited unchanged by
every flavor, so the byte-identity the test suite asserts across
deployments is structural: same routes, same handler code, and only
the fetch from the sketches behind it differs.

Scopes:

* ``"all"`` -- served by both a single/worker ``AdsServer`` and the
  cluster ``RouterServer``;
* ``"worker"`` -- internal endpoints only index-holding workers
  answer (the router calls them, it does not expose them): the
  cluster-sweep chain step plus the resync protocol (``/sync/digest``
  and ``/sync/snapshot`` read a healthy donor, ``/sync/install``
  replaces a quarantined replica's state under its write lock).

Example:
    >>> from repro.serve.registry import ENDPOINTS, WRITE_PATHS
    >>> sorted(WRITE_PATHS)
    ['/compact', '/sync/install', '/update']
    >>> [spec.path for spec in ENDPOINTS if spec.scope == "worker"]
    ['/nf-chain', '/sync/digest', '/sync/snapshot', '/sync/install']
    >>> [spec.path for spec in ENDPOINTS if spec.prefix]
    ['/similar/', '/node/']
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple


class EndpointSpec(NamedTuple):
    """One served endpoint, declaratively.

    ``handler`` is the name of the bound method looked up on the server
    instance at construction time -- inherited from ``ServerBase`` for
    the public reads and ``/update``, the class's own for ``/healthz``,
    ``/stats``, ``/compact`` and the worker scope -- and route tables
    stay plain ``{path: (bound handler, methods)}`` dicts at dispatch
    time.
    ``prefix`` routes match ``path`` as a leading segment and hand the
    remainder (the label) to the handler.
    """

    path: str
    methods: Tuple[str, ...]
    handler: str
    scope: str = "all"
    write: bool = False
    prefix: bool = False


ENDPOINTS: Tuple[EndpointSpec, ...] = (
    EndpointSpec("/healthz", ("GET",), "_healthz"),
    EndpointSpec("/stats", ("GET",), "_stats"),
    EndpointSpec("/cardinality", ("GET", "POST"), "_cardinality"),
    EndpointSpec("/closeness", ("GET", "POST"), "_closeness"),
    EndpointSpec("/neighborhood", ("GET",), "_neighborhood"),
    EndpointSpec("/nf-curve", ("GET",), "_nf_curve"),
    EndpointSpec("/top-central", ("GET",), "_top_central"),
    EndpointSpec("/similarity", ("POST",), "_similarity"),
    EndpointSpec("/distance", ("POST",), "_distance"),
    EndpointSpec("/similar/", ("GET",), "_similar", prefix=True),
    EndpointSpec("/node/", ("GET",), "_node", prefix=True),
    EndpointSpec("/nf-chain", ("POST",), "_nf_chain", scope="worker"),
    EndpointSpec("/sync/digest", ("GET",), "_sync_digest", scope="worker"),
    EndpointSpec("/sync/snapshot", ("GET",), "_sync_snapshot",
                 scope="worker"),
    EndpointSpec("/sync/install", ("POST",), "_sync_install",
                 scope="worker", write=True),
    EndpointSpec("/update", ("POST",), "_update", write=True),
    EndpointSpec("/compact", ("POST",), "_compact", write=True),
)

# Paths that take the exclusive side of the read/write lock, derived
# from the same table the dispatchers consume.
WRITE_PATHS = frozenset(spec.path for spec in ENDPOINTS if spec.write)

RouteEntry = Tuple[object, Tuple[str, ...]]


def route_tables(
    server, scopes
) -> Tuple[Dict[str, RouteEntry], Dict[str, RouteEntry]]:
    """Bind the registry against *server* for the given *scopes*.

    Returns ``(exact, prefix)`` dispatch tables mapping path (or path
    prefix) to ``(bound handler, allowed methods)``.  Raises
    ``AttributeError`` at construction -- not at request time -- if the
    server is missing a handler its scopes require.
    """
    exact: Dict[str, RouteEntry] = {}
    prefix: Dict[str, RouteEntry] = {}
    for spec in ENDPOINTS:
        if spec.scope not in scopes:
            continue
        entry = (getattr(server, spec.handler), spec.methods)
        if spec.prefix:
            prefix[spec.path] = entry
        else:
            exact[spec.path] = entry
    return exact, prefix
