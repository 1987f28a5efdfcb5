"""Synthetic traffic storms for the scheduling service.

A *storm* is a seeded, fully reproducible stream of scheduling
requests: a small population of graph templates (RGNOS-style random
graphs) hit by a Zipf-skewed request mix with exponential
interarrivals.  Skew is the point — real request traffic concentrates
on a few hot graphs, which is exactly what the service's
fingerprint-keyed schedule cache exploits, so the storm is the natural
workload for measuring cold-vs-warm latency (``repro-bench loadtest``)
and for the CI service-smoke gate.

Everything is derived from :class:`StormConfig` through
:func:`repro.core.rng.derive_rng`, so two storms with equal
fingerprints are request-for-request identical — arrival times
included — which is what makes RPS/p50/p99 tables rankable across
runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..core.rng import derive_rng
from ..generators.random_graphs import rgnos_graph

__all__ = ["StormConfig", "StormRequest", "make_storm", "storm_bodies"]


@dataclass(frozen=True)
class StormConfig:
    """Full description of one traffic storm (all fields fingerprinted).

    ``rate`` is the mean arrival rate in requests/second (exponential
    interarrivals); ``skew`` the Zipf exponent of template popularity
    (0 = uniform, larger = hotter hot set); ``templates`` the number of
    distinct (graph, spec) request templates, cycling over ``sizes``
    and ``specs``.  ``procs`` is the machine every request asks for.
    """

    requests: int = 200
    templates: int = 8
    sizes: Tuple[int, ...] = (150, 250, 400)
    ccr: float = 1.0
    parallelism: int = 3
    specs: Tuple[str, ...] = ("mcp", "dls", "param:prio=blevel,proc=est")
    procs: int = 8
    rate: float = 500.0
    skew: float = 1.1
    seed: int = 0

    def fingerprint(self) -> str:
        """Stable identity of the storm: every field participates."""
        return (f"storm:req={self.requests},tpl={self.templates},"
                f"sizes={','.join(str(s) for s in self.sizes)},"
                f"ccr={self.ccr:g},par={self.parallelism},"
                f"specs={'|'.join(self.specs)},procs={self.procs},"
                f"rate={self.rate:g},skew={self.skew:g},seed={self.seed}")


@dataclass(frozen=True)
class StormRequest:
    """One request of the storm, ready to POST.

    ``arrival`` is seconds since storm start; ``template`` the index of
    the (graph, spec) template this request repeats; ``body`` the JSON
    payload for ``POST /schedule``.
    """

    arrival: float
    template: int
    body: Dict


def _template_bodies(config: StormConfig) -> List[Dict]:
    """The distinct request payloads, one per template."""
    bodies: List[Dict] = []
    for t in range(config.templates):
        size = config.sizes[t % len(config.sizes)]
        spec = config.specs[t % len(config.specs)]
        graph = rgnos_graph(
            size, config.ccr, config.parallelism,
            seed=derive_rng(config.seed, "storm", "template", t),
            name=f"storm-t{t}")
        bodies.append({
            "graph": {
                "name": graph.name,
                # Python floats and ints straight from the arrays.
                "weights": graph.weights.tolist(),
                "edges": list(map(list, graph.edges())),
            },
            "machine": {"procs": config.procs},
            "spec": spec,
        })
    return bodies


def storm_bodies(config: StormConfig) -> List[Dict]:
    """Just the distinct template payloads (e.g. for cache warm-up)."""
    return _template_bodies(config)


def make_storm(config: StormConfig) -> List[StormRequest]:
    """Expand ``config`` into its request stream, sorted by arrival.

    Popularity is Zipf over templates (template 0 hottest) and
    interarrivals exponential with mean ``1 / rate`` — both drawn from
    streams keyed on the config seed, so equal configs give identical
    storms.
    """
    bodies = _template_bodies(config)
    rng = derive_rng(config.seed, "storm", config.fingerprint())
    weights = np.array([1.0 / (t + 1) ** config.skew
                        for t in range(config.templates)])
    weights /= weights.sum()
    picks = rng.choice(config.templates, size=config.requests, p=weights)
    gaps = rng.exponential(1.0 / config.rate, size=config.requests)
    arrivals = np.cumsum(gaps)
    return [StormRequest(arrival=float(arrivals[i]),
                         template=int(picks[i]),
                         body=bodies[int(picks[i])])
            for i in range(config.requests)]
