"""Seeded request streams for the three benchmark workloads.

A workload is a sequence of *decks*. Every deck has the same composition
(which families, sizes strata, state kinds and kappa strata it holds); the
seed draws the values inside each stratum and the order within the deck.
Runs consume whole decks, so two seeds give runs of the same mix and the
medians they report can be compared.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from reference import Reference, RefGraph

_SIZE_FLAGS = {
    "complete": ("n",),
    "cbg": ("n1", "n2"),
    "paley": ("p",),
    "petersen": (),
    "rook": ("n",),
    "jcg": ("half",),
    "simplex": ("m",),
}


@dataclass(frozen=True)
class Request:
    """One CLI invocation: ``ctqw <command> <family> <size flags> [...]``."""

    command: str  # "efficiency" or "graph"
    family: str
    params: dict
    state: str | None = None
    theta: float = 0.0
    kappa: float = 1.0
    oracle: bool = False

    @property
    def argv(self) -> list[str]:
        argv = [self.command, self.family]
        for flag in _SIZE_FLAGS[self.family]:
            argv += [f"--{flag}", str(self.params[flag])]
        if self.command == "efficiency":
            argv += ["--state", self.state]
            if self.state.startswith("super:"):
                argv += ["--theta", repr(self.theta)]
            if self.oracle:
                argv += ["--kappa", repr(self.kappa), "--oracle"]
        return argv

    @property
    def localized(self) -> bool:
        return self.state is not None and self.state.split(":")[0] in ("class", "vertex")


@dataclass(frozen=True)
class Workload:
    name: str
    deck: Callable[[random.Random, Reference], list[Request]]
    pool_decks: int  # decks generated (and checked) before timing; runs cycle them
    trace_decks: int  # decks a traced run executes


def _primes_1mod4(lo: int, hi: int) -> list[int]:
    return [
        p
        for p in range(lo, hi + 1)
        if p % 4 == 1 and all(p % d for d in range(2, math.isqrt(p) + 1))
    ]


# Graph order n of each size option, per family (query workload).
_QUERY_SIZES: dict[str, list[tuple[dict, int]]] = {
    "complete": [({"n": n}, n) for n in range(8, 251)],
    "paley": [({"p": p}, p) for p in _primes_1mod4(13, 241)],
    "petersen": [({}, 10)],
    "rook": [({"n": s}, s * s) for s in range(3, 17)],
    "jcg": [({"half": h}, 2 * h) for h in range(4, 126)],
    "simplex": [({"m": m}, m * (m + 1)) for m in range(3, 16)],
}
_QUERY_N = (8, 250)
_STATE_KINDS = ("class", "vertex", "uniform", "super")


def _query_params(rng: random.Random, family: str, stratum: int, strata: int) -> dict:
    lo, hi = (math.log(x) for x in _QUERY_N)
    width = (hi - lo) / strata
    target = math.exp(rng.uniform(lo + stratum * width, lo + (stratum + 1) * width))
    if family == "cbg":
        n = max(8, round(target))
        n1 = min(n - 1, max(2, round(rng.uniform(0.2, 0.8) * n)))
        return {"n1": n1, "n2": n - n1}
    options = _QUERY_SIZES[family]
    return min(options, key=lambda opt: abs(math.log(opt[1] / target)))[0]


def _state(rng: random.Random, g: RefGraph, kind: str) -> tuple[str, float]:
    labels = g.labels()
    if kind == "class":
        return f"class:{rng.choice(labels)}", 0.0
    if kind == "vertex":
        return f"vertex:{rng.randrange(1, g.n)}", 0.0
    if kind == "uniform":
        return f"uniform:{rng.choice(labels)}", 0.0
    theta = rng.uniform(0.0, 2.0 * math.pi)
    if len(labels) >= 2:
        x, y = rng.sample(labels, 2)
    else:  # one class (complete graph): two distinct vertices of it
        x, y = (str(v) for v in sorted(rng.sample(range(1, g.n), 2)))
    return f"super:{x},{y}", theta


def query_deck(rng: random.Random, ref: Reference) -> list[Request]:
    """Each family once per state kind; the four requests of a family take
    the four log-n strata of [8, 250] in a seeded order."""
    deck = []
    for family in ("complete", "cbg", "paley", "petersen", "rook", "jcg", "simplex"):
        strata = list(range(len(_STATE_KINDS)))
        rng.shuffle(strata)
        for kind, stratum in zip(_STATE_KINDS, strata):
            params = _query_params(rng, family, stratum, len(strata))
            state, theta = _state(rng, ref.labels(family, params), kind)
            deck.append(Request("efficiency", family, params, state, theta))
    rng.shuffle(deck)
    return deck


# Paper-scale oracle panel: one instance per family, each paired with one of
# seven log-spaced kappa strata over [0.1, 10] (a fixed Latin assignment)
# and kappa drawn log-uniformly from the central half of that stratum. The
# lowest stratum goes to JCG(6), whose slowest mode outlasts t_max there.
# The other pairings are, of all such assignments, the one whose deck median
# latency varied least between seeds in a simulation with timing noise.
_ORACLE_PANEL = (
    ("complete", {"n": 8}, 2),
    ("cbg", {"n1": 5, "n2": 4}, 6),
    ("paley", {"p": 13}, 4),
    ("petersen", {}, 1),
    ("rook", {"n": 4}, 3),
    ("jcg", {"half": 6}, 0),
    ("simplex", {"m": 3}, 5),
)
_KAPPA_DECADES = (-1.0, 1.0)


def oracle_deck(rng: random.Random, ref: Reference) -> list[Request]:
    lo, hi = _KAPPA_DECADES
    strata = len(_ORACLE_PANEL)
    deck = []
    for family, params, stratum in _ORACLE_PANEL:
        u = stratum + rng.uniform(0.25, 0.75)
        kappa = 10.0 ** (lo + (hi - lo) * u / strata)
        label = rng.choice(ref.labels(family, params).labels())
        deck.append(Request("efficiency", family, params, f"class:{label}", kappa=kappa, oracle=True))
    rng.shuffle(deck)
    return deck


_CONNECTIVITY_FIXED = (
    [("paley", {"p": p}) for p in (13, 17, 29, 37, 41)]
    + [("rook", {"n": s}) for s in (3, 4, 5, 6)]
    + [("simplex", {"m": m}) for m in (3, 4, 5, 6)]
    + [("petersen", {})]
)


def connectivity_deck(rng: random.Random, ref: Reference) -> list[Request]:
    """The fixed instances above, ten seeded ones and five complete graphs
    of order 36-40. The seeded ones (JCG half 4-7 and 16-20, complete
    bipartite n1+n2 8-14 and 34-45 split 20-80 %, six complete graphs of
    order 8-24) keep twelve requests well below and twelve well above
    complete(36-40) in cost, so the median latency falls among those five
    whatever the seed."""
    deck = [Request("graph", f, p) for f, p in _CONNECTIVITY_FIXED]
    for lo, hi in ((4, 7), (16, 20)):
        deck.append(Request("graph", "jcg", {"half": rng.randint(lo, hi)}))
    for lo, hi in ((8, 14), (34, 45)):
        n = rng.randint(lo, hi)
        n1 = min(n - 1, max(1, round(rng.uniform(0.2, 0.8) * n)))
        deck.append(Request("graph", "cbg", {"n1": n1, "n2": n - n1}))
    for lo, hi in [(8, 24)] * 6 + [(36, 40)] * 5:
        deck.append(Request("graph", "complete", {"n": rng.randint(lo, hi)}))
    rng.shuffle(deck)
    return deck


WORKLOADS = {
    "query": Workload("query", query_deck, pool_decks=160, trace_decks=8),
    "oracle": Workload("oracle", oracle_deck, pool_decks=4, trace_decks=1),
    "connectivity": Workload("connectivity", connectivity_deck, pool_decks=6, trace_decks=1),
}


def generate(workload: Workload, seed: int, decks: int, ref: Reference) -> list[list[Request]]:
    """The first `decks` decks of the workload's stream for `seed`. Any
    prefix of the stream is the same whatever `decks` is."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [workload.deck(rng, ref) for _ in range(decks)]
