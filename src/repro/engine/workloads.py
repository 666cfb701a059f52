"""Deterministic, slice-regenerable census workloads.

A *workload* is a finite, deterministic sequence of configurations that
can be regenerated from any index range: ``len(w)`` gives its size and
``w.generate(start, stop)`` yields exactly the items a full enumeration
would yield at positions ``start .. stop-1``. That property is what lets
the sharded pipeline (:mod:`repro.engine.pipeline`) hold only one shard
in memory at a time, and lets a queue worker in another process rebuild
any shard it leases: a shard is fully described by its index range,
never by materialized configurations.

The module also hosts the seeded single-configuration builders shared by
the test and benchmark harnesses (``seeded_config`` and friends), so both
``conftest.py`` files re-export one implementation instead of shadowing
each other.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from ..core.configuration import Configuration, config_from_spec, config_spec
from ..graphs.generators import random_gnp_configuration


# ----------------------------------------------------------------------
# seeded single-configuration builders (shared by tests and benchmarks)
# ----------------------------------------------------------------------
def seeded_config(seed: int, n: int, span: int, p: float = 0.3) -> Configuration:
    """One seeded random connected G(n, p) configuration with uniform tags."""
    return random_gnp_configuration(n, p, span, seed)


def make_random_config(
    seed: int, n_lo: int = 3, n_hi: int = 10, span_hi: int = 3, p: float = 0.35
) -> Configuration:
    """One seeded random configuration with randomized size and span."""
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    span = rng.randint(0, span_hi)
    graph_seed = rng.randrange(2**31)
    return random_gnp_configuration(
        n, p, span, graph_seed, tag_seed=rng.randrange(2**31)
    )


def random_config_batch(
    count: int, base_seed: int = 1234, **kw
) -> List[Configuration]:
    """A reproducible batch of :func:`make_random_config` configurations."""
    return [make_random_config(base_seed + i, **kw) for i in range(count)]


def feasible_batch(
    count: int, seed: int, n: int, span: int, p: float = 0.3
) -> List[Configuration]:
    """Reproducible batch of *feasible* random configurations."""
    from ..core.classifier import classify

    out: List[Configuration] = []
    attempt = 0
    while len(out) < count and attempt < 50 * count:
        cfg = seeded_config(seed + attempt, n, span, p)
        attempt += 1
        if classify(cfg).feasible:
            out.append(cfg)
    return out


# ----------------------------------------------------------------------
# workload protocol
# ----------------------------------------------------------------------
class Workload:
    """A finite deterministic configuration sequence, regenerable by slice.

    Subclasses implement :meth:`__len__` and :meth:`generate`; two calls
    to ``generate`` with the same range must yield equal configurations
    (this is the contract shard resume relies on). Workloads that want
    to run under the distributed queue additionally implement
    :meth:`to_spec` (a JSON-able self-description a worker process can
    rebuild the workload from via :func:`workload_from_spec`) and may
    refine :meth:`estimate_cost` (the per-shard cost that orders
    leases).
    """

    def __len__(self) -> int:
        """Total number of configurations in the workload."""
        raise NotImplementedError

    def generate(self, start: int, stop: int) -> Iterator[Configuration]:
        """Yield the configurations at flat positions ``start .. stop-1``."""
        raise NotImplementedError

    def estimate_cost(self, start: int, stop: int) -> float:
        """Cheap static cost estimate for the item range ``[start, stop)``.

        Orders the work queue's leases, largest cost first
        (:meth:`repro.engine.queue.WorkQueue.lease`); must *never*
        generate the configurations (estimation runs over the whole
        workload at enqueue time). The default — item count — is always safe;
        parametric workloads override it with a classification-shaped
        estimate (~n³ per item) so mixed-size workloads front-load
        their expensive shards. Only the *relative* ordering matters.
        """
        return float(max(0, min(stop, len(self)) - start))

    def to_spec(self) -> Dict:
        """JSON-able description a worker can rebuild this workload from.

        The inverse is :func:`workload_from_spec`; the round-trip must
        reproduce the exact item sequence (it is how queue workers in
        other processes regenerate shard contents). Workloads without a
        spec cannot run distributed.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support distributed execution "
            f"(no to_spec); the spec kinds are {sorted(WORKLOAD_KINDS)}"
        )

    def __iter__(self) -> Iterator[Configuration]:
        """Iterate the full workload in order."""
        return self.generate(0, len(self))


class RandomGnpWorkload(Workload):
    """Seeded random connected G(n, p) configurations with uniform tags.

    The random census's population (``repro-radio census``):
    ``samples`` configurations per entry of ``n_values``, n-major. Item
    order and seeding match the engine-free generator
    :func:`repro.testing.random_census_configs` exactly, so an engine
    census over this workload is comparable row-for-row with the serial
    path.
    """

    def __init__(
        self,
        n_values: Sequence[int],
        span: int,
        p: float,
        samples: int,
        seed: int,
    ) -> None:
        self.n_values = list(n_values)
        # refuse here, once, what every item would otherwise refuse in turn
        # (in a queue census, inside every worker, shard after shard)
        for n in self.n_values:
            if n < 1:
                raise ValueError(f"every n must be >= 1, got {n}")
        if span < 0:
            raise ValueError("span must be >= 0")
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if samples < 0:
            raise ValueError("samples must be >= 0")
        self.span = span
        self.p = p
        self.samples = samples
        self.seed = seed

    def __len__(self) -> int:
        """``len(n_values) * samples``."""
        return len(self.n_values) * self.samples

    def _item(self, index: int) -> Configuration:
        n = self.n_values[index // self.samples]
        s = index % self.samples
        return random_gnp_configuration(
            n, self.p, self.span, self.seed + 7919 * s + 104729 * n
        )

    def generate(self, start: int, stop: int) -> Iterator[Configuration]:
        """Regenerate items ``start .. stop-1`` from their seeds."""
        for i in range(start, min(stop, len(self))):
            yield self._item(i)

    def estimate_cost(self, start: int, stop: int) -> float:
        """~n³ per item, computed from indices alone (n-major layout)."""
        stop = min(stop, len(self))
        return float(
            sum(self.n_values[i // self.samples] ** 3 for i in range(start, stop))
        )

    def to_spec(self) -> Dict:
        """``{"kind": "gnp", ...}`` — the constructor parameters."""
        return {
            "kind": "gnp",
            "n_values": list(self.n_values),
            "span": self.span,
            "p": self.p,
            "samples": self.samples,
            "seed": self.seed,
        }


class EnumerationWorkload(Workload):
    """Every configuration with ``n`` nodes and tags ``0..max_tag``.

    Wraps :func:`repro.graphs.enumeration.enumerate_configurations`;
    slicing re-enumerates from the start and skips (enumeration order is
    deterministic), trading CPU for the bounded memory the pipeline
    needs. Fine at the small n where exhaustive censuses are feasible.
    """

    def __init__(self, n: int, max_tag: int, *, labeled: bool = False) -> None:
        from ..graphs.enumeration import count_configurations

        self.n = n
        self.max_tag = max_tag
        self.labeled = labeled
        self._count = count_configurations(n, max_tag, labeled=labeled)

    def __len__(self) -> int:
        """:func:`repro.graphs.enumeration.count_configurations`."""
        return self._count

    def generate(self, start: int, stop: int) -> Iterator[Configuration]:
        """Re-enumerate deterministically and yield positions start..stop-1."""
        from ..graphs.enumeration import enumerate_configurations

        it = enumerate_configurations(self.n, self.max_tag, labeled=self.labeled)
        return islice(it, start, min(stop, self._count))

    def estimate_cost(self, start: int, stop: int) -> float:
        """~n³ per item (every item has the same size here)."""
        stop = min(stop, len(self))
        return float(max(0, stop - start) * self.n**3)

    def to_spec(self) -> Dict:
        """``{"kind": "enum", ...}`` — the constructor parameters."""
        return {
            "kind": "enum",
            "n": self.n,
            "max_tag": self.max_tag,
            "labeled": self.labeled,
        }


class SequenceWorkload(Workload):
    """An in-memory configuration sequence (already materialized)."""

    def __init__(
        self, configs: Iterable[Configuration], *, label: Optional[str] = None
    ) -> None:
        self.configs = list(configs)
        self.label = label

    def __len__(self) -> int:
        """Number of stored configurations."""
        return len(self.configs)

    def generate(self, start: int, stop: int) -> Iterator[Configuration]:
        """Yield the stored slice."""
        return iter(self.configs[start:stop])

    def estimate_cost(self, start: int, stop: int) -> float:
        """~n³ per stored item (the members are already materialized)."""
        return float(sum(c.n**3 for c in self.configs[start:stop]))

    def to_spec(self) -> Dict:
        """``{"kind": "sequence", ...}`` — every member as its
        :func:`~repro.core.configuration.config_spec`, which refuses
        node labels that are not JSON scalars (``TypeError``)."""
        return {
            "kind": "sequence",
            "label": self.label,
            "configs": [config_spec(cfg) for cfg in self.configs],
        }


#: The closed table of spec ``kind`` -> factory rebuilding the workload
#: from its spec dict.
WORKLOAD_KINDS: Dict[str, Callable[[Dict], Workload]] = {
    "gnp": lambda spec: RandomGnpWorkload(
        spec["n_values"], spec["span"], spec["p"], spec["samples"], spec["seed"]
    ),
    "enum": lambda spec: EnumerationWorkload(
        spec["n"], spec["max_tag"], labeled=spec.get("labeled", False)
    ),
    "sequence": lambda spec: SequenceWorkload(
        [config_from_spec(item) for item in spec["configs"]],
        label=spec.get("label"),
    ),
}


def workload_from_spec(spec: Dict) -> Workload:
    """Rebuild a workload from a :meth:`Workload.to_spec` dict.

    The queue stores the spec at creation; every worker calls this to
    regenerate shard contents locally. Unknown kinds raise ``KeyError``
    naming the kind and the known ones (:data:`WORKLOAD_KINDS`).
    """
    kind = spec.get("kind")
    if kind not in WORKLOAD_KINDS:
        raise KeyError(
            f"unknown workload kind {kind!r}; known kinds: "
            f"{sorted(WORKLOAD_KINDS)}"
        )
    return WORKLOAD_KINDS[kind](spec)


def as_workload(obj) -> Workload:
    """Coerce a Workload, sequence, or iterable of configurations."""
    if isinstance(obj, Workload):
        return obj
    return SequenceWorkload(obj)
