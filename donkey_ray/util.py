"""Small shared helpers."""

from __future__ import annotations

import threading
from collections import OrderedDict

import pyarrow as pa


def dataset_to_table(ds) -> pa.Table:
    """Materialize a SMALL Dataset to one Arrow table (results, manifests —
    never corpus-scale data).

    Collects block refs via ``iter_internal_ref_bundles`` instead of
    ``to_arrow_refs``: the latter fetches the schema with
    ``schema(fetch_if_missing=True)``, which RE-EXECUTES the whole plan
    (``limit(1)``) when block schemas were empty/mixed — running any
    side-effecting write stage a second time."""
    if isinstance(ds, pa.Table):
        return ds
    import ray
    from ray.data.block import BlockAccessor

    refs = [
        br
        for bundle in ds.iter_internal_ref_bundles()
        for br in bundle.block_refs
    ]
    blocks = [BlockAccessor.for_block(b).to_arrow() for b in ray.get(refs)]
    tables = [t for t in blocks if t.num_rows > 0]
    if not tables:
        return blocks[0] if blocks else pa.table({})
    return pa.concat_tables(tables, promote_options="default")


class _LRU:
    """Least-recently-used map bounded by the summed ``size`` of its
    values (1 per entry by default: a count bound). ``get`` and ``load``
    refresh recency; ``put`` evicts oldest-first until the total is
    within ``budget`` again (a value larger than the whole budget is
    not kept). Safe to share between threads: every read or update of
    the map holds the cache's lock; ``load``'s ``compute`` runs outside
    it, so two threads missing the same key may both compute it (the
    cached values are immutable, so either copy serves)."""

    def __init__(self, budget: int, size=lambda v: 1) -> None:
        self.budget = budget
        self.size = size
        self.total = 0
        self._d: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            v = self._d.get(key)
            if v is not None:
                self._d.move_to_end(key)
            return v

    def put(self, key, value):
        with self._lock:
            if key in self._d:
                self.total -= self.size(self._d.pop(key))
            self._d[key] = value
            self.total += self.size(value)
            while self.total > self.budget:
                _, old = self._d.popitem(last=False)
                self.total -= self.size(old)
            return value

    def load(self, key, compute):
        """The cached value of ``key``, else ``put(key, compute())``
        (None values are cached too)."""
        with self._lock:
            if key in self._d:
                self._d.move_to_end(key)
                return self._d[key]
        return self.put(key, compute())
