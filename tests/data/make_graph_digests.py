"""Identity digests of sampled graphs: the arrays every graph layout must rebuild.

Regenerate with:  PYTHONPATH=src python3 tests/data/make_graph_digests.py

Writes graph_digests.json next to this file.  For every graph of the grid it
stores the sha256 of the indptr, indices, degrees and long_range_edges
arrays (dtype and shape included), plus edge_count and normalizer.  The grid
is n in {1, 2, 3, 5, 8, 13, 32, 64, 128} x r in {0, 1, 2, 4, 8}, with the
seeds derive_seed(base, n, r, 0) for bases 0-2 and the raw seeds 0, 2^32-1,
2^32 and 2^64-1, plus torus_only_graph(n) for each n.  The committed file was
written by the sampler that sorted the full CSR inside every sample_graph
call, so it pins today's graphs to that layout's bytes.
"""

import hashlib
import json
from pathlib import Path

from swmix import ModelParams, derive_seed, sample_graph, torus_only_graph

N_VALUES = (1, 2, 3, 5, 8, 13, 32, 64, 128)
R_VALUES = (0.0, 1.0, 2.0, 4.0, 8.0)
RAW_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)
ARRAYS = ("indptr", "indices", "degrees", "long_range_edges")
OUT = Path(__file__).parent / "graph_digests.json"


def graphs():
    """Yield (key, graph) over the grid, the bare torus of each n first."""
    for n in N_VALUES:
        yield f"{n} inf 0", torus_only_graph(n)
        for r in R_VALUES:
            seeds = [derive_seed(base, n, r, 0) for base in range(3)] + list(RAW_SEEDS)
            for seed in seeds:
                yield f"{n} {r!r} {seed}", sample_graph(ModelParams(n=n, r=r, seed=seed))


def digest(graph) -> dict:
    """sha256 of each array in ARRAYS over its dtype, shape and bytes, plus edge_count and normalizer."""
    out = {}
    for name in ARRAYS:
        a = getattr(graph, name)
        h = hashlib.sha256(f"{a.dtype.str} {a.shape}".encode("ascii"))
        h.update(a.tobytes())
        out[name] = h.hexdigest()
    out["edge_count"] = int(graph.edge_count)
    out["normalizer"] = float(graph.normalizer)
    return out


def main():
    table = {key: digest(g) for key, g in graphs()}
    OUT.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} graph digests to {OUT}")


if __name__ == "__main__":
    main()
