"""Sample a small-world torus graph and inspect its structure.

The model starts from the (2n+1) x (2n+1) torus (every vertex keeps its four
grid edges) and adds an independent long-range edge between each pair at
torus distance d >= 2 with probability d^-r / Z, where Z normalizes the
expected number of long-range edges per vertex to one.
"""

import os
import tempfile

import numpy as np

from swmix import (
    ModelParams,
    edge_probability,
    index_to_coord,
    load_graph,
    long_range_normalizer,
    ring_size,
    sample_graph,
    save_graph,
    torus_distance,
)

params = ModelParams(n=20, r=2.0, seed=7)
graph = sample_graph(params)

print(f"n={params.n}  r={params.r}  seed={params.seed}")
print(f"vertices          {graph.num_vertices}")
print(f"edges             {graph.edge_count} ({len(graph.long_range_edges)} long-range)")
print(f"normalizer Z      {graph.normalizer:.6f}")
print(f"expected LR edges {graph.num_vertices / 2:.1f}")

degrees = graph.degrees
print("\ndegree histogram (degree: count)")
for value, count in zip(*np.unique(degrees, return_counts=True)):
    print(f"  {value:3d}: {count}")

# empirical long-range distance profile vs the model probabilities
e = graph.long_range_edges
xs, ys = index_to_coord(e[:, 0], params.n)
xt, yt = index_to_coord(e[:, 1], params.n)
dist = torus_distance(np.column_stack([xs, ys]), np.column_stack([xt, yt]), params.n)
print("\nlong-range edges by distance (first 10 classes): observed vs expected")
for d in range(2, 12):
    p = edge_probability(params.n, params.r, d)
    expected = graph.num_vertices * ring_size(d, params.n) / 2 * p
    print(f"  d={d:2d}: {int((dist == d).sum()):4d}  vs {expected:7.1f}")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "graph.swg")
    save_graph(graph, path)
    again = load_graph(path)
assert again.params == params and np.array_equal(again.long_range_edges, e)
print("\nsaved to a temporary file and loaded back identically")
print(f"normalizer grows like n^(2-r) for r<2; Z(40,1)/Z(20,1) = "
      f"{long_range_normalizer(40, 1.0) / long_range_normalizer(20, 1.0):.3f} (doubling ~ 2)")
