"""Exact arithmetic for the orthogonality graph on sign vectors.

Independence bounds from eigenvalue ratios, kernel-reduction searches
for tight independent sets, clique-translate colourings, recursive
subgraph constructions, and JSON certificates for all of it - with no
floating point anywhere in a proof path.
"""

__version__ = "0.1.0"
