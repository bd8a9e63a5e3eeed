"""Exact arithmetic for the orthogonality graph on sign vectors.

Independence bounds from eigenvalue ratios, kernel-reduction searches
for tight independent sets, clique-translate colourings, recursive
subgraph constructions, and JSON certificates for all of it - with no
floating point anywhere in a proof path.

numpy is imported inside the functions that compute with it, never at
module level, so a command that does no array work (``bound``, ``psi``,
every colouring, ``status`` below n = 16, ``spectrum --n 4``, the
families reports that run no transform, and their ``verify``) never
loads it.
"""

__version__ = "0.1.0"
