"""clusterforge: build and verify photonic cluster-state shapes.

Linear chains are cheap to make; this package turns them into 2D
cluster shapes (boxes, L's, H's, crosses, ladders, rings) using free
local unitaries, Pauli-measurement rewrites, and probabilistic type-I
fusion, while accounting for the bonds each route consumes.  Every
graph-level rewrite can be cross-checked against a stabilizer tableau
and a dense statevector oracle.
"""

__version__ = "0.1.0"
