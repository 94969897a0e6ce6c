"""A live implementation of Eschenauer–Gligor random key predistribution.

The scheme the paper positions itself against ([7], Sec. III), run as a
real protocol on the simulator — predistribution, shared-key discovery,
and the path-key establishment round that patches unsecured links through
already-secured neighbors:

* **predistribution**: every node is loaded with a ring of ``m`` key ids
  drawn from a pool of ``P``;
* **shared-key discovery**: each node broadcasts its ring's key *ids* in
  clear (the E-G basic variant); neighbors with a non-empty intersection
  derive a link key from the smallest shared pool key;
* **path-key establishment**: for neighbor pairs with no shared key, a
  common secured neighbor generates a fresh key and delivers it to both
  ends over existing secure links — raising connectivity at the price of
  the relay *knowing the key it generated* (the exposure our capture
  analysis measures).

A bootstrapped :class:`RandKpDeployment` is itself a
:class:`~repro.baselines.KeySchemeModel`: the storage, broadcast-cost and
capture-resilience comparisons read its agents' real key state. It also
reproduces E-G's own connectivity-vs-ring-size behaviour, checked against
the closed form :func:`expected_share_probability`.
"""

from repro.randkp.agent import RandKpAgent
from repro.randkp.setup import (
    RandKpDeployment,
    expected_share_probability,
    run_randkp_bootstrap,
)

__all__ = [
    "RandKpAgent",
    "RandKpDeployment",
    "expected_share_probability",
    "run_randkp_bootstrap",
]
