"""A live implementation of LEAP's neighborhood keying (Zhu et al. [11]).

The paper's closest competitor, implemented as a real protocol on the
same simulator so the comparative claims of Sec. III are measured on
running code rather than estimated structurally:

* **bootstrap**: every node derives its master-derived key
  ``K_v = F(K_init, v)``, broadcasts a discovery HELLO, computes pairwise
  keys ``K_uv = F(K_v, u)`` with each heard neighbor, then distributes its
  own *cluster key* to each neighbor in a separate unicast encrypted under
  the pairwise key — "a number of pair-wise and cluster keys that is
  proportional to its actual neighbors" and "a more expensive
  bootstrapping phase";
* **steady state**: local broadcast under the sender's own cluster key
  (1 transmission), but clusters "highly overlap" so every forwarder must
  re-encrypt under a *different* key;
* **the flaw** (Sec. III): discovery HELLOs are unauthenticated — nothing
  stops an attacker from flooding forged identities, forcing a victim to
  compute and store a pairwise key per forged id; capturing the victim
  afterwards yields its ``K_v``, from which the pairwise key to *any*
  identity can be derived.

A bootstrapped :class:`LeapDeployment` is itself a
:class:`~repro.baselines.KeySchemeModel`: the storage, broadcast-cost and
capture-resilience comparisons read its agents' real key state.
"""

from repro.leap.agent import LeapAgent
from repro.leap.setup import LeapDeployment, run_leap_bootstrap

__all__ = ["LeapAgent", "LeapDeployment", "run_leap_bootstrap"]
