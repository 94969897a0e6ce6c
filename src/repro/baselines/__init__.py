"""The key-distribution scheme interface and its closed-form schemes.

:class:`KeySchemeModel` is the one interface every scheme the paper
compares against answers, in the storage / broadcast-cost / resilience
taxonomy of the key-distribution surveys: how many keys a node stores,
how many transmissions a local broadcast and the bootstrap cost, and
which links a captured node's key material compromises. The derived
metrics (storage, secured-link fraction, resilience, compromise locality)
are defined once, on the interface.

Who implements it:

* :class:`GlobalKeyScheme` (pebblenets) and :class:`FullPairwiseScheme`
  are closed-form: their answers follow from the topology alone;
* :class:`LdpSchemeModel` adapts this paper's live protocol;
* :class:`repro.leap.LeapDeployment` and
  :class:`repro.randkp.RandKpDeployment` (Eschenauer–Gligor, and
  q-composite with ``q > 1``) implement it themselves, answering from
  their agents' real key state after a live bootstrap.
"""

from repro.baselines.common import KeySchemeModel, all_links, link_fraction, node_ids
from repro.baselines.global_key import GlobalKeyScheme
from repro.baselines.ldp_adapter import LdpSchemeModel
from repro.baselines.pairwise import FullPairwiseScheme

__all__ = [
    "KeySchemeModel",
    "all_links",
    "link_fraction",
    "node_ids",
    "GlobalKeyScheme",
    "FullPairwiseScheme",
    "LdpSchemeModel",
]
