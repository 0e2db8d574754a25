"""Direct-pNFS: the paper's primary contribution.

Direct-pNFS (§4) lets an *unmodified* NFSv4.1 client reach a parallel
file system's storage nodes directly:

* the **layout translator** (:mod:`repro.core.layout_translator`)
  converts the parallel FS's own data distribution into a pNFS
  file-based layout, without interpreting file-system-specific
  information — only the aggregation type and its parameters cross the
  boundary;
* **aggregation drivers** (:mod:`repro.core.aggregation`) give clients
  a compact way to understand non-round-robin placements (variable
  stripes): one table row per aggregation type the translator emits;
* **data servers** are stock NFSv4.1 servers colocated with storage
  nodes, reaching local data through a loopback conduit — no
  inter-server data traffic;
* :mod:`repro.core.system` assembles any file-layout pNFS system over a
  :class:`~repro.pvfs2.system.Pvfs2System` (``PnfsSystem``) from its
  :data:`~repro.cluster.configs.ARCHITECTURES` row; Direct-pNFS is the
  row with the translator and the conduits (``"direct-pnfs"``).
"""

from repro.core.aggregation import AGGREGATIONS, aggregation_for
from repro.core.layout_translator import TRANSLATIONS, LayoutTranslator

# Last: it imports repro.pnfs.client, which imports the aggregation
# table above.
from repro.core.system import PnfsSystem

__all__ = [
    "AGGREGATIONS",
    "TRANSLATIONS",
    "LayoutTranslator",
    "PnfsSystem",
    "aggregation_for",
]
