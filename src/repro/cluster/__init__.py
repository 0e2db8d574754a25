"""Testbed model and the architectures under test.

:mod:`repro.cluster.testbed` holds the hardware envelope (paper §6.1);
:mod:`repro.cluster.configs` holds the table of architectures the
evaluation compares — ``direct-pnfs``, ``pvfs2``, ``pnfs-2tier``,
``pnfs-3tier``, ``nfsv4`` (and the ``direct-pnfs-sharded`` extension) —
and :func:`make_deployment`, the one way to build any of them.
"""

from repro.cluster.testbed import FAST_ETHERNET, GIGE, Testbed
from repro.cluster.configs import (
    ARCHITECTURES,
    Architecture,
    Deployment,
    make_deployment,
)

__all__ = [
    "ARCHITECTURES",
    "Architecture",
    "Deployment",
    "FAST_ETHERNET",
    "GIGE",
    "Testbed",
    "make_deployment",
]
