"""The paper's reported results, digitised from Figures 6-8.

Exact numbers quoted in the text are exact here (119.2, 110, 39.4, 509,
530.7, 51, 115, 83, 102.5, 26, 6); the remaining points are read off
the figures and are approximate (±5 MB/s or so).  The harness compares
*shape* — who wins, by what factor, where curves flatten — not absolute
values: our substrate is a calibrated simulator, not the authors'
testbed.
"""

from __future__ import annotations

__all__ = ["PAPER"]

CLIENTS_1_8 = [1, 2, 3, 4, 5, 6, 7, 8]

#: figure id -> system -> {n_clients: value}
PAPER: dict[str, dict[str, dict[int, float]]] = {
    # ---- Figure 6: aggregate write throughput (MB/s) -------------------
    "fig6a": {  # separate files, large block
        "direct-pnfs": {1: 88, 2: 108, 3: 116, 4: 119.2, 5: 119, 6: 119, 7: 119, 8: 119},
        "pvfs2": {1: 85, 2: 106, 3: 115, 4: 119, 5: 119, 6: 119, 7: 119, 8: 119},
        "pnfs-2tier": {1: 78, 2: 98, 3: 108, 4: 112, 5: 113, 6: 113, 7: 113, 8: 112},
        "pnfs-3tier": {1: 55, 2: 72, 3: 80, 4: 83, 5: 83, 6: 83, 7: 83, 8: 83},
        "nfsv4": {1: 45, 2: 47, 3: 47, 4: 47, 5: 46, 6: 46, 7: 46, 8: 45},
    },
    "fig6b": {  # single file, large block
        "direct-pnfs": {1: 85, 2: 103, 3: 108, 4: 110, 5: 110, 6: 110, 7: 110, 8: 110},
        "pvfs2": {1: 83, 2: 102, 3: 108, 4: 110, 5: 110, 6: 110, 7: 110, 8: 110},
        "pnfs-2tier": {1: 75, 2: 95, 3: 102, 4: 105, 5: 105, 6: 105, 7: 104, 8: 104},
        "pnfs-3tier": {1: 54, 2: 70, 3: 79, 4: 82, 5: 83, 6: 83, 7: 83, 8: 82},
        "nfsv4": {1: 44, 2: 46, 3: 46, 4: 46, 5: 46, 6: 45, 7: 45, 8: 45},
    },
    "fig6c": {  # separate files, large block, 100 Mbps Ethernet
        "direct-pnfs": {1: 11, 2: 22, 3: 32, 4: 42, 5: 50, 6: 57, 7: 61, 8: 63},
        "pvfs2": {1: 11, 2: 22, 3: 32, 4: 42, 5: 50, 6: 57, 7: 61, 8: 63},
        "pnfs-2tier": {1: 6, 2: 12, 3: 17, 4: 22, 5: 26, 6: 29, 7: 31, 8: 32},
    },
    "fig6d": {  # separate files, 8 KB block
        "direct-pnfs": {1: 88, 2: 108, 3: 116, 4: 119, 5: 119, 6: 119, 7: 119, 8: 119},
        "pvfs2": {1: 10, 2: 18, 3: 25, 4: 30, 5: 33, 6: 36, 7: 38, 8: 39.4},
        "pnfs-2tier": {1: 78, 2: 98, 3: 108, 4: 112, 5: 112, 6: 112, 7: 112, 8: 112},
        "pnfs-3tier": {1: 55, 2: 72, 3: 80, 4: 83, 5: 83, 6: 83, 7: 83, 8: 83},
        "nfsv4": {1: 45, 2: 47, 3: 47, 4: 47, 5: 46, 6: 46, 7: 46, 8: 45},
    },
    "fig6e": {  # single file, 8 KB block
        "direct-pnfs": {1: 85, 2: 103, 3: 108, 4: 110, 5: 110, 6: 110, 7: 110, 8: 110},
        "pvfs2": {1: 10, 2: 17, 3: 24, 4: 29, 5: 32, 6: 35, 7: 37, 8: 38},
        "pnfs-2tier": {1: 75, 2: 95, 3: 102, 4: 105, 5: 104, 6: 104, 7: 104, 8: 104},
        "pnfs-3tier": {1: 54, 2: 70, 3: 79, 4: 82, 5: 83, 6: 83, 7: 82, 8: 82},
        "nfsv4": {1: 44, 2: 46, 3: 46, 4: 46, 5: 45, 6: 45, 7: 45, 8: 45},
    },
    # ---- Figure 7: aggregate read throughput (MB/s), warm cache ----------
    "fig7a": {  # separate files, large block
        "direct-pnfs": {1: 110, 2: 210, 3: 300, 4: 370, 5: 430, 6: 470, 7: 495, 8: 509},
        "pvfs2": {1: 105, 2: 205, 3: 295, 4: 365, 5: 425, 6: 465, 7: 490, 8: 509},
        "pnfs-2tier": {1: 95, 2: 170, 3: 220, 4: 255, 5: 275, 6: 285, 7: 290, 8: 290},
        "pnfs-3tier": {1: 90, 2: 110, 3: 115, 4: 115, 5: 115, 6: 115, 7: 115, 8: 115},
        "nfsv4": {1: 105, 2: 110, 3: 110, 4: 110, 5: 110, 6: 110, 7: 110, 8: 110},
    },
    "fig7b": {  # single file, large block
        "direct-pnfs": {1: 110, 2: 210, 3: 295, 4: 365, 5: 420, 6: 460, 7: 485, 8: 505},
        "pvfs2": {1: 95, 2: 190, 3: 280, 4: 360, 5: 425, 6: 470, 7: 505, 8: 530.7},
        "pnfs-2tier": {1: 95, 2: 170, 3: 220, 4: 255, 5: 275, 6: 285, 7: 290, 8: 290},
        "pnfs-3tier": {1: 90, 2: 110, 3: 115, 4: 115, 5: 115, 6: 115, 7: 115, 8: 115},
        "nfsv4": {1: 105, 2: 110, 3: 110, 4: 110, 5: 110, 6: 110, 7: 110, 8: 110},
    },
    "fig7c": {  # separate files, 8 KB block
        "direct-pnfs": {1: 110, 2: 210, 3: 300, 4: 370, 5: 430, 6: 470, 7: 495, 8: 505},
        "pvfs2": {1: 12, 2: 22, 3: 31, 4: 38, 5: 43, 6: 47, 7: 49, 8: 51},
        "pnfs-2tier": {1: 95, 2: 170, 3: 220, 4: 255, 5: 275, 6: 285, 7: 290, 8: 290},
        "pnfs-3tier": {1: 90, 2: 110, 3: 115, 4: 115, 5: 115, 6: 115, 7: 115, 8: 115},
        "nfsv4": {1: 105, 2: 110, 3: 110, 4: 110, 5: 110, 6: 110, 7: 110, 8: 110},
    },
    "fig7d": {  # single file, 8 KB block
        "direct-pnfs": {1: 110, 2: 208, 3: 295, 4: 365, 5: 420, 6: 460, 7: 485, 8: 500},
        "pvfs2": {1: 12, 2: 21, 3: 30, 4: 37, 5: 42, 6: 46, 7: 48, 8: 50},
        "pnfs-2tier": {1: 95, 2: 170, 3: 220, 4: 255, 5: 275, 6: 285, 7: 290, 8: 290},
        "pnfs-3tier": {1: 90, 2: 110, 3: 115, 4: 115, 5: 115, 6: 115, 7: 115, 8: 115},
        "nfsv4": {1: 105, 2: 110, 3: 110, 4: 110, 5: 110, 6: 110, 7: 110, 8: 110},
    },
    # ---- Figure 8: application and synthetic workloads ---------------------
    "fig8a": {  # ATLAS digitization aggregate write MB/s; 1/4/8 clients
        "direct-pnfs": {1: 45, 4: 93, 8: 102.5},
        "pvfs2": {1: 33, 4: 48, 8: 49},
    },
    "fig8b": {  # BTIO class A runtime (s), lower is better; 1/4/9 clients
        "direct-pnfs": {1: 1500, 4: 480, 9: 300},
        "pvfs2": {1: 1490, 4: 470, 9: 285},
    },
    "fig8c": {  # OLTP aggregate MB/s; 1/4/8 clients
        "direct-pnfs": {1: 5, 4: 15, 8: 26},
        "pvfs2": {1: 2, 4: 5, 8: 6},
    },
    "fig8d": {  # Postmark transactions/second; 1/4/8 clients
        "direct-pnfs": {1: 12, 4: 28, 8: 36},
        "pvfs2": {1: 1, 4: 1, 8: 1},
    },
}
