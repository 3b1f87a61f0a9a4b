"""Reference revenue anchors the regression suite reproduces.

Two externally reported Monte Carlo studies pin the implementation down:
the classic nine-bidder market with branches (3, 6) across four reserve
settings, and the six-bidder symmetry study at the Myerson reserve. The
benchmark rows and the counterexample reserves are analytic anchors.
The checksum of this table ships in `--version` so any drift in the
targets themselves is visible.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["REFERENCE_REVENUES", "reference_checksum"]

REFERENCE_REVENUES = {
    "classic_3_6": {
        "sizes": (3, 6),
        "reserves": ("none", "k1", "k2", "k3"),
        "uniform": (70.7041, 72.2705, 73.3333, 74.1242),
        "normal": (60.4643, 60.5352, 60.7732, 61.0995),
        "exp": (18.1708, 19.1526, 19.6865, 20.0335),
    },
    "symmetry_6": {
        "structures": ((1, 5), (2, 4), (3, 3)),
        "reserve": "k1",
        "uniform": (59.4687, 64.8785, 66.5007),
        "normal": (50.8081, 55.7984, 57.1788),
        "exp": (14.3518, 15.8711, 16.3513),
    },
    "benchmarks_uniform": {
        "mys_rho2": 41.6667,
        "opt_n9": 80.0195,
        "gamma_k1": 50.0,
    },
    "counterexample": {
        "sizes_full": (2, 2, 2),
        "sizes_withheld": (2, 2, 1),
        "r_opt_full": 0.5773,
        "r_opt_withheld": 0.5664,
    },
}


def reference_checksum() -> str:
    payload = json.dumps(REFERENCE_REVENUES, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:12]
