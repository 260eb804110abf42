"""Utility helpers: flop counting and reproducible random numbers."""

from repro.utils.rng import ensure_rng, spawn_rng
from repro.utils.flops import (
    contraction_flops,
    svd_flops,
    qr_flops,
    eigh_flops,
    matmul_flops,
    FlopCounter,
)

__all__ = [
    "ensure_rng",
    "spawn_rng",
    "contraction_flops",
    "svd_flops",
    "qr_flops",
    "eigh_flops",
    "matmul_flops",
    "FlopCounter",
]
