"""Signed fixed-point (Q-format) arithmetic used by the IzhiRISC-V NPU/DCU.

Public API
----------
* :class:`~repro.fixedpoint.qformat.QFormat` and the concrete formats
  :data:`Q7_8`, :data:`Q4_11`, :data:`Q15_16` used by the paper.
* VU-word packing helpers (:func:`pack_vu`, :func:`unpack_vu`).
"""

from .qformat import Overflow, Q4_11, Q7_8, Q15_16, Q16_16, QFormat, Rounding
from .vuword import pack_vu, pack_vu_float, unpack_vu, unpack_vu_float

__all__ = [
    "QFormat",
    "Rounding",
    "Overflow",
    "Q7_8",
    "Q4_11",
    "Q15_16",
    "Q16_16",
    "pack_vu",
    "unpack_vu",
    "pack_vu_float",
    "unpack_vu_float",
]
