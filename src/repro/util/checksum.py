"""CRC-32 and Adler-32 integrity checksums, computed by stdlib :mod:`zlib`.

The PRIMACY container format seals every chunk with an Adler-32 and every
PRIF footer, PRAC catalog and PRCK manifest with a CRC-32, so corruption is
caught before a bogus index silently remaps data.  The checks sit on the
verified read path, so they use the C implementations in :mod:`zlib`; the
from-scratch vectorized versions are kept as test oracles in
``tests/util/test_checksum.py``.

Both functions hash the raw bytes of any buffer: ``bytes``, ``bytearray``,
``memoryview`` or an ndarray of any dtype (a non-contiguous array is
copied to C order first).  The values and the ``value=`` chaining match
zlib's, so stored checksums are unchanged.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["crc32", "adler32"]

Buffer = bytes | bytearray | memoryview | np.ndarray


def _contiguous(data: Buffer) -> Buffer:
    if isinstance(data, np.ndarray):
        return np.ascontiguousarray(data)
    return data


def crc32(data: Buffer, value: int = 0) -> int:
    """CRC-32 of the bytes of ``data``, continuing from ``value``."""
    return zlib.crc32(_contiguous(data), value)


def adler32(data: Buffer, value: int = 1) -> int:
    """Adler-32 of the bytes of ``data``, continuing from ``value``."""
    return zlib.adler32(_contiguous(data), value)
