"""HyperLogLog: distinct counting in O(2^p) registers.

Standard-error ~ 1.04 / sqrt(m) with ``m = 2^precision`` registers; the
super-spreader and port-scan detectors use it to count distinct contacts
per source in constant memory (the BeauCoup/OpenSketch family's core
primitive).
"""

from __future__ import annotations

import hashlib
import math
from typing import Hashable

from repro.errors import FarmError

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _hash64(value: Hashable) -> int:
    """Deterministic 64-bit hash for register selection.

    Numbers keep their builtin hash, which Python never salts; strings,
    bytes and tuples are hashed from a stable encoding with BLAKE2b, so
    estimates do not depend on ``PYTHONHASHSEED``.  The result is put
    through a 64-bit finalizer, since numeric hashes are too structured
    to pick registers from directly.
    """
    if isinstance(value, (int, float)):
        h = hash(value) & _MASK64
    else:
        h = int.from_bytes(hashlib.blake2b(
            _stable_bytes(value), digest_size=8).digest(), "big")
    h = ((h ^ (h >> 33)) * 0xFF51AFD7ED558CCD) & _MASK64
    h = ((h ^ (h >> 33)) * 0xC4CEB9FE1A85EC53) & _MASK64
    return h ^ (h >> 33)


def _stable_bytes(value: Hashable) -> bytes:
    """Type-tagged encoding that is the same in every process.  Other
    hashable types fall back to ``repr``, which is stable for the value
    types Almanac programs handle (filters, prefixes, numbers)."""
    if isinstance(value, str):
        return b"s" + value.encode("utf-8", "surrogatepass")
    if isinstance(value, bytes):
        return b"b" + value
    if isinstance(value, tuple):
        parts = [_stable_bytes(item) for item in value]
        return b"t" + b"".join(
            len(part).to_bytes(4, "big") + part for part in parts)
    if isinstance(value, (int, float)):
        # Equal numbers (1, 1.0, True) must count as one value.
        return b"n" + (hash(value) & _MASK64).to_bytes(8, "big")
    return b"r" + repr(value).encode("utf-8", "surrogatepass")


class HyperLogLog:
    """Flajolet et al.'s HLL with the standard bias correction."""

    def __init__(self, precision: int = 12) -> None:
        if not 4 <= precision <= 18:
            raise FarmError(f"precision must be in [4, 18]: {precision}")
        self.precision = precision
        self.num_registers = 1 << precision
        self._registers = bytearray(self.num_registers)
        if self.num_registers >= 128:
            self._alpha = 0.7213 / (1 + 1.079 / self.num_registers)
        elif self.num_registers == 64:
            self._alpha = 0.709
        elif self.num_registers == 32:
            self._alpha = 0.697
        else:
            self._alpha = 0.673

    def add(self, value: Hashable) -> None:
        digest = _hash64(value)
        register = digest >> (64 - self.precision)
        remaining = digest << self.precision & 0xFFFFFFFFFFFFFFFF
        # rank = position of the leftmost 1-bit in the remaining 64-p bits
        rank = 1
        bit = 1 << 63
        while rank <= 64 - self.precision and not remaining & bit:
            remaining <<= 1
            remaining &= 0xFFFFFFFFFFFFFFFF
            rank += 1
        if rank > self._registers[register]:
            self._registers[register] = rank

    def count(self) -> float:
        """Cardinality estimate with small/large-range corrections."""
        m = self.num_registers
        raw = self._alpha * m * m / sum(
            2.0 ** -register for register in self._registers)
        if raw <= 2.5 * m:
            zeros = self._registers.count(0)
            if zeros:
                return m * math.log(m / zeros)  # linear counting
        if raw > (1 << 32) / 30.0:
            return -(1 << 32) * math.log(1.0 - raw / (1 << 32))
        return raw

    def merge(self, other: "HyperLogLog") -> None:
        """Union of two HLLs with identical precision (cross-switch merge,
        the network-wide super-spreader use case)."""
        if self.precision != other.precision:
            raise FarmError("can only merge HLLs of equal precision")
        for index in range(self.num_registers):
            if other._registers[index] > self._registers[index]:
                self._registers[index] = other._registers[index]

    def clear(self) -> None:
        for index in range(self.num_registers):
            self._registers[index] = 0

    def standard_error(self) -> float:
        return 1.04 / math.sqrt(self.num_registers)

    @property
    def memory_bytes(self) -> int:
        return self.num_registers
