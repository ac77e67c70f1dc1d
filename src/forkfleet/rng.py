"""Portable seedable 64-bit random generator (splitmix64).

Every run's randomness flows from a single scenario seed through one of
these generators, so identical seeds reproduce identical scenarios on any
platform and Python version.
"""

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64 sequence; the canonical constants, all arithmetic mod 2^64."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Integer in [0, n). Modulo bias is < 2^-50 for any practical n."""
        if n <= 0:
            raise ValueError("randrange needs n > 0")
        return self.next_u64() % n
