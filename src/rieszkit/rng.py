"""numpy's SeedSequence and PCG64 streams in plain Python, bit for bit.

A campaign turns its seed into one 32-bit word per atom and each word into
a few uniforms, the polynomial coefficients of that atom.  The words and
draws equal those of numpy's ``SeedSequence`` and ``default_rng`` for every
nonnegative integer seed, so the stream is the one numpy keeps stable for
its bit generators (NEP 19), while the methods that map it to floats live
here and cannot change with numpy.  A process that draws atoms does not
import numpy's random module.

PCG64 is O'Neill's 128-bit linear congruential generator with the XSL-RR
output function (PCG, HMC-CS-2014-0905); SeedSequence is numpy's entropy
pool of four 32-bit words.
"""

from __future__ import annotations

import operator

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy) -> list:
    """The 32-bit words of ``entropy`` as SeedSequence reads them: an integer
    least significant word first (0 is one word), a sequence the words of
    its items in turn."""
    if isinstance(entropy, (tuple, list)):
        return [w for item in entropy for w in _words(item)]
    n = operator.index(entropy)
    if n < 0:
        raise ValueError("expected non-negative integer")
    out = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        out.append(n & _MASK32)
    return out


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> 16)


def _pool(entropy) -> list:
    """SeedSequence's four-word pool: hash each word in, mix every word into
    every other, then mix in the words beyond the pool."""
    words = _words(entropy)
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v ^= h
        h = (h * _MULT_A) & _MASK32
        v = (v * h) & _MASK32
        return v ^ (v >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(w))
    return pool


def generate_state(entropy, n_words: int) -> list:
    """``SeedSequence(entropy).generate_state(n_words)`` as Python ints."""
    pool = _pool(entropy)
    h = _INIT_B
    out = []
    for i in range(n_words):
        v = pool[i % _POOL_SIZE] ^ h
        h = (h * _MULT_B) & _MASK32
        v = (v * h) & _MASK32
        out.append(v ^ (v >> 16))
    return out


class PCG64:
    """The stream of numpy's ``default_rng(seed)``."""

    def __init__(self, seed):
        w = generate_state(seed, 8)
        # four little-endian 64-bit words: the initial state, then the stream
        s0, s1, i0, i1 = (w[k] | w[k + 1] << 32 for k in range(0, 8, 2))
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        # one step from state 0 gives inc; add the initial state, step again
        self._state = (self._inc + (s0 << 64 | s1)) & _MASK128
        self._step()

    def _step(self):
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128

    def _next64(self) -> int:
        self._step()
        s = self._state
        x, rot = ((s >> 64) ^ s) & _MASK64, s >> 122
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def random(self) -> float:
        """A uniform double in [0, 1): the top 53 bits of the next word."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()
