"""Address obfuscation (paper, section 5.4).

GOLF hides pointers to blocked goroutines held by *global runtime
structures* — the all-goroutines array and the semaphore table — from the
marking phase by flipping the highest-order bit of the stored addresses.
Marking ignores masked addresses; when the detector proves a goroutine
reachably live, the pointer is unmasked and (re)scheduled for marking.

In this reproduction the same mechanism appears in two forms:

- :data:`MASK_BIT` arithmetic applied to semaphore-table keys, installed
  into the scheduler as its ``mask_key`` policy when GOLF is active, so
  the table genuinely stores obfuscated addresses (tests assert this);
- the ``masked`` flag on goroutine descriptors, which the marker checks
  before tracing a descriptor reached through ordinary references — the
  moral equivalent of ignoring a masked address.
"""

from __future__ import annotations

from typing import Iterable

from repro.runtime.goroutine import Goroutine

#: The flipped high-order bit for a simulated 64-bit address space.
MASK_BIT = 1 << 63


def mask_addr(addr: int) -> int:
    """Obfuscate an address (idempotent)."""
    return addr | MASK_BIT


def unmask_addr(addr: int) -> int:
    """Recover the original address."""
    return addr & ~MASK_BIT


def is_masked(addr: int) -> bool:
    return bool(addr & MASK_BIT)


def unmask_all(goroutines: Iterable[Goroutine]) -> None:
    """Clear every mask after a cycle completes."""
    for g in goroutines:
        g.masked = False
