"""The simulated Go runtime: goroutines, channels, sync, scheduling."""

from repro import lazy_exports

_EXPORTS = {
    "Runtime": "api",
    "Channel": "channel",
    "Goroutine": "goroutine",
    "GStatus": "goroutine",
    "WaitReason": "waitreason",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
