"""The GOLF core: reachable-liveness detection, masking, recovery."""

from repro import lazy_exports

_EXPORTS = {
    "CheckpointError": "checkpoint",
    "CheckpointManager": "checkpoint",
    "RecoveryRecord": "checkpoint",
    "WorkerSpec": "checkpoint",
    "GolfConfig": "config",
    "DetectionResult": "detector",
    "detect": "detector",
    "DeadlockReport": "reports",
    "ReportLog": "reports",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
