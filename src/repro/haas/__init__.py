"""Hardware-as-a-Service: RM / SM / FM control plane (paper §V-F)."""

from .audit import AuditReport, AuditViolation, audit_journal
from .constraints import Constraints, Locality, group_key, select_hosts
from .fpga_manager import FpgaHealth, FpgaManager
from .journal import Journal, JournalRecord, RecoveredState
from .leases import EPOCH_STRIDE, Lease, LeaseState, lease_id_for
from .resource_manager import (
    DEFAULT_LEASE_SECONDS,
    AllocationError,
    LeaseExpired,
    ResourceManager,
    RmStats,
)
from .rpc import (
    RpcChannel,
    RpcConfig,
    RpcError,
    RpcStats,
    RpcTimeout,
    ServerUnavailable,
)
from .service_manager import ServiceManager, SmStats

__all__ = [
    "AllocationError",
    "AuditReport",
    "AuditViolation",
    "Constraints",
    "DEFAULT_LEASE_SECONDS",
    "EPOCH_STRIDE",
    "FpgaHealth",
    "FpgaManager",
    "Journal",
    "JournalRecord",
    "Lease",
    "LeaseExpired",
    "LeaseState",
    "Locality",
    "RecoveredState",
    "ResourceManager",
    "RmStats",
    "RpcChannel",
    "RpcConfig",
    "RpcError",
    "RpcStats",
    "RpcTimeout",
    "ServerUnavailable",
    "ServiceManager",
    "SmStats",
    "audit_journal",
    "group_key",
    "lease_id_for",
    "select_hosts",
]
