"""Hardware-as-a-Service: RM / SM / FM control plane (paper §V-F)."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "audit": ("AuditReport", "AuditViolation", "audit_journal"),
    "constraints": ("Constraints", "Locality", "group_key", "select_hosts"),
    "fpga_manager": ("FpgaHealth", "FpgaManager"),
    "journal": ("Journal", "JournalRecord", "RecoveredState"),
    "leases": ("EPOCH_STRIDE", "Lease", "LeaseState", "lease_id_for"),
    "resource_manager": ("DEFAULT_LEASE_SECONDS", "AllocationError",
                         "LeaseExpired", "ResourceManager", "RmStats"),
    "rpc": ("RpcChannel", "RpcConfig", "RpcError", "RpcStats", "RpcTimeout",
            "ServerUnavailable"),
    "service_manager": ("ServiceManager", "SmStats"),
})
