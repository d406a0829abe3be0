"""Pooled DNN acceleration and the oversubscription study (paper §V-D/E)."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "accelerator": ("DnnAccelerator", "DnnAcceleratorConfig"),
    "distributed": ("DistributedMlp", "split_layers"),
    "mlp": ("Mlp", "relu", "softmax", "synthetic_classification"),
    "pool": ("STRESS_RATE_MULTIPLIER", "SUSTAINABLE_CLIENTS_PER_FPGA",
             "DnnPool", "OversubscriptionResult", "RemoteNetworkModel",
             "oversubscription_sweep", "run_oversubscription_point"),
})
