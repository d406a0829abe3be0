"""repro — a simulation reproduction of *A Cloud-Scale Acceleration
Architecture* (Catapult v2, MICRO 2016).

The package is organized bottom-up:

* :mod:`repro.sim` — discrete-event kernel,
* :mod:`repro.net` — the shared datacenter Ethernet (TOR/L1/L2, PFC,
  DC-QCN),
* :mod:`repro.torus` — the Catapult v1 6x8 torus baseline,
* :mod:`repro.router` — the Elastic Router (intra-FPGA crossbar),
* :mod:`repro.ltl` — the Lightweight Transport Layer,
* :mod:`repro.fpga` — board, shell, bridge, reconfig, SEU, power,
* :mod:`repro.crypto` — real AES/CBC/GCM/SHA-1 + §IV timing models,
* :mod:`repro.ranking` — Bing ranking acceleration (Figs. 6-8, 11),
* :mod:`repro.dnn` — pooled DNN accelerators (Fig. 12),
* :mod:`repro.haas` — Hardware-as-a-Service control plane,
* :mod:`repro.faults` — deterministic fault-injection campaigns,
* :mod:`repro.trace` — per-hop latency attribution,
* :mod:`repro.deployment` — the 5,760-server reliability study,
* :mod:`repro.core` — the :class:`~repro.core.cloud.ConfigurableCloud`
  facade tying everything together.

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results of every figure and table.
"""

from importlib import import_module

__version__ = "1.0.0"


def _lazy_exports(namespace, table):
    """PEP 562 exports of a ``repro`` package: ``(__all__, __getattr__,
    __dir__)`` for the package whose globals are ``namespace``, from
    ``table``, which maps each submodule (relative to the package) to
    the public names it defines.

    Importing the package loads none of its submodules, so a run loads
    only the modules whose names it uses.  ``__getattr__`` imports a
    name's submodule when the name is first looked up and binds the name
    in ``namespace``, where later lookups find it; any other name raises
    :class:`AttributeError`.  ``__dir__`` lists the public names whether
    or not they are loaded yet.
    """
    package = namespace["__name__"]
    home = {name: module for module, names in table.items()
            for name in names}

    def __getattr__(name):
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(
            import_module(f".{module}", package), name)
        return value

    def __dir__():
        return sorted(namespace.keys() | home.keys())

    return sorted(home), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "core.cloud": ("ConfigurableCloud",),
    "core.metrics": ("LatencyRecorder",),
    "core.server": ("Server",),
    "faults.campaign": ("CampaignConfig", "FaultEvent", "FaultKind",
                        "generate_campaign"),
    "faults.injector": ("FaultInjector",),
    "fpga.shell": ("Shell", "ShellConfig"),
    "ltl.engine": ("LtlConfig", "LtlEngine", "connect_pair"),
    "net.fabric": ("DatacenterFabric",),
    "net.topology": ("TopologyConfig",),
    "router.elastic_router": ("ElasticRouter",),
    "sim.kernel": ("Environment",),
    "trace.context": ("TraceContext",),
    "trace.recorder": ("TraceRecorder", "TraceReport"),
    "trace.stages": ("Stage",),
})
__all__.append("__version__")
