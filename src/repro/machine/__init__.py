"""Hardware models for the Maia system (SGI Rackable C1104G-RP5).

Everything here is parameterized by frozen spec dataclasses whose default
values come from the paper's Table 1 and Section 2:

* :mod:`repro.machine.spec` — the dataclasses themselves,
* :mod:`repro.machine.cache` — cache-hierarchy walk model (Figs 5–6),
* :mod:`repro.machine.memory` — DDR3 channel / GDDR5 bank models (Fig 4),
* :mod:`repro.machine.core` — core issue/threading model,
* :mod:`repro.machine.processor` — Sandy Bridge / Xeon Phi assemblies,
* :mod:`repro.machine.pcie` — PCIe links with TLP framing (Fig 18),
* :mod:`repro.machine.interconnect` — QPI, Phi ring, FDR InfiniBand,
* :mod:`repro.machine.node` — the host+Phi0+Phi1 node topology,
* :mod:`repro.machine.system` — the 128-node cluster,
* :mod:`repro.machine.presets` — ready-made Maia factory functions.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CacheLevel",
    "CacheWalkModel",
    "CoreSpec",
    "Device",
    "DramModel",
    "Gddr5Model",
    "InfiniBandSpec",
    "MaiaNode",
    "MaiaSystem",
    "MemorySpec",
    "NodeSpec",
    "PcieLink",
    "PcieSpec",
    "Processor",
    "ProcessorSpec",
    "QpiSpec",
    "RingSpec",
    "SystemSpec",
    "ThreadScaling",
    "maia_host_processor",
    "maia_node",
    "maia_system",
    "sandy_bridge_host",
    "sandy_bridge_processor",
    "xeon_phi_5110p",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.machine.cache": ["CacheWalkModel"],
        "repro.machine.core": ["ThreadScaling"],
        "repro.machine.interconnect": ["InfiniBandSpec", "QpiSpec", "RingSpec"],
        "repro.machine.memory": ["DramModel", "Gddr5Model"],
        "repro.machine.node": ["Device", "MaiaNode"],
        "repro.machine.pcie": ["PcieLink"],
        "repro.machine.presets": [
            "maia_host_processor",
            "maia_node",
            "maia_system",
            "sandy_bridge_host",
            "sandy_bridge_processor",
            "xeon_phi_5110p",
        ],
        "repro.machine.processor": ["Processor"],
        "repro.machine.spec": [
            "CacheLevel",
            "CoreSpec",
            "MemorySpec",
            "NodeSpec",
            "PcieSpec",
            "ProcessorSpec",
            "SystemSpec",
        ],
        "repro.machine.system": ["MaiaSystem"],
    },
)
