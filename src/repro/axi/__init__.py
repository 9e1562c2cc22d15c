"""AXI4 protocol substrate: types, channels, managers, subordinates."""

from .._lazy import lazy_exports

__all__ = [
    "ArBeat",
    "AwBeat",
    "AxiDir",
    "AxiInterface",
    "BBeat",
    "BurstType",
    "CompletedTransaction",
    "IdRemapTable",
    "Manager",
    "ManagerFaults",
    "RBeat",
    "RandomTraffic",
    "Resp",
    "SparseMemory",
    "Subordinate",
    "SubordinateFaults",
    "TransactionSpec",
    "WBeat",
    "chained_bursts",
    "dma_stream",
    "ethernet_frame_spec",
    "read_spec",
    "remap_id",
    "write_spec",
]

_EXPORTS = {
    "channels": ("ArBeat", "AwBeat", "BBeat", "RBeat", "WBeat", "remap_id"),
    "id_remap": ("IdRemapTable",),
    "interface": ("AxiInterface",),
    "manager": ("CompletedTransaction", "Manager", "ManagerFaults"),
    "memory": ("SparseMemory",),
    "subordinate": ("Subordinate", "SubordinateFaults"),
    "traffic": (
        "RandomTraffic",
        "TransactionSpec",
        "chained_bursts",
        "dma_stream",
        "ethernet_frame_spec",
        "read_spec",
        "write_spec",
    ),
    "types": ("AxiDir", "BurstType", "Resp"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
