"""Framework presets: Holmes and the baselines it is compared against.

Every preset is a policy bundle over the same simulation engine, so
framework comparisons (paper Figure 6/7, Table 5) differ only in declared
policy:

=================  ==========  ============  ===========  =========
framework          placement   partition     optimizer    NIC-aware
=================  ==========  ============  ===========  =========
holmes             holmes      self_adapting overlapped   yes
megatron-lm        identity    uniform       distributed  no
megatron-deepspeed identity    uniform       distributed  no
megatron-llama     identity    uniform       overlapped   no
=================  ==========  ============  ===========  =========

"NIC-aware: no" means that in a heterogeneous NIC environment the framework
cannot negotiate per-group RDMA and falls back to TCP over Ethernet for all
inter-node traffic (paper §3.2: "traditional data parallelism ... can only
support using the low-speed Ethernet NIC ... in the heterogeneous
environment").  In homogeneous environments the baselines use RDMA normally.
"""

from repro._lazy import lazy_exports

__all__ = [
    "FrameworkSpec",
    "HOLMES",
    "holmes_ablation",
    "MEGATRON_LM",
    "MEGATRON_DEEPSPEED",
    "MEGATRON_LLAMA",
    "FRAMEWORKS",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.frameworks.base": ("FrameworkSpec",),
    "repro.frameworks.holmes": ("HOLMES", "holmes_ablation"),
    "repro.frameworks.megatron_lm": ("MEGATRON_LM",),
    "repro.frameworks.megatron_deepspeed": ("MEGATRON_DEEPSPEED",),
    "repro.frameworks.megatron_llama": ("MEGATRON_LLAMA",),
    "repro.frameworks.registry": ("FRAMEWORKS",),
})
