"""Transformer model specifications.

No weights are ever materialised — the paper's metrics (TFLOPS, samples/s)
depend only on *counts*: parameters (Eq. 5), floating-point operations
(Eq. 6), and the byte sizes of activations, gradients, and optimizer state.
This subpackage computes those counts exactly as the paper defines them.
"""

from repro._lazy import lazy_exports

__all__ = [
    "GPTConfig",
    "parameter_count",
    "layer_parameter_counts",
    "flops_per_iteration",
    "layer_flops_per_microbatch",
    "logit_flops_per_microbatch",
    "activation_message_bytes",
    "gradient_bytes",
    "optimizer_state_bytes",
    "parameter_bytes",
    "LayerKind",
    "LayerSpec",
    "build_layer_stack",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.model.config": ("GPTConfig",),
    "repro.model.params": ("parameter_count", "layer_parameter_counts"),
    "repro.model.flops": (
        "flops_per_iteration",
        "layer_flops_per_microbatch",
        "logit_flops_per_microbatch",
    ),
    "repro.model.memory": (
        "activation_message_bytes",
        "gradient_bytes",
        "optimizer_state_bytes",
        "parameter_bytes",
    ),
    "repro.model.layers": ("LayerKind", "LayerSpec", "build_layer_stack"),
})
