"""The framework presets by name: what ``repro compare`` and the planner's
baselines iterate over."""

from __future__ import annotations

from typing import Dict

from repro.frameworks.base import FrameworkSpec
from repro.frameworks.holmes import HOLMES
from repro.frameworks.megatron_deepspeed import MEGATRON_DEEPSPEED
from repro.frameworks.megatron_llama import MEGATRON_LLAMA
from repro.frameworks.megatron_lm import MEGATRON_LM

FRAMEWORKS: Dict[str, FrameworkSpec] = {
    spec.name: spec
    for spec in (HOLMES, MEGATRON_LM, MEGATRON_DEEPSPEED, MEGATRON_LLAMA)
}
