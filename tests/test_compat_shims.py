"""The removed deprecation shims stay removed: canonical keyword forms
work silently, legacy positional/renamed forms raise ``TypeError``."""

import warnings

import pytest

from repro.core.engine import TrainingSimulation
from repro.core.optimizer import STRATEGIES
from repro.core.scheduler import HolmesScheduler
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.hardware.nic import NICType
from repro.hardware.presets import homogeneous_topology
from repro.model.config import GPTConfig
from repro.network.costmodel import CostModelConfig
from repro.network.fabric import Fabric
from repro.nn.parallel_train import SingleTrainer
from repro.nn.model import TinyGPTConfig
from repro.parallel.degrees import ParallelConfig
from repro.simcore.engine import SimEngine

TOPO = homogeneous_topology(2, NICType.INFINIBAND, gpus_per_node=2)
MODEL = GPTConfig(num_layers=8, hidden_size=512, num_attention_heads=8,
                  seq_length=256, vocab_size=4096)
NN_CONFIG = TinyGPTConfig(vocab_size=17, seq_length=4, hidden_size=8,
                          num_blocks=1, num_heads=2)


def small_plan():
    parallel = ParallelConfig(tensor=1, pipeline=2, data=2,
                              micro_batch_size=2, global_batch_size=16)
    return HolmesScheduler().plan(TOPO, parallel, MODEL)


class TestFabricKeywordOnly:
    def test_canonical_keywords_are_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fabric = Fabric(TOPO, cost_config=CostModelConfig(comm_rebuild_time=1.25),
                            engine=SimEngine())
        assert fabric.cost_model.config.comm_rebuild_time == 1.25

    def test_positional_use_raises(self):
        with pytest.raises(TypeError):
            Fabric(TOPO, CostModelConfig())

    def test_legacy_config_spelling_raises(self):
        with pytest.raises(TypeError):
            Fabric(TOPO, config=CostModelConfig())

    def test_legacy_metrics_spelling_raises(self):
        from repro.obs.registry import MetricsRegistry

        with pytest.raises(TypeError):
            Fabric(TOPO, metrics=MetricsRegistry())


class TestTrainingSimulationKeywordOnly:
    def test_canonical_keywords_are_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim = TrainingSimulation(small_plan(), MODEL, schedule="gpipe",
                                     optimizer=STRATEGIES["allreduce"])
        assert sim.schedule_kind == "gpipe"
        assert sim.optimizer is STRATEGIES["allreduce"]

    def test_positional_use_raises(self):
        with pytest.raises(TypeError):
            TrainingSimulation(small_plan(), MODEL, STRATEGIES["allreduce"], "gpipe")


class TestFaultInjectorKeywordOnly:
    def _fabric(self):
        return Fabric(TOPO, engine=SimEngine())

    def _plan(self):
        return FaultPlan(
            events=(FaultEvent(time=0.1, kind=FaultKind.NIC_FLAP, node=0, duration=0.2),)
        )

    def test_canonical_keywords_are_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FaultInjector(self._plan(), self._fabric(), trace=None)

    def test_positional_trace_raises(self):
        from repro.simcore.trace import TraceRecorder

        with pytest.raises(TypeError):
            FaultInjector(self._plan(), self._fabric(), TraceRecorder(enabled=True))


class TestKnobRenamesRemoved:
    def test_num_microbatches_is_canonical(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trainer = SingleTrainer(NN_CONFIG, num_microbatches=2)
        assert trainer.num_microbatches == 2

    def test_legacy_micro_batches_raises(self):
        with pytest.raises(TypeError):
            SingleTrainer(NN_CONFIG, micro_batches=2)

    def test_micro_batches_attribute_alias_removed(self):
        trainer = SingleTrainer(NN_CONFIG, num_microbatches=3)
        with pytest.raises(AttributeError):
            trainer.micro_batches
