"""repro: reproduction of "An FPGA-Based On-Device Reinforcement Learning
Approach using Online Sequential Learning" (Watanabe, Tsukada & Matsutani).

The package implements the paper's OS-ELM Q-Network approach to on-device
reinforcement learning together with every substrate it needs: a Gym-style
environment suite, a NumPy backpropagation framework for the DQN baseline,
32-bit Q20 fixed-point arithmetic, and resource / latency models of the
PYNQ-Z1 FPGA platform.

Quickstart
----------
Every paper deliverable runs through the unified experiment API::

    python -m repro run figure4 --ci --backend vectorized

or programmatically:

>>> from repro import run_experiment
>>> report = run_experiment("figure4", scale="ci")
>>> print(report.render())              # doctest: +SKIP

Single agents train through the :class:`Trainer`:

>>> from repro import make_design, Trainer, TrainingConfig
>>> agent = make_design("OS-ELM-L2-Lipschitz", n_hidden=32, seed=0)
>>> result = Trainer().fit(agent, config=TrainingConfig(max_episodes=200))
>>> result.solved, result.episodes      # doctest: +SKIP

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
table/figure reproduction harnesses.
"""

from repro.core import (
    AgentConfig,
    DESIGN_NAMES,
    ELM,
    ELMQAgent,
    OSELM,
    OSELMQAgent,
    QFunction,
    RegularizationConfig,
    design_spec,
    make_design,
)
from repro.baselines import DQNAgent, DQNConfig
from repro.envs import make as make_env
from repro.fpga import (
    FPGAAcceleratedOSELM,
    OSELMCoreResourceModel,
    PYNQ_Z1,
    PynqZ1Platform,
    XC7Z020,
)
from repro.fixedpoint import Q20, QFormat
from repro.rl import evaluate_agent
from repro.training import (
    AgentProtocol,
    Callback,
    CheckpointCallback,
    MetricsRecorder,
    ProgressCallback,
    Trainer,
    TrainingConfig,
    TrainingResult,
)
from repro.parallel import (
    AsyncVectorEnv,
    SubprocVectorEnv,
    SweepResult,
    SweepRunner,
    SweepSpec,
    SyncVectorEnv,
    evaluate_agent_vectorized,
    make_vector,
    pipelined_rollout,
)
from repro.distributed import SweepBroker, run_distributed_sweep, run_worker
from repro import telemetry
from repro.serving import (
    MicroBatcher,
    PolicyClient,
    PolicyServer,
    WeightPushCallback,
    load_spec_policies,
)
from repro.api import (
    ArtifactStore,
    Budget,
    ExperimentSpec,
    RunReport,
    get_spec,
    list_experiments,
    register_experiment,
)
from repro.api import run as run_experiment

__version__ = "1.9.0"

__all__ = [
    "AgentConfig",
    "DESIGN_NAMES",
    "ELM",
    "ELMQAgent",
    "OSELM",
    "OSELMQAgent",
    "QFunction",
    "RegularizationConfig",
    "design_spec",
    "make_design",
    "DQNAgent",
    "DQNConfig",
    "make_env",
    "FPGAAcceleratedOSELM",
    "OSELMCoreResourceModel",
    "PYNQ_Z1",
    "PynqZ1Platform",
    "XC7Z020",
    "Q20",
    "QFormat",
    "TrainingConfig",
    "TrainingResult",
    "evaluate_agent",
    "AgentProtocol",
    "Callback",
    "CheckpointCallback",
    "MetricsRecorder",
    "ProgressCallback",
    "Trainer",
    "AsyncVectorEnv",
    "SubprocVectorEnv",
    "SweepBroker",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "SyncVectorEnv",
    "evaluate_agent_vectorized",
    "make_vector",
    "pipelined_rollout",
    "run_distributed_sweep",
    "run_worker",
    "MicroBatcher",
    "PolicyClient",
    "PolicyServer",
    "WeightPushCallback",
    "load_spec_policies",
    "ArtifactStore",
    "Budget",
    "ExperimentSpec",
    "RunReport",
    "get_spec",
    "list_experiments",
    "register_experiment",
    "run_experiment",
    "telemetry",
    "__version__",
]
