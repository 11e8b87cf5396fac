"""Reinforcement-learning helpers around the training loop.

Greedy evaluation of a trained agent (:func:`evaluate_agent`) and the
exploration schedules.  Training itself runs through
:class:`repro.training.Trainer`.
"""

from repro.rl.runner import evaluate_agent
from repro.rl.schedule import ConstantSchedule, ExponentialDecaySchedule, LinearSchedule

__all__ = [
    "evaluate_agent",
    "ConstantSchedule",
    "ExponentialDecaySchedule",
    "LinearSchedule",
]
