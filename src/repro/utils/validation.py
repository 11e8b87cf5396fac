"""Argument-validation helpers shared by the public API surface.

The numeric code validates once, at its public boundary, and runs trusted
kernels behind it.

**Entry points that check their inputs** (NaN/Inf and shapes):

* models: ``ELM.fit`` / ``predict`` / ``hidden``, ``OSELM.init_train`` /
  ``partial_fit`` / ``seq_train_step`` (and the FPGA overrides);
* the public :class:`~repro.core.qfunction.QFunction` methods (through the
  model entry points above);
* linear algebra: ``sherman_morrison_update``, ``woodbury_update``,
  ``beta_update`` and ``RecursiveInverse`` (construction and ``update``);
* agents: construction (``AgentConfig``), and every ``act`` / ``observe``
  input, checked once per call with :func:`check_finite_vector` (states),
  :func:`check_finite_scalar` (rewards and the derived Q-learning target)
  and a range test (actions).

**Trusted kernels** are what the agent's per-step path calls below that
boundary: ``ELM._hidden_rows`` / ``_predict_rows``,
``OSELM._seq_train_row``, ``QFunction._rows_for`` / ``_q_row``,
``EpsilonGreedyPolicy._select``, ``RecursiveInverse._rank1`` and
``linalg.incremental.rank1_update``.  They assume float64 arrays of the
right shape whose entries are finite, and do not re-check them.  What they
still guarantee:

* a rank-1 update whose ``P`` or ``beta`` comes out non-finite raises
  ``ValueError`` on that update (one check of the output, so a NaN planted
  in ``P`` cannot propagate silently);
* a Sherman-Morrison denominator ``<= 0`` skips the update and reports it
  to the caller, which counts it (``OSELMQAgent.skipped_updates``).

The kernels evaluate the same numpy expressions as the public functions, in
the same shapes, so the trusted path is bit-identical to the validated one.
The batched lock-step strategy (:mod:`repro.training.strategies`) runs its
own stacked kernels on the vector env's observations and does not re-check
them either.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.exceptions import ShapeError


def check_array(value: object, *, name: str = "array", dtype: Union[type, np.dtype] = np.float64,
                allow_nan: bool = False) -> np.ndarray:
    """Coerce ``value`` to an ndarray of ``dtype`` and reject NaN/Inf unless allowed."""
    arr = np.asarray(value, dtype=dtype)
    if not allow_nan and arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf values")
    return arr


def ensure_2d(value: object, *, name: str = "array", n_features: Optional[int] = None,
              dtype: Union[type, np.dtype] = np.float64) -> np.ndarray:
    """Coerce ``value`` to a 2-D float array of shape ``(batch, n_features)``.

    1-D inputs are promoted to a single-row batch (the paper fixes the OS-ELM
    batch size at 1, so single samples are the common case).
    """
    arr = check_array(value, name=name, dtype=dtype)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 1-D or 2-D, got shape {arr.shape}")
    if n_features is not None and arr.shape[1] != n_features:
        raise ShapeError(
            f"{name} must have {n_features} features, got {arr.shape[1]} (shape {arr.shape})"
        )
    return arr


def check_finite_vector(value: object, size: int, *, name: str = "array") -> np.ndarray:
    """Coerce ``value`` to a finite float64 vector of ``size`` elements.

    The per-step check of an agent input: one coercion, one size test and
    one sum.  A finite sum proves every element finite; only a non-finite
    one (a NaN/Inf element, or an overflow) pays for the element-wise test.
    """
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != (size,):
        if arr.size != size:
            raise ShapeError(f"{name} must have {size} elements, got shape {arr.shape}")
        arr = arr.reshape(size)
    if not math.isfinite(arr.sum()) and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf values")
    return arr


def check_finite_scalar(value: float, *, name: str = "value") -> float:
    """Coerce ``value`` to a float and reject NaN/Inf."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} is NaN or Inf")
    return value


def check_positive(value: float, *, name: str = "value", strict: bool = True) -> float:
    """Validate that a scalar is positive (or non-negative when ``strict=False``)."""
    value = float(value)
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(value: float, *, name: str = "probability") -> float:
    """Validate that a scalar lies in [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_in_range(value: float, low: float, high: float, *, name: str = "value",
                   inclusive: Tuple[bool, bool] = (True, True)) -> float:
    """Validate that a scalar lies in the interval [low, high] (or open variants)."""
    value = float(value)
    low_ok = value >= low if inclusive[0] else value > low
    high_ok = value <= high if inclusive[1] else value < high
    if not (low_ok and high_ok):
        brackets = ("[" if inclusive[0] else "(", "]" if inclusive[1] else ")")
        raise ValueError(f"{name} must be in {brackets[0]}{low}, {high}{brackets[1]}, got {value}")
    return value


def check_choice(value: str, choices: Sequence[str], *, name: str = "value") -> str:
    """Validate that ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {sorted(choices)}, got {value!r}")
    return value
