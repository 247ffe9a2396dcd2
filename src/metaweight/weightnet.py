"""The weighting network: a tiny MLP mapping a scalar loss to a weight.

It is 1 -> hidden (ReLU layers) -> 1 with a sigmoid head, so every weight
lies in (0, 1). A loss vector's shape is checked where it enters, and a
saved net's document where `load_mwnet` reads it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from metaweight import _read_json, _stage, _write_json
from metaweight.nnet import DenseNet, ForwardCache, LayerSpec, forward, init_net, mlp, outputs, per_sample_gradients

INIT_SCALE = 0.1


@dataclass
class MWNet:
    """Wrapper pinning the 1-in / 1-out sigmoid-head shape."""

    net: DenseNet

    def __post_init__(self):
        specs = self.net.layers
        if specs[0].input_dim != 1:
            raise ValueError("weight net takes a single scalar input")
        if specs[-1].output_dim != 1 or specs[-1].activation != "sigmoid":
            raise ValueError("weight net head must be a single sigmoid unit")
        for spec in specs[:-1]:
            if spec.activation != "relu":
                raise ValueError("weight net hidden layers must be relu")

    @property
    def theta(self) -> np.ndarray:
        return self.net.params

    @property
    def param_count(self) -> int:
        return self.net.param_count

    def with_theta(self, theta: np.ndarray) -> "MWNet":
        """This net with parameter vector `theta` (`DenseNet.with_params`)."""
        mwnet = object.__new__(MWNet)
        mwnet.net = self.net.with_params(theta)
        return mwnet


def init_mwnet(hidden: tuple[int, ...] = (100,), seed: int = 0) -> MWNet:
    """A net with weights shrunk by INIT_SCALE, so that its sigmoid starts
    near its midpoint and maps every loss to about 0.5."""
    if not hidden or any(h < 1 for h in hidden):
        raise ValueError("hidden layer sizes must be positive")
    net = init_net(mlp((1, *hidden, 1), "sigmoid"), seed)
    return MWNet(net.with_params(net.params * INIT_SCALE))


def _column(losses: np.ndarray) -> np.ndarray:
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1:
        raise ValueError(f"losses must be a 1-d vector, got shape {losses.shape}")
    return losses.reshape(-1, 1)


def mw_forward_cache(mwnet: MWNet, losses: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """`mw_forward` in one pass, plus the cache of that pass."""
    out, cache = forward(mwnet.net, _column(losses))
    return out[:, 0], cache


def mw_forward(mwnet: MWNet, losses: np.ndarray) -> np.ndarray:
    """The weights of a loss vector, in row blocks (`nnet.outputs`)."""
    return outputs(mwnet.net, _column(losses))[:, 0]


def mw_jacobian(mwnet: MWNet, losses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weights and their exact (len(losses), param_count) Jacobian d(weight_i)/d(theta)."""
    weights, cache = mw_forward_cache(mwnet, losses)
    jac = per_sample_gradients(mwnet.net, cache, np.ones((weights.size, 1)))
    return weights, jac


def normalizer(weights: np.ndarray) -> float:
    """`normalize`'s denominator, unchecked: the sum, or 1 when all weights
    are 0 (any positive stand-in gives the same zeros)."""
    total = float(weights.sum())
    return total if total > 0.0 else 1.0


def normalize(weights: np.ndarray) -> np.ndarray:
    """Rescale a float64 vector of weights to sum to 1; an all-zero vector
    maps to all zeros. A negative or non-finite weight raises."""
    if (weights < 0).any() or not np.isfinite(weights).all():
        raise ValueError("weights must be finite and nonnegative")
    return weights / normalizer(weights)


def save_mwnet(mwnet: MWNet, path) -> None:
    _write_json(path, {"layers": [asdict(spec) for spec in mwnet.net.layers], "params": mwnet.net.params.tolist()})


def load_mwnet(path) -> MWNet:
    """Read a `save_mwnet` file; a fault names the file and the field."""
    with _stage(f"{path}: "):
        return _parse_mwnet(_read_json(path))


def _parse_mwnet(payload) -> MWNet:
    if not isinstance(payload, dict) or sorted(payload) != ["layers", "params"]:
        raise ValueError("need a JSON object with exactly the keys 'layers' and 'params'")
    layers, params = payload["layers"], payload["params"]
    if not isinstance(layers, list):
        raise ValueError("layers must be a list")
    keys = sorted(f.name for f in fields(LayerSpec))
    specs = []
    for k, record in enumerate(layers):
        if not isinstance(record, dict) or sorted(record) != keys:
            raise ValueError(f"layers[{k}] must be an object with exactly the keys {keys}")
        if type(record["input_dim"]) is not int or type(record["output_dim"]) is not int:
            raise ValueError(f"layers[{k}] dims must be integers")
        with _stage(f"layers[{k}]: "):
            specs.append(LayerSpec(**record))
    if not isinstance(params, list) or not all(type(v) in (int, float) for v in params):
        raise ValueError("params must be a list of numbers")
    return MWNet(DenseNet(specs, np.array(params, dtype=np.float64)))
