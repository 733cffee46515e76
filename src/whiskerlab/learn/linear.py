"""One-vs-rest linear classifier trained on the hinge loss.

Features are standardized with statistics from the training set only.  Each
class gets a linear score trained by full-batch subgradient descent on
mean hinge loss plus an L2 penalty, for a fixed epoch budget; there is no
sampling, so training is deterministic.  Each epoch walks the standardized
rows in fixed blocks sized from the shape, small enough that the BLAS
products do not depend on its thread count, and adds the block sums in a
fixed order, so the weights do not depend on the thread count either.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import DataFileError, Validated, check_array
from .base import Classifier


# Multiply-adds per block product.  Above roughly 256 x 700 x 10 of them per
# product, the OpenBLAS bundled with numpy (0.3.31) returns sums that depend
# on its thread count (ROADMAP item 2); 128 x 700 x 10 stays below that.
_BLOCK_MULADDS = 128 * 700 * 10


def _block_rows(d: int, n_classes: int) -> int:
    """Rows per block of a fit on ``d`` features and ``n_classes`` classes."""
    return max(1, _BLOCK_MULADDS // (d * n_classes))


@dataclass(frozen=True)
class LinearParams(Validated):
    reg: float = 1.0  # L2 penalty weight
    epochs: int = 400
    learning_rate: float = 0.05

    BOUNDS = {"reg": "[0, inf)", "epochs": "[1, inf)", "learning_rate": "(0, inf)"}


class LinearMarginClassifier(Classifier):
    kind = "linear_margin"
    params_cls = LinearParams
    weights_: np.ndarray
    bias_: np.ndarray
    mean_: np.ndarray
    scale_: np.ndarray

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearMarginClassifier":
        yi = self._encode_labels(y)

        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        self.scale_ = np.where(std > 0, std, 1.0)
        Xs = (X - self.mean_) / self.scale_

        n, d = Xs.shape
        n_classes = len(self.classes_)
        targets = np.full((n, n_classes), -1.0)
        targets[np.arange(n), yi] = 1.0

        rows = _block_rows(d, n_classes)
        blocks = [(Xs[s:s + rows], targets[s:s + rows]) for s in range(0, n, rows)]
        W = np.zeros((d, n_classes))
        b = np.zeros(n_classes)
        lr = self.params.learning_rate
        for _ in range(self.params.epochs):
            # Each block's forward and backward products run while it is in
            # cache, and the block sums are added in block order.  The first
            # block's sums start the totals instead of being added to zeros,
            # so a fit of one block does the unblocked arithmetic exactly.
            for i, (xb, tb) in enumerate(blocks):
                margins = tb * (xb @ W + b)
                active = tb * (margins < 1.0)  # subgradient of hinge wrt score
                if i == 0:
                    xta, active_sum = xb.T @ active, active.sum(axis=0)
                else:
                    xta += xb.T @ active
                    active_sum += active.sum(axis=0)
            grad_W = self.params.reg * W - xta / n
            grad_b = -active_sum / n
            W -= lr * grad_W
            b -= lr * grad_b
        self.weights_, self.bias_ = W, b
        self.n_features_ = d
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        try:  # finite but huge loaded weights can overflow; fitted ones do not
            with np.errstate(over="raise", invalid="raise"):
                Xs = (X - self.mean_) / self.scale_
                return Xs @ self.weights_ + self.bias_
        except FloatingPointError as exc:
            raise DataFileError(f"{self.kind} scores overflow ({exc})") from exc

    def _state_dict(self) -> dict:
        return {
            "weights": self.weights_.tolist(),
            "bias": self.bias_.tolist(),
            "mean": self.mean_.tolist(),
            "scale": self.scale_.tolist(),
        }

    def _load_state(self, obj: dict) -> None:
        arrays = [check_array(k, obj[k], float) for k in ("weights", "bias", "mean", "scale")]
        self.weights_, self.bias_, self.mean_, self.scale_ = arrays
        self.n_features_ = d = len(self.mean_)
        shapes = tuple(a.shape for a in arrays)
        if shapes != ((d, len(self.classes_)), (len(self.classes_),), (d,), (d,)):
            raise ValueError(f"weights, bias, mean and scale shapes {shapes} do not agree")
        if not (self.scale_ > 0).all():
            raise ValueError("scale must be positive")
