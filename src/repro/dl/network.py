"""Network composition and the parking-occupancy model.

:class:`SequentialNetwork` is a generic layer pipeline with MAC counting.
:class:`ParkingNet` is the use case's model: a small convolutional feature
extractor followed by a per-spot logistic classifier whose weights are
trained (by plain gradient descent on the synthetic dataset) inside
:meth:`ParkingNet.train`.  It reports per-spot occupancy and the number of
free spots, the quantity the application transmits to the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.dl.dataset import ParkingDataset, ParkingScene
from repro.dl.layers import Conv2D, Dense, Layer, MaxPool2D, ReLU, sigmoid
from repro.dl.quantize import QuantizedDense


@dataclass
class SequentialNetwork:
    """A simple feed-forward stack of layers."""

    layers: List[Layer] = field(default_factory=list)
    name: str = "network"

    def forward(self, tensor: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            tensor = layer.forward(tensor)
        return tensor

    __call__ = forward

    def macs(self, input_shape: Tuple[int, ...]) -> int:
        """Total multiply-accumulate operations of one inference."""
        total = 0
        shape = input_shape
        tensor = np.zeros(shape)
        for layer in self.layers:
            total += layer.macs(tensor.shape)
            tensor = layer.forward(tensor)
        return total


@dataclass
class ParkingNet:
    """Free-parking-spot detector for the DL use case."""

    dataset_geometry: ParkingDataset
    conv: Conv2D = None
    classifier: Dense = None
    quantized: bool = False
    _quantized_classifier: Optional[QuantizedDense] = None

    FEATURES_PER_SPOT = 3

    def __post_init__(self):
        if self.conv is None:
            # An edge-ish filter bank: identity/average, horizontal and
            # vertical gradients; enough for bright-car-on-dark-asphalt.
            kernels = np.zeros((3, 3, 1, 2))
            kernels[:, :, 0, 0] = 1.0 / 9.0                      # local mean
            kernels[:, :, 0, 1] = np.array([[1, 0, -1]] * 3) / 6.0  # vertical edge
            self.conv = Conv2D(weights=kernels)
        if self.classifier is None:
            self.classifier = Dense(
                weights=np.zeros((1, self.FEATURES_PER_SPOT)),
                bias=np.zeros(1))

    # -- feature extraction ---------------------------------------------------------
    def _feature_map(self, image: np.ndarray) -> np.ndarray:
        features = self.conv.forward(image)
        features = ReLU().forward(features)
        return MaxPool2D(size=2).forward(features)

    def spot_features(self, image: np.ndarray) -> np.ndarray:
        """Per-spot feature vectors, shape (spots, FEATURES_PER_SPOT)."""
        feature_map = self._feature_map(image)
        spots = self.dataset_geometry.spots
        columns = feature_map.shape[1]
        per_spot = columns / spots
        rows = []
        for index in range(spots):
            left = int(round(index * per_spot))
            right = max(int(round((index + 1) * per_spot)), left + 1)
            region = feature_map[:, left:right, :]
            rows.append([
                float(region[:, :, 0].mean()),
                float(region[:, :, 0].std()),
                float(np.abs(region[:, :, 1]).mean()),
            ])
        return np.array(rows)

    # -- training --------------------------------------------------------------------
    def train(self, scenes: Sequence[ParkingScene], epochs: int = 200,
              learning_rate: float = 0.5) -> float:
        """Train the per-spot logistic classifier; returns final training loss."""
        if not scenes:
            raise ValueError("no training scenes")
        features = []
        labels = []
        for scene in scenes:
            for spot, spot_features in enumerate(self.spot_features(scene.image)):
                features.append(spot_features)
                labels.append(1.0 if scene.occupancy[spot] else 0.0)
        x = np.array(features)
        y = np.array(labels)
        # Standardise features for stable gradient descent.
        self._mean = x.mean(axis=0)
        self._std = x.std(axis=0) + 1e-9
        x = (x - self._mean) / self._std

        weights = np.zeros(x.shape[1])
        bias = 0.0
        loss = float("inf")
        for _ in range(epochs):
            logits = x @ weights + bias
            predictions = sigmoid(logits)
            error = predictions - y
            weights -= learning_rate * (x.T @ error) / len(y)
            bias -= learning_rate * error.mean()
            loss = float(np.mean(
                -(y * np.log(predictions + 1e-12)
                  + (1 - y) * np.log(1 - predictions + 1e-12))))
        self.classifier = Dense(weights=weights.reshape(1, -1),
                                bias=np.array([bias]))
        self._quantized_classifier = None
        return loss

    def quantize(self, bits: int = 8) -> None:
        """Switch the classifier to int8 arithmetic (the quantised version)."""
        self._quantized_classifier = QuantizedDense.from_dense(self.classifier, bits)
        self.quantized = True

    # -- inference --------------------------------------------------------------------
    def predict_occupancy(self, image: np.ndarray) -> List[bool]:
        features = self.spot_features(image)
        features = (features - getattr(self, "_mean", 0.0)) \
            / getattr(self, "_std", 1.0)
        classifier: Layer = (self._quantized_classifier
                             if self.quantized and self._quantized_classifier
                             else self.classifier)
        occupancy = []
        for row in features:
            logit = classifier.forward(row)[0]
            occupancy.append(bool(sigmoid(np.array([logit]))[0] > 0.5))
        return occupancy

    def count_free_spots(self, image: np.ndarray) -> int:
        return sum(1 for occupied in self.predict_occupancy(image) if not occupied)

    def accuracy(self, scenes: Sequence[ParkingScene]) -> float:
        """Per-spot classification accuracy over ``scenes``."""
        correct = 0
        total = 0
        for scene in scenes:
            predicted = self.predict_occupancy(scene.image)
            for expectation, prediction in zip(scene.occupancy, predicted):
                correct += int(expectation == prediction)
                total += 1
        return correct / total if total else 0.0

    # -- deployment metadata --------------------------------------------------------------
    def inference_macs(self) -> int:
        """MACs of one full-frame inference (work units for complex cores)."""
        height, width = self.dataset_geometry.image_shape
        conv_macs = self.conv.macs((height, width, 1))
        classifier_macs = (self.dataset_geometry.spots
                           * self.classifier.macs((self.FEATURES_PER_SPOT,)))
        return conv_macs + classifier_macs
