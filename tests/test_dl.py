"""Tests for the deep-learning substrate (layers, dataset, network, quantisation,
and the TeamPlay-C kernels)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dl.dataset import ParkingDataset
from repro.dl.kernels import (
    conv2d_kernel_source,
    matmul_kernel_source,
    relu_kernel_source,
)
from repro.dl.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Softmax, sigmoid
from repro.dl.network import ParkingNet, SequentialNetwork
from repro.dl.quantize import QuantizedDense, dequantize_tensor, quantize_tensor
from repro.errors import CompilationError
from repro.frontend.lowering import compile_source
from repro.hw.presets import nucleo_stm32f091rc
from repro.sim.machine import Simulator
from repro.usecases.deep_learning import parking_network
from repro.wcet.analyzer import WCETAnalyzer
from oracles import conv2d_forward_reference


class TestLayers:
    def test_conv2d_matches_manual_convolution(self):
        image = np.arange(16, dtype=float).reshape(4, 4)
        kernel = np.zeros((3, 3, 1, 1))
        kernel[1, 1, 0, 0] = 2.0
        conv = Conv2D(weights=kernel)
        output = conv.forward(image)
        assert output.shape == (2, 2, 1)
        assert output[0, 0, 0] == pytest.approx(2 * image[1, 1])

    def test_conv2d_macs(self):
        conv = Conv2D.from_random(3, 1, 4)
        assert conv.macs((10, 10, 1)) == 8 * 8 * 4 * 9

    def test_conv2d_rejects_bad_input(self):
        conv = Conv2D.from_random(3, 2, 1)
        with pytest.raises(ValueError):
            conv.forward(np.zeros((5, 5, 1)))
        with pytest.raises(ValueError):
            conv.forward(np.zeros((2, 2, 2)))

    def test_relu_pool_flatten(self):
        tensor = np.array([[-1.0, 2.0], [3.0, -4.0]])
        assert (ReLU().forward(tensor) >= 0).all()
        pooled = MaxPool2D(2).forward(np.arange(16, dtype=float).reshape(4, 4))
        assert pooled.shape == (2, 2, 1)
        assert pooled[0, 0, 0] == 5.0
        assert Flatten().forward(np.zeros((2, 3, 4))).shape == (24,)

    def test_dense_and_softmax(self):
        dense = Dense(weights=np.array([[1.0, 2.0], [0.5, -1.0]]),
                      bias=np.array([1.0, 0.0]))
        output = dense.forward(np.array([2.0, 3.0]))
        assert output == pytest.approx([9.0, -2.0])
        probabilities = Softmax().forward(output)
        assert probabilities.sum() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            dense.forward(np.zeros(3))

    def test_conv2d_rejects_bias_of_the_wrong_shape(self):
        weights = np.zeros((3, 3, 1, 2))
        for bias in (np.zeros(1), np.zeros(3), np.zeros((2, 1)),
                     np.float64(0.5)):
            with pytest.raises(ValueError, match="bias"):
                Conv2D(weights=weights, bias=bias)
        assert Conv2D(weights=weights, bias=np.ones(2)).bias.shape == (2,)

    def test_max_pool_rejects_bad_sizes(self):
        for size in (0, -1):
            with pytest.raises(ValueError, match="pool size"):
                MaxPool2D(size=size)
        with pytest.raises(ValueError, match="pooling window"):
            MaxPool2D(size=3).forward(np.zeros((2, 5, 1)))
        with pytest.raises(ValueError, match="pooling window"):
            MaxPool2D(size=3).forward(np.zeros((5, 2)))
        assert MaxPool2D(size=1).forward(np.ones((2, 3))).shape == (2, 3, 1)

    def test_sigmoid_stability(self):
        values = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[1] == pytest.approx(0.5)
        assert values[2] == pytest.approx(1.0)

    def test_sequential_network_macs(self):
        network = SequentialNetwork([Conv2D.from_random(3, 1, 2), ReLU(),
                                     Flatten(),
                                     Dense.from_random(2 * 6 * 6, 4)])
        assert network.macs((8, 8, 1)) == 6 * 6 * 2 * 9 + 4 * 72
        assert network.forward(np.zeros((8, 8))).shape == (4,)


@st.composite
def _conv_cases(draw):
    kh, kw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    in_channels = draw(st.integers(1, 4))
    out_channels = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 3))
    height, width = draw(st.integers(kh, 32)), draw(st.integers(kw, 32))
    flat = in_channels == 1 and draw(st.booleans())
    dtype = draw(st.sampled_from(["float64", "float32", "int64"]))
    return (kh, kw, in_channels, out_channels, stride, height, width, flat,
            dtype, draw(st.integers(0, 2**32 - 1)))


class TestConvMatchesPerPixelOracle:
    """``Conv2D.forward`` is bit-identical to the per-pixel tensordot loop."""

    @settings(max_examples=150, deadline=None)
    @given(_conv_cases())
    # Shrunk case on which a plain (N, K) @ (K, C) GEMM differs in the
    # last bit.
    @example((1, 1, 4, 1, 1, 1, 2, False, "float64", 4))
    # Shrunk case on which an (N, 1, K) batch differs: with kw == cin == 1
    # and stride 2 its reshape copies, while the per-pixel patch is a
    # strided view.
    @example((4, 1, 1, 1, 2, 6, 3, False, "float64", 1))
    def test_forward_is_bit_identical_to_the_oracle(self, case):
        (kh, kw, in_channels, out_channels, stride, height, width, flat,
         dtype, seed) = case
        rng = np.random.default_rng(seed)
        conv = Conv2D(
            weights=rng.normal(0.0, 1.0, (kh, kw, in_channels, out_channels)),
            bias=rng.normal(0.0, 1.0, out_channels), stride=stride)
        shape = (height, width) if flat else (height, width, in_channels)
        if dtype == "int64":
            tensor = rng.integers(-50, 50, shape)
        else:
            tensor = rng.normal(0.0, 1.0, shape).astype(dtype)
        output = conv.forward(tensor)
        expected = conv2d_forward_reference(conv, tensor)
        assert output.dtype == expected.dtype == np.float64
        assert np.array_equal(output, expected)

    def test_trained_parking_detector_is_pinned(self):
        # Float hex of the deployed detector's trained state, captured with
        # the per-pixel convolution: a conv change that moves any bit of
        # the features moves these.
        network = parking_network()
        state = {
            "weights": network.classifier.weights.ravel(),
            "bias": network.classifier.bias,
            "mean": network._mean,
            "std": network._std,
        }
        assert {name: [float(v).hex() for v in values]
                for name, values in state.items()} == {
            "weights": ["0x1.0cd45e8816bdfp+2", "0x1.98e340a638f34p+0",
                        "0x1.a28cd11929881p-1"],
            "bias": ["0x1.3b69cedf6caf2p-1"],
            "mean": ["0x1.8e5eef57c78bbp-2", "0x1.4602d822bef40p-3",
                     "0x1.5ffd2d1e91607p-4"],
            "std": ["0x1.44c04c373c006p-3", "0x1.e56cf2443c05bp-5",
                    "0x1.8e33b7a9a9bb9p-6"],
        }
        dataset = ParkingDataset(spots=8, seed=7)
        loss = ParkingNet(dataset).train(dataset.batch(40))
        assert float(loss).hex() == "0x1.c24c218711475p-6"


class TestQuantisation:
    def test_quantise_round_trip_error_is_small(self):
        tensor = np.linspace(-1.0, 1.0, 64)
        quantised, scale = quantize_tensor(tensor, bits=8)
        restored = dequantize_tensor(quantised, scale)
        assert np.abs(restored - tensor).max() <= scale
        assert quantised.max() <= 127 and quantised.min() >= -128

    def test_quantised_dense_approximates_float(self):
        dense = Dense.from_random(16, 4, seed=1, scale=0.5)
        quantised = QuantizedDense.from_dense(dense)
        x = np.random.default_rng(2).normal(size=16)
        relative = np.abs(quantised.forward(x) - dense.forward(x))
        assert relative.max() < 0.1 * (np.abs(dense.forward(x)).max() + 1.0)
        assert quantised.quantisation_error(dense) < 0.05
        assert quantised.macs((16,)) == dense.macs((16,))

    def test_invalid_bit_width(self):
        with pytest.raises(ValueError):
            quantize_tensor(np.ones(4), bits=1)


class TestDatasetAndNetwork:
    def test_dataset_geometry_and_labels(self):
        dataset = ParkingDataset(spots=6, seed=0)
        scene = dataset.render([True, False, True, False, False, True])
        assert scene.image.shape == dataset.image_shape
        assert scene.free_spots == 3
        assert scene.spot_count == 6
        occupied_region = scene.image[dataset.spot_slice(0)]
        free_region = scene.image[dataset.spot_slice(1)]
        assert occupied_region.mean() > free_region.mean()

    def test_dataset_validation(self):
        dataset = ParkingDataset(spots=4)
        with pytest.raises(ValueError):
            dataset.render([True])
        with pytest.raises(IndexError):
            dataset.spot_slice(9)
        with pytest.raises(ValueError):
            dataset.batch(0)

    def test_network_trains_to_high_accuracy(self):
        dataset = ParkingDataset(spots=8, seed=11)
        network = ParkingNet(dataset)
        network.train(dataset.batch(30))
        accuracy = network.accuracy(dataset.batch(15))
        assert accuracy >= 0.9
        scene = dataset.render([True] * 4 + [False] * 4)
        assert network.count_free_spots(scene.image) == pytest.approx(4, abs=1)

    def test_training_without_scenes_is_rejected(self):
        with pytest.raises(ValueError, match="no training scenes"):
            ParkingNet(ParkingDataset(spots=4)).train([])

    def test_quantised_network_stays_accurate(self):
        dataset = ParkingDataset(spots=8, seed=5)
        network = ParkingNet(dataset)
        network.train(dataset.batch(30))
        float_accuracy = network.accuracy(dataset.batch(15))
        network.quantize()
        assert network.accuracy(dataset.batch(15)) >= float_accuracy - 0.1
        assert network.inference_macs() > 0


class TestKernels:
    @pytest.fixture(scope="class")
    def platform(self):
        return nucleo_stm32f091rc()

    def test_conv_kernel_matches_numpy(self, platform):
        size, ksize = 8, 3
        program = compile_source(conv2d_kernel_source(size, ksize))
        rng = np.random.default_rng(0)
        image = rng.integers(0, 20, size * size)
        kernel = rng.integers(-2, 3, ksize * ksize)
        result = Simulator(program, platform).run(
            "conv2d", [1], globals_init={"conv_image": image.tolist(),
                                         "conv_filter": kernel.tolist()})
        out = size - ksize + 1
        expected = 0
        for row in range(out):
            for col in range(out):
                acc = sum(int(image[(row + kr) * size + col + kc]) * int(kernel[kr * ksize + kc])
                          for kr in range(ksize) for kc in range(ksize))
                expected += acc
        assert result.return_value == expected

    def test_matmul_kernel_matches_numpy(self, platform):
        size = 5
        program = compile_source(matmul_kernel_source(size))
        rng = np.random.default_rng(1)
        a = rng.integers(0, 10, (size, size))
        b = rng.integers(0, 10, (size, size))
        result = Simulator(program, platform).run(
            "matmul", [0], globals_init={"mat_a": a.flatten().tolist(),
                                         "mat_b": b.flatten().tolist()})
        assert result.return_value == int((a @ b).sum())

    def test_relu_kernel(self, platform):
        program = compile_source(relu_kernel_source(8))
        result = Simulator(program, platform).run(
            "relu", [0], globals_init={"relu_data": [-1, 2, -3, 4, -5, 6, 0, 8]})
        assert result.return_value == 5
        assert all(v >= 0 for v in result.globals_after["relu_data"])

    def test_kernels_are_statically_analysable(self, platform):
        for source, entry in ((conv2d_kernel_source(8), "conv2d"),
                              (matmul_kernel_source(4), "matmul"),
                              (relu_kernel_source(16), "relu")):
            program = compile_source(source)
            bound = WCETAnalyzer(platform).analyze(program, entry)
            assert bound.cycles > 0

    def test_invalid_kernel_parameters(self):
        with pytest.raises(CompilationError):
            conv2d_kernel_source(3, 5)
        with pytest.raises(CompilationError):
            matmul_kernel_source(0)
        with pytest.raises(CompilationError):
            relu_kernel_source(-1)
