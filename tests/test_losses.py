"""Loss functions and the toy trainer, checked against brute force.

CTC losses are compared with exhaustive path enumeration and both
gradients with central finite differences before any training test runs.
"""

import json
import math

import numpy as np
import pytest

from diarkit.embed import write_embeddings
from diarkit.errors import (
    EmptyData,
    ImpossibleAlignment,
    IndexOutOfRange,
    LabelOutOfRange,
    UnnormalizedRow,
)
from diarkit.losses import (
    CtcResult,
    ToyModel,
    TrainConfig,
    _AdamW,
    _ctc_forward_backward,
    cross_entropy,
    ctc_loss,
    dual_loss,
    train_toy,
)

from oracles import ctc_paths_oracle, finite_difference_grad


def log_softmax(z):
    z = np.asarray(z, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


class TestCrossEntropy:
    def test_uniform_logits_give_log_v(self):
        loss, _ = cross_entropy(np.zeros(4), 2)
        assert abs(loss - math.log(4.0)) < 1e-12

    def test_large_margin_loss_vanishes(self):
        logits = np.zeros(5)
        logits[3] = 30.0
        loss, _ = cross_entropy(logits, 3)
        assert loss < 1e-9

    def test_gradient_is_softmax_minus_onehot(self):
        logits = np.array([1.0, -2.0, 0.5])
        _, grad = cross_entropy(logits, 0)
        p = np.exp(logits) / np.exp(logits).sum()
        expected = p.copy()
        expected[0] -= 1.0
        assert np.allclose(grad, expected, atol=1e-12)
        assert abs(grad.sum()) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            logits = rng.normal(scale=3.0, size=5)
            c = int(rng.integers(0, 5))
            _, grad = cross_entropy(logits, c)
            fd = finite_difference_grad(lambda z: cross_entropy(z, c)[0], logits)
            scale = max(1.0, float(np.abs(fd).max()))
            assert np.abs(fd - grad).max() / scale < 1e-6

    def test_bad_class_index_raises(self):
        with pytest.raises(IndexOutOfRange):
            cross_entropy(np.zeros(3), 3)
        with pytest.raises(IndexOutOfRange):
            cross_entropy(np.zeros(3), -1)


class TestCtcLoss:
    def test_single_frame_single_label(self):
        lp = np.log(np.array([[0.3, 0.7]]))
        res = ctc_loss(lp, [1])
        assert abs(res.loss - (-math.log(0.7))) < 1e-12

    def test_two_frame_paths_enumerated_by_hand(self):
        # Target [1] over two frames admits exactly three paths:
        # (1,1), (blank,1), (1,blank).
        p = np.array([[0.4, 0.6], [0.25, 0.75]])
        res = ctc_loss(np.log(p), [1])
        total = p[0, 1] * p[1, 1] + p[0, 0] * p[1, 1] + p[0, 1] * p[1, 0]
        assert abs(res.loss - (-math.log(total))) < 1e-12

    def test_empty_target_costs_all_blanks(self):
        p = np.array([[0.8, 0.2], [0.5, 0.5], [0.9, 0.1]])
        res = ctc_loss(np.log(p), [])
        assert abs(res.loss - (-math.log(0.8 * 0.5 * 0.9))) < 1e-12

    def test_loss_matches_path_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n_classes = int(rng.integers(2, 5))
            n_labels = int(rng.integers(1, 4))
            labels = rng.integers(1, n_classes, size=n_labels).tolist()
            need = len(labels) + sum(
                1 for a, b in zip(labels, labels[1:]) if a == b
            )
            t_len = int(rng.integers(need, 7))
            lp = log_softmax(rng.normal(size=(t_len, n_classes)))
            res = ctc_loss(lp, labels)
            oracle = ctc_paths_oracle(lp, labels)
            assert abs(res.loss - oracle) < 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n_classes = int(rng.integers(2, 5))
            n_labels = int(rng.integers(1, 4))
            labels = rng.integers(1, n_classes, size=n_labels).tolist()
            need = len(labels) + sum(
                1 for a, b in zip(labels, labels[1:]) if a == b
            )
            t_len = int(rng.integers(need, 7))
            lp = log_softmax(rng.normal(size=(t_len, n_classes)))
            _, grad = _ctc_forward_backward(lp, labels)
            fd = finite_difference_grad(
                lambda m: _ctc_forward_backward(m, labels)[0], lp
            )
            scale = max(1.0, float(np.abs(fd).max()))
            assert np.abs(fd - grad).max() / scale < 1e-4

    def test_posterior_rows_sum_to_one(self):
        lp = log_softmax(np.random.default_rng(3).normal(size=(6, 4)))
        res = ctc_loss(lp, [1, 3])
        assert np.allclose(res.grad.sum(axis=1), -1.0, atol=1e-9)

    def test_unnormalized_row_rejected(self):
        lp = np.log(np.array([[0.3, 0.6], [0.5, 0.5]]))
        with pytest.raises(UnnormalizedRow):
            ctc_loss(lp, [1])

    def test_blank_and_oversized_labels_rejected(self):
        lp = log_softmax(np.zeros((3, 3)))
        with pytest.raises(LabelOutOfRange):
            ctc_loss(lp, [0])
        with pytest.raises(LabelOutOfRange):
            ctc_loss(lp, [3])

    def test_too_few_frames_rejected(self):
        lp = log_softmax(np.zeros((2, 3)))
        with pytest.raises(ImpossibleAlignment):
            ctc_loss(lp, [1, 1])
        with pytest.raises(ImpossibleAlignment):
            ctc_loss(log_softmax(np.zeros((2, 4))), [1, 2, 1])

    def test_result_validation(self):
        with pytest.raises(ValueError):
            CtcResult(loss=-0.5, grad=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            CtcResult(loss=1.0, grad=np.array([[np.nan, 0.0]]))


class TestDualLoss:
    def test_endpoints_are_exact(self):
        assert dual_loss(2.125, 99.0, 1.0) == 2.125
        assert dual_loss(99.0, 4.375, 0.0) == 4.375

    def test_midpoint(self):
        assert abs(dual_loss(2.0, 4.0, 0.5) - 3.0) < 1e-12

    def test_weight_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            dual_loss(1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            dual_loss(1.0, 1.0, -0.1)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 1e-5
        assert cfg.batch_size == 16
        assert cfg.max_epochs == 20
        assert cfg.weight_decay == 0.01
        assert cfg.early_stop_patience == 3
        assert cfg.dual_loss_lambda == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(dual_loss_lambda=1.5)


class TestAdamW:
    def test_zero_gradient_contraction_is_exact(self):
        w0 = np.array([[1.0, -2.0], [0.5, 4.0]])
        b0 = np.array([0.25, -1.5])
        lr, decay = 0.01, 0.1
        opt = _AdamW(
            shapes=[w0.shape, b0.shape],
            lr=lr,
            weight_decay=decay,
            decay_mask=[True, False],
        )
        zeros = [np.zeros_like(w0), np.zeros_like(b0)]
        w1, b1 = opt.step([w0, b0], zeros)
        assert np.array_equal(w1, w0 - lr * decay * w0)
        assert np.array_equal(b1, b0)
        w2, b2 = opt.step([w1, b1], zeros)
        assert np.array_equal(w2, w1 - lr * decay * w1)
        assert np.array_equal(b2, b0)
        assert np.allclose(w2, (1.0 - lr * decay) ** 2 * w0, rtol=1e-12)


def _blob_data(n_seq=25, frames=12, sigma=0.25, seed=5):
    """Two tight 2-D blobs, one sequence per blob draw, labels 1 and 2."""
    rng = np.random.default_rng(seed)
    feats, labels, seqs = [], [], []
    cursor = 0
    for i in range(n_seq):
        cls = 1 + i % 2
        center = np.array([2.0, 0.0]) if cls == 1 else np.array([-2.0, 0.0])
        feats.append(center + rng.normal(scale=sigma, size=(frames, 2)))
        labels.extend([cls] * frames)
        seqs.append(((cursor, cursor + frames), [cls]))
        cursor += frames
    return np.concatenate(feats), np.asarray(labels), seqs


class TestTrainToy:
    def test_separable_data_reaches_high_accuracy(self):
        feats, labels, seqs = _blob_data()
        cfg = TrainConfig(learning_rate=1e-2, rng_seed=0)
        model, history = train_toy(feats, labels, seqs, cfg)
        accuracy = float(np.mean(model.predict(feats) == labels))
        assert accuracy >= 0.99
        assert history[-1]["train_loss"] < history[0]["train_loss"]

    def test_early_stop_fires_after_patience_epochs(self):
        # Trailing 20% of the sequences carry swapped labels, so the
        # validation loss rises as soon as the model fits the rest.
        feats, labels, seqs = _blob_data(n_seq=10)
        labels = labels.copy()
        for (start, end), target in seqs[-2:]:
            labels[start:end] = 3 - labels[start:end]
            target[0] = 3 - target[0]
        cfg = TrainConfig(learning_rate=1e-2, max_epochs=40, rng_seed=1)
        _, history = train_toy(feats, labels, seqs, cfg)
        val = [h["val_loss"] for h in history]
        best = int(np.argmin(val))
        assert len(history) < cfg.max_epochs
        assert len(history) == (best + 1) + cfg.early_stop_patience
        assert all(b >= a for a, b in zip(val[best:], val[best + 1 :]))

    def test_same_seed_is_bitwise_deterministic(self):
        feats, labels, seqs = _blob_data(n_seq=15, seed=9)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=4, rng_seed=42)
        m1, h1 = train_toy(feats, labels, seqs, cfg)
        m2, h2 = train_toy(feats, labels, seqs, cfg)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.bias, m2.bias)
        assert h1 == h2

    def test_history_is_json_ready(self):
        feats, labels, seqs = _blob_data(n_seq=5)
        cfg = TrainConfig(learning_rate=1e-2, max_epochs=3)
        _, history = train_toy(feats, labels, seqs, cfg)
        parsed = json.loads(json.dumps(history))
        assert [h["epoch"] for h in parsed] == list(range(1, len(parsed) + 1))
        assert set(parsed[0]) == {"epoch", "train_loss", "val_loss"}

    def test_empty_and_mislabeled_inputs_rejected(self):
        with pytest.raises(EmptyData):
            train_toy(np.zeros((0, 2)), np.zeros(0, dtype=int), [], TrainConfig())
        feats, labels, seqs = _blob_data(n_seq=4)
        labels = labels.copy()
        labels[0] = 0
        with pytest.raises(LabelOutOfRange):
            train_toy(feats, labels, seqs, TrainConfig())


class TestToyModelFile:
    def test_round_trip_through_embedding_format(self, tmp_path):
        # Values chosen to be exact in float32 so the trip is lossless.
        model = ToyModel(
            weights=np.array([[0.5, -1.25], [2.0, 0.75], [-3.5, 1.0]]),
            bias=np.array([0.25, -0.5, 1.5]),
        )
        path = tmp_path / "model.emb"
        model.save(path)
        back = ToyModel.load(path)
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.bias, model.bias)
        assert back.n_classes == 3

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
    def test_a_model_file_with_no_classes_is_rejected(self, tmp_path, shape):
        path = tmp_path / "model.emb"
        write_embeddings(path, np.zeros(shape))
        with pytest.raises(ValueError):
            ToyModel.load(path)
