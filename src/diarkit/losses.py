"""Dual-loss training kernel: cross-entropy, CTC, and a toy trainer.

CTC runs entirely in the log domain over the blank-augmented label
sequence (blank fixed at index 0), with gradients from the
forward-backward recursion rather than autodiff, so they can be checked
against finite differences and exhaustive path enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed import load_external_embeddings, write_embeddings
from .errors import (
    EmptyData,
    ImpossibleAlignment,
    IndexOutOfRange,
    LabelOutOfRange,
    UnnormalizedRow,
    check_numbers,
)

_NEG_INF = -np.inf


@dataclass(frozen=True)
class CtcResult:
    """CTC negative log likelihood and its lattice gradient."""

    loss: float
    grad: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.grad)):
            raise ValueError("grad must be finite")
        if self.loss < -1e-9:
            raise ValueError("loss must be non-negative")


def cross_entropy(logits, true_class: int) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy loss and gradient for one frame.

    Raises IndexOutOfRange when true_class is not a valid class index.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError("logits must be 1-D")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    if not 0 <= true_class < z.shape[0]:
        raise IndexOutOfRange(
            f"true_class {true_class} outside 0..{z.shape[0] - 1}"
        )
    shifted = z - np.max(z)
    log_probs = shifted - np.log(np.sum(np.exp(shifted)))
    grad = np.exp(log_probs)
    grad[true_class] -= 1.0
    return -float(log_probs[true_class]), grad


def _extended_labels(labels, n_classes: int) -> np.ndarray:
    labels = np.asarray(list(labels), dtype=np.int64)
    if labels.size and (labels.min() < 1 or labels.max() >= n_classes):
        bad = labels[(labels < 1) | (labels >= n_classes)][0]
        raise LabelOutOfRange(
            f"label {bad} invalid: blank is 0, classes end at {n_classes - 1}"
        )
    ext = np.zeros(2 * labels.size + 1, dtype=np.int64)
    ext[1::2] = labels
    return ext


def _min_frames(labels) -> int:
    labels = list(labels)
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + repeats


def _ctc_forward_backward(log_probs: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """CTC loss and gradient without the normalization guard.

    Treats every lattice entry as a free variable, which is exactly what
    a finite-difference probe needs.
    """
    lp = np.asarray(log_probs, dtype=np.float64)
    t_len, n_classes = lp.shape
    ext = _extended_labels(labels, n_classes)
    s_len = ext.size

    need = _min_frames(labels)
    if t_len < need:
        raise ImpossibleAlignment(
            f"{t_len} frames cannot carry {len(list(labels))} labels "
            f"(minimum {need})"
        )

    # s -> s+2 skips are allowed only onto a different non-blank label.
    prev2 = np.concatenate([[-1, -1], ext])[:s_len]
    can_skip = (ext != 0) & (ext != prev2)

    alpha = np.full((t_len, s_len), _NEG_INF)
    alpha[0, 0] = lp[0, ext[0]]
    if s_len > 1:
        alpha[0, 1] = lp[0, ext[1]]
    for t in range(1, t_len):
        prev = alpha[t - 1]
        stay = prev
        step = np.concatenate([[_NEG_INF], prev])[:s_len]
        skip = np.concatenate([[_NEG_INF, _NEG_INF], prev])[:s_len]
        cand = np.logaddexp(stay, step)
        cand = np.where(can_skip, np.logaddexp(cand, skip), cand)
        alpha[t] = cand + lp[t, ext]

    tail = alpha[-1, -1]
    if s_len > 1:
        tail = np.logaddexp(tail, alpha[-1, -2])
    log_total = float(tail)

    beta = np.full((t_len, s_len), _NEG_INF)
    beta[-1, -1] = 0.0
    if s_len > 1:
        beta[-1, -2] = 0.0
    # can_skip shifted to ask whether s may jump to s+2.
    fwd_skip = np.concatenate([can_skip[2:], [False, False]])[:s_len]
    for t in range(t_len - 2, -1, -1):
        nxt = beta[t + 1] + lp[t + 1, ext]
        stay = nxt
        step = np.concatenate([nxt[1:], [_NEG_INF]])[:s_len]
        skip = np.concatenate([nxt[2:], [_NEG_INF, _NEG_INF]])[:s_len]
        cand = np.logaddexp(stay, step)
        beta[t] = np.where(fwd_skip, np.logaddexp(cand, skip), cand)

    posterior = np.exp(alpha + beta - log_total)
    grad = np.zeros_like(lp)
    for s, v in enumerate(ext):
        grad[:, v] -= posterior[:, s]
    return -log_total, grad


def ctc_loss(log_probs, labels) -> CtcResult:
    """CTC negative log likelihood over all blank-augmented alignments.

    ``log_probs`` is a T x V lattice of per-frame log-probabilities with
    the blank at index 0; ``labels`` are class indices >= 1.

    Raises UnnormalizedRow when a frame's probabilities do not sum to 1,
    LabelOutOfRange on bad labels, and ImpossibleAlignment when T is too
    short for the label sequence.
    """
    lp = np.asarray(log_probs, dtype=np.float64)
    if lp.ndim != 2 or lp.shape[0] < 1 or lp.shape[1] < 2:
        raise ValueError("log_probs must be T x V with V >= 2")
    sums = np.sum(np.exp(lp), axis=1)
    off = np.abs(sums - 1.0)
    if np.any(off > 1e-6):
        t = int(np.argmax(off))
        raise UnnormalizedRow(
            f"frame {t} probabilities sum to {sums[t]:.8f}, expected 1"
        )
    loss, grad = _ctc_forward_backward(lp, labels)
    return CtcResult(loss=max(0.0, loss), grad=grad)


def dual_loss(ce: float, ctc: float, lam: float) -> float:
    """Weighted combination lam * ce + (1 - lam) * ctc, exact at 0 and 1."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must be in [0, 1]")
    if lam == 1.0:
        return ce
    if lam == 0.0:
        return ctc
    return lam * ce + (1.0 - lam) * ctc


@dataclass
class TrainConfig:
    """Training hyperparameters; defaults follow the training recipe."""

    learning_rate: float = 1e-5
    batch_size: int = 16
    max_epochs: int = 20
    weight_decay: float = 0.01
    early_stop_patience: int = 3
    dual_loss_lambda: float = 0.5
    rng_seed: int = 0

    def __post_init__(self) -> None:
        check_numbers(self)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1 or self.max_epochs < 1 or self.early_stop_patience < 1:
            raise ValueError("batch_size, max_epochs, patience must be >= 1")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if not 0.0 <= self.dual_loss_lambda <= 1.0:
            raise ValueError("dual_loss_lambda must be in [0, 1]")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


@dataclass
class ToyModel:
    """Single linear layer + softmax over V classes (class 0 = blank)."""

    weights: np.ndarray  # V x D
    bias: np.ndarray  # V

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("weights must be V x D with a V-length bias")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("parameters must be finite")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    def logits(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, dtype=np.float64) @ self.weights.T + self.bias

    def log_probs(self, features: np.ndarray) -> np.ndarray:
        z = self.logits(features)
        z = z - np.max(z, axis=-1, keepdims=True)
        return z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(features), axis=-1)

    def save(self, path) -> None:
        """Store as an embedding matrix: per class, D weights then bias."""
        matrix = np.concatenate([self.weights, self.bias[:, None]], axis=1)
        write_embeddings(path, matrix)

    @classmethod
    def load(cls, path) -> "ToyModel":
        matrix = load_external_embeddings(path)
        if matrix.size == 0:
            raise ValueError(f"{path}: model file holds no classes")
        return cls(weights=matrix[:, :-1], bias=matrix[:, -1])


class _AdamW:
    """Decoupled-weight-decay adaptive-moment optimizer.

    Decay multiplies the parameter directly (w -= lr * decay * w) and is
    applied only where ``decay_mask`` says so; with zero gradients the
    adaptive term is exactly zero.
    """

    def __init__(self, shapes, lr, weight_decay, decay_mask,
                 beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.weight_decay = weight_decay
        self.decay_mask = decay_mask
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1**self.t)
            v_hat = self.v[i] / (1 - self.beta2**self.t)
            p = p - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if self.decay_mask[i]:
                p = p - self.lr * self.weight_decay * p
            out.append(p)
        return out


def _sequence_losses(model, features, frame_labels, seq, lam):
    """Dual loss and parameter gradients for one sequence.

    CE averages over the sequence's frames; the CTC term is normalized
    by the frame count so both sit on a per-frame scale.
    """
    (start, end), target = seq
    x = features[start:end]
    y = frame_labels[start:end]
    t_len = end - start

    log_probs = model.log_probs(x)
    probs = np.exp(log_probs)

    ce_vals = -log_probs[np.arange(t_len), y]
    ce = float(np.mean(ce_vals))
    ce_grad_logits = probs.copy()
    ce_grad_logits[np.arange(t_len), y] -= 1.0
    ce_grad_logits /= t_len

    ctc = ctc_loss(log_probs, target)
    g = ctc.grad / t_len
    # Through log-softmax: d/dlogit_j = g_j - p_j * sum_v g_v.
    ctc_grad_logits = g - probs * np.sum(g, axis=1, keepdims=True)

    grad_logits = lam * ce_grad_logits + (1.0 - lam) * ctc_grad_logits
    grad_w = grad_logits.T @ x
    grad_b = np.sum(grad_logits, axis=0)
    return dual_loss(ce, ctc.loss / t_len, lam), grad_w, grad_b


def _validate_training_inputs(features, frame_labels, sequences):
    if len(sequences) == 0 or features.shape[0] == 0:
        raise EmptyData("training needs at least one sequence of frames")
    if features.shape[0] != frame_labels.shape[0]:
        raise ValueError("features and frame_labels must align")
    if frame_labels.min() < 1:
        raise LabelOutOfRange("frame labels must be >= 1; 0 is the blank")
    for (start, end), target in sequences:
        if not 0 <= start < end <= features.shape[0]:
            raise ValueError(f"bad frame range ({start}, {end})")
        if len(target) == 0:
            raise ValueError("every sequence needs at least one target label")


def train_toy(features, frame_labels, sequences, config: TrainConfig):
    """Train the linear model with the combined CE + CTC objective.

    ``sequences`` is a list of ((start, end), label_sequence) pairs over
    rows of ``features``; frame labels and sequence labels use classes
    1..V-1 (0 is the CTC blank). The trailing 20% of the sequences, in
    caller order, form the validation split. Returns the model and a
    history list of {"epoch", "train_loss", "val_loss"} dicts.

    Raises EmptyData without sequences and LabelOutOfRange on labels
    that collide with the blank.
    """
    features = np.asarray(features, dtype=np.float64)
    frame_labels = np.asarray(frame_labels, dtype=np.int64)
    _validate_training_inputs(features, frame_labels, sequences)

    n_classes = int(
        max(
            frame_labels.max(),
            max(max(target) for _, target in sequences),
        )
    ) + 1
    dim = features.shape[1]
    model = ToyModel(weights=np.zeros((n_classes, dim)), bias=np.zeros(n_classes))

    n_val = len(sequences) // 5 if len(sequences) >= 2 else 0
    train_seqs = list(sequences[: len(sequences) - n_val])
    val_seqs = list(sequences[len(sequences) - n_val :])

    opt = _AdamW(
        shapes=[model.weights.shape, model.bias.shape],
        lr=config.learning_rate,
        weight_decay=config.weight_decay,
        decay_mask=[True, False],
    )
    rng = np.random.default_rng(config.rng_seed)
    lam = config.dual_loss_lambda

    history = []
    best_val = np.inf
    stale = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_seqs))
        losses = []
        for chunk in range(0, len(order), config.batch_size):
            batch = [train_seqs[i] for i in order[chunk : chunk + config.batch_size]]
            grad_w = np.zeros_like(model.weights)
            grad_b = np.zeros_like(model.bias)
            for seq in batch:
                loss, gw, gb = _sequence_losses(
                    model, features, frame_labels, seq, lam
                )
                losses.append(loss)
                grad_w += gw / len(batch)
                grad_b += gb / len(batch)
            model.weights, model.bias = opt.step([model.weights, model.bias], [grad_w, grad_b])

        train_loss = float(np.mean(losses))
        if val_seqs:
            val_loss = float(
                np.mean(
                    [
                        _sequence_losses(model, features, frame_labels, s, lam)[0]
                        for s in val_seqs
                    ]
                )
            )
        else:
            val_loss = train_loss
        history.append(
            {"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss}
        )

        if val_loss < best_val:
            best_val = val_loss
            stale = 0
        else:
            stale += 1
            if stale >= config.early_stop_patience:
                break
    return model, history
