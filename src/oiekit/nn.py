"""Plain-numpy building blocks for the tagger: LSTM cells, bidirectional
stacking with highway gates between layers, a softmax classifier, and Adam.

The helpers compute in the dtype of their inputs, forward and backward.
Pretraining batches (``mle.pretrain``) and ``tagger.extract`` run the
encoder (LSTMs and highway gates) in float32 with the same code; their
classifier and softmax stay float64, as do Adam, its moments and the
parameters it updates. RL training, per-instance gradients and the
pretraining dev pass run wholly in float64. Sequences are batched
time-major: :func:`bilstm_forward` takes an (m, B, ·) array of B
right-padded items, and highway, the classifier and the softmax take their
(m·B, ·) rows. No mask is needed, and padded inputs may hold any finite
values. Padding comes after every valid position in both directions, so it
cannot change a valid output, and a caller that gives padded rows zero
logit gradients gets gradients in which padding contributes exactly 0.

:func:`lstm_forward` and :func:`lstm_backward` advance the D directions of
a layer (D = 2 in a BiLSTM) in one time loop. Their caches are time-major
(m, D, B, ·) stacks, the sigmoid gates gate-major as (m, 3, D, B, H), so
each step reads contiguous slabs and one call covers a gate of every
direction (at B = 16 and H = 64, numpy takes about three times as long
over a strided gate slice). The input projection is a (D, m, B, 4H)
buffer, and so are the backward pass's gate gradients, so each
direction's rows are contiguous for its own weight products. Each
direction keeps its own matrix products, and every formula keeps its
order of operations, so the bits are those of one-direction calls.

Forward helpers return the caches their backward counterparts need, or
keep none when called with ``backprop=False`` (inference); correctness is
pinned by finite-difference gradient checks and by a per-item reference
LSTM in the test suite.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)), written into ``out`` when given. exp overflow
    saturates to exactly 0.0 or 1.0, which is what we want; callers enter
    np.errstate(over="ignore") once around their loops."""
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# LSTM: the directions of a layer in one time loop, time-major over a batch
# ---------------------------------------------------------------------------


def lstm_forward(x, wx, wh, b, backprop: bool = True):
    """Run D independent LSTMs in one time loop: direction ``d`` reads ``x[d]``
    of shape (m, B, in_dim) with the weights ``wx[d]``, ``wh[d]`` and ``b[d]``
    (each argument holds D entries). Returns (h, cache) with ``h`` of shape
    (m, D, B, H), ``h[:, d]`` direction ``d``'s outputs. Each step is one
    (B, H) @ ``wh[d]`` product per direction, and one call per gate covers
    every direction. With ``backprop=False`` the cache is None and
    the gate, candidate and cell arrays are one step's scratch rows, reused
    by every step; the arithmetic, and so every bit of ``h``, is the same.
    Every array is in the dtype of ``x[d] @ wx[d]``: float64 parameters
    keep the pass in float64, float32 input and parameters run it in float32.

    Gate layout within the 4H axis: input, forget, output (sigmoid block),
    then cell candidate (tanh).
    """
    directions = len(x)
    m, batch, in_dim = x[0].shape
    h_dim = wh[0].shape[0]
    dtype = np.result_type(x[0], wx[0])
    xw = np.empty((directions, m, batch, 4 * h_dim), dtype)
    for d in range(directions):
        rows = xw[d].reshape(m * batch, 4 * h_dim)
        np.matmul(x[d].reshape(m * batch, in_dim), wx[d], out=rows)
        rows += b[d]
    kept = m if backprop else 1
    sig_all = np.empty((kept, 3, directions, batch, h_dim), dtype)
    g_all = np.empty((kept, directions, batch, h_dim), dtype)
    c_all = np.empty((kept, directions, batch, h_dim), dtype)
    h_all = np.empty((m, directions, batch, h_dim), dtype)
    # One stacked product per step: np.matmul computes each direction's
    # (B, H) @ (H, 4H) slice on its own, with the bits of a 2-D product.
    wh_stack = np.stack(wh)
    z = np.empty((directions, batch, 4 * h_dim), dtype)
    gates = z.reshape(directions, batch, 4, h_dim).transpose(2, 0, 1, 3)  # gate-major view
    scratch = np.empty((directions, batch, h_dim), dtype)
    h = np.zeros((directions, batch, h_dim), dtype)
    c = np.zeros((directions, batch, h_dim), dtype)
    with np.errstate(over="ignore"):
        for t in range(m):
            s = t if backprop else 0
            np.matmul(h, wh_stack, out=z)
            z += xw[:, t]
            i, f, o = sigmoid(gates[:3], out=sig_all[s])
            # Written straight into the caches (or the scratch rows): no
            # per-step copy. ``f * c`` is taken before ``c``'s row is
            # overwritten, and i * g + f * c adds in either order alike.
            g = np.tanh(gates[3], out=g_all[s])
            fc = np.multiply(f, c, out=scratch)
            c = np.multiply(i, g, out=c_all[s])
            c += fc
            h = np.multiply(o, np.tanh(c, out=scratch), out=h_all[t])
    if not backprop:
        return h_all, None
    cache = (x, wx, wh, sig_all, g_all, c_all, h_all)
    return h_all, cache


def lstm_backward(dh_out: np.ndarray, cache):
    """Backpropagate gradients on the hidden outputs, shape (m, D, B, H),
    through every direction of an :func:`lstm_forward` cache in one time
    loop; returns (dx, dwx, dwh, db), each a list of D per-direction arrays
    shaped like that direction's input or weights. Per-step work is kept to
    the recurrence; weight gradients are two matmuls per direction over the
    collected gate gradients. ``tanh(c)`` is recomputed rather than cached.
    Every array is in the dtype of the cache, as :func:`lstm_forward` made it."""
    x, wx, wh, sig_all, g_all, c_all, h_all = cache
    m, directions, batch, h_dim = dh_out.shape
    dtype = h_all.dtype
    # Direction-major, so each direction's rows are contiguous for its
    # weight products; each step writes one (B, 4H) slab per direction,
    # through a gate-major (4, m, D, B, H) view, from contiguous scratch.
    dz_all = np.empty((directions, m, batch, 4 * h_dim), dtype)
    dz_gates = dz_all.reshape(directions, m, batch, 4, h_dim).transpose(3, 1, 0, 2, 4)
    scratch = np.empty((directions, batch, h_dim), dtype)
    dh_next = np.zeros((directions, batch, h_dim), dtype)
    dc_next = np.zeros((directions, batch, h_dim), dtype)
    zeros = np.zeros((directions, batch, h_dim), dtype)
    wh_t = np.stack(wh).transpose(0, 2, 1)
    # The tanh derivatives do not depend on the recurrence: computed for all
    # steps at once (elementwise, so the same bits as per step).
    tc_all = np.tanh(c_all)
    dtc_all = 1.0 - tc_all * tc_all
    dg_all = 1.0 - g_all * g_all
    for t in range(m - 1, -1, -1):
        dh = dh_out[t] + dh_next
        i, f, o = sig_all[t]
        one_minus = 1.0 - sig_all[t]
        # Each product in the order (a * b) * c ... of the formula it computes.
        dc = dh * o
        dc *= dtc_all[t]
        dc += dc_next
        c_prev = c_all[t - 1] if t > 0 else zeros
        dz_i, dz_f, dz_o, dz_g = dz_gates[:, t]
        part = np.multiply(dc, g_all[t], out=scratch)
        part *= i
        np.multiply(part, one_minus[0], out=dz_i)
        part = np.multiply(dc, c_prev, out=scratch)
        part *= f
        np.multiply(part, one_minus[1], out=dz_f)
        part = np.multiply(dh, tc_all[t], out=scratch)
        part *= o
        np.multiply(part, one_minus[2], out=dz_o)
        part = np.multiply(dc, i, out=scratch)
        np.multiply(part, dg_all[t], out=dz_g)
        dc_next = np.multiply(dc, f, out=dc_next)
        np.matmul(dz_all[:, t], wh_t, out=dh_next)
    del tc_all, dtc_all, dg_all
    rows = m * batch
    dx, dwx, dwh, db = [], [], [], []
    for d in range(directions):
        dz_rows = dz_all[d].reshape(rows, 4 * h_dim)
        x_rows = x[d].reshape(rows, x[d].shape[2])
        h_prevs = np.concatenate([zeros[d][None], h_all[:-1, d]]).reshape(rows, h_dim)
        dwx.append(x_rows.T @ dz_rows)
        dwh.append(h_prevs.T @ dz_rows)
        db.append(dz_rows.sum(axis=0))
        dx.append((dz_rows @ wx[d].T).reshape(x[d].shape))
    return dx, dwx, dwh, db


# ---------------------------------------------------------------------------
# Bidirectional layer with an optional highway gate on the input
# ---------------------------------------------------------------------------

DIRECTIONS = ("fw", "bw")


def _reverse_index(m: int, lengths):
    """Index that reverses each item of a right-padded (m, B, ·) batch
    within its own length and leaves its padding in place; it is its own
    inverse. Without padding it is the plain reversal, which makes a view."""
    if all(length == m for length in lengths):
        return slice(None, None, -1)
    lengths = np.asarray(lengths)
    steps = np.arange(m)[:, None]
    return np.where(steps < lengths, lengths - 1 - steps, steps), np.arange(len(lengths))


def bilstm_forward(x: np.ndarray, lengths, params: dict, prefix: str, backprop: bool):
    """Both directions over a right-padded (m, B, in_dim) batch whose items
    have the given lengths, in one :func:`lstm_forward` call; returns the
    (m, B, 2H) outputs and the cache (None with ``backprop=False``).
    Padding follows every valid position in both directions, so it cannot
    change a valid output."""
    rev = _reverse_index(x.shape[0], lengths)
    weights = ([params[f"{prefix}.{d}.{name}"] for d in DIRECTIONS] for name in ("wx", "wh", "b"))
    h, cache = lstm_forward((x, x[rev]), *weights, backprop)
    out = np.concatenate([h[:, 0], h[:, 1][rev]], axis=2)
    return out, (cache, rev) if backprop else None


def bilstm_backward(dh: np.ndarray, caches, grads: dict, prefix: str):
    h_dim = dh.shape[2] // 2
    cache, rev = caches
    dh_out = np.stack([dh[:, :, :h_dim], dh[:, :, h_dim:][rev]], axis=1)
    dx, *weight_grads = lstm_backward(dh_out, cache)
    for d, direction in enumerate(DIRECTIONS):
        for name, per_direction in zip(("wx", "wh", "b"), weight_grads):
            grads[f"{prefix}.{direction}.{name}"] = per_direction[d]
    return dx[0] + dx[1][rev]


def highway_forward(x: np.ndarray, core: np.ndarray, params: dict, prefix: str):
    """out = gate * core + (1 - gate) * x with a learned sigmoid gate, over
    (rows, width) inputs."""
    with np.errstate(over="ignore"):
        gate = sigmoid(x @ params[f"{prefix}.hw.w"] + params[f"{prefix}.hw.b"])
    out = gate * core + (1.0 - gate) * x
    return out, gate


def highway_backward(dout, x, core, gate, params, grads, prefix):
    dcore = dout * gate
    dx = dout * (1.0 - gate)
    dgate = dout * (core - x)
    dz = dgate * gate * (1.0 - gate)
    grads[f"{prefix}.hw.w"] = x.T @ dz
    grads[f"{prefix}.hw.b"] = dz.sum(axis=0)
    dx += dz @ params[f"{prefix}.hw.w"].T
    return dx, dcore


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


class Adam:
    """Adam over a named-parameter dict, updated in place. :meth:`step` returns
    the squared gradient norm and updates nothing when it is not finite."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict, step_size: float = 1e-3):
        self.params = params
        self.step_size = step_size
        self.t = 0
        self.m = {name: np.zeros_like(value) for name, value in params.items()}
        self.v = {name: np.zeros_like(value) for name, value in params.items()}

    def step(self, grads: dict) -> float:
        norm = sum(float(np.vdot(grad, grad)) for grad in grads.values())
        if not np.isfinite(norm):
            return norm
        self.t += 1
        # Held until the next step: freed as each step returned, they left the heap top free for
        # glibc to hand back and fault in again (8x the page faults, up to 40% slower pretraining).
        self._last_grads = grads
        bias1 = 1.0 - self.BETA1 ** self.t
        bias2 = 1.0 - self.BETA2 ** self.t
        # Two temporaries per array, each formula evaluated in the order
        # written: (1-b1)·g, ((1-b2)·g)·g and (m/bias1) / (sqrt(v/bias2) + eps).
        for name, grad in grads.items():
            m = self.m[name]
            v = self.v[name]
            scratch = np.multiply(1.0 - self.BETA1, grad)
            m *= self.BETA1
            m += scratch
            np.multiply(1.0 - self.BETA2, grad, out=scratch)
            scratch *= grad
            v *= self.BETA2
            v += scratch
            denominator = np.divide(v, bias2, out=scratch)
            np.sqrt(denominator, out=denominator)
            denominator += self.EPS
            update = np.divide(m, bias1)
            update /= denominator
            update *= self.step_size
            self.params[name] -= update
        return norm
