"""Plain-numpy building blocks for the tagger: LSTM cells, bidirectional
stacking with highway gates between layers, a softmax classifier, and Adam.

The helpers compute in the dtype of their inputs, forward and backward.
Pretraining batches (``mle.pretrain``) and ``tagger.extract`` run the
encoder (LSTMs and highway gates) in float32 with the same code; their
classifier and softmax stay float64, as do Adam, its moments and the
parameters it updates. RL training, per-instance gradients and the
pretraining dev pass run wholly in float64. Sequences are batched
time-major: the LSTM helpers take (m, B, ·) arrays of B right-padded
items, and highway, the classifier and the softmax take their (m·B, ·)
rows. No mask is needed, and padded inputs may hold any finite values.
Padding comes after every valid position in both directions, so it cannot
change a valid output, and a caller that gives padded rows zero logit
gradients gets gradients in which padding contributes exactly 0.

Forward helpers return the caches their backward counterparts need, or
keep none when called with ``backprop=False`` (inference); correctness is
pinned by finite-difference gradient checks and by a per-item reference
LSTM in the test suite.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp overflow saturates to exactly 0.0 or 1.0, which is what we want;
    # callers enter np.errstate(over="ignore") once around their loops.
    return 1.0 / (1.0 + np.exp(-x))


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# LSTM (single direction), time-major over a batch
# ---------------------------------------------------------------------------


def lstm_forward(x: np.ndarray, wx: np.ndarray, wh: np.ndarray, b: np.ndarray,
                 backprop: bool = True):
    """Run an LSTM over ``x`` of shape (m, B, in_dim); returns (h, cache)
    with ``h`` of shape (m, B, H). Each step is one (B, H) @ ``wh`` product.
    With ``backprop=False`` the cache is None and the gate, candidate and
    cell arrays are one step's scratch rows, reused by every step; the
    arithmetic, and so every bit of ``h``, is the same. Every array is in
    the dtype of ``x @ wx``: float64 parameters keep the pass in float64,
    float32 input and parameters run it in float32.

    Gate layout within the 4H axis: input, forget, output (sigmoid block),
    then cell candidate (tanh).
    """
    m, batch, in_dim = x.shape
    h_dim = wh.shape[0]
    xw = x.reshape(m * batch, in_dim) @ wx
    xw += b  # in place: no second (m·B, 4H) array
    xw = xw.reshape(m, batch, 4 * h_dim)
    kept = m if backprop else 1
    dtype = xw.dtype
    sig_all = np.empty((kept, batch, 3 * h_dim), dtype)
    g_all = np.empty((kept, batch, h_dim), dtype)
    c_all = np.empty((kept, batch, h_dim), dtype)
    h_all = np.empty((m, batch, h_dim), dtype)
    h = np.zeros((batch, h_dim), dtype)
    c = np.zeros((batch, h_dim), dtype)
    with np.errstate(over="ignore"):
        for t in range(m):
            s = t if backprop else 0
            z = xw[t] + h @ wh
            sig = sig_all[s]
            sig[...] = sigmoid(z[:, : 3 * h_dim])
            i = sig[:, :h_dim]
            f = sig[:, h_dim : 2 * h_dim]
            o = sig[:, 2 * h_dim :]
            # Written straight into the caches (or the scratch rows): no
            # per-step copy. ``f * c`` is evaluated before ``c``'s row is
            # overwritten.
            g = np.tanh(z[:, 3 * h_dim :], out=g_all[s])
            c = np.add(f * c, i * g, out=c_all[s])
            h = np.multiply(o, np.tanh(c), out=h_all[t])
    if not backprop:
        return h_all, None
    cache = (x, wx, wh, sig_all, g_all, c_all, h_all)
    return h_all, cache


def lstm_backward(dh_out: np.ndarray, cache):
    """Backpropagate gradients on the hidden outputs, shape (m, B, H);
    returns (dx, dwx, dwh, db). Per-step work is kept to the recurrence;
    weight gradients are two matmuls over the collected gate gradients.
    ``tanh(c)`` is recomputed rather than cached. Every array is in the
    dtype of the cache, as :func:`lstm_forward` made it."""
    x, wx, wh, sig_all, g_all, c_all, h_all = cache
    m, batch, h_dim = dh_out.shape
    dtype = h_all.dtype
    dz_all = np.empty((m, batch, 4 * h_dim), dtype)
    dh_next = np.zeros((batch, h_dim), dtype)
    dc_next = np.zeros((batch, h_dim), dtype)
    zeros = np.zeros((batch, h_dim), dtype)
    # The tanh derivatives do not depend on the recurrence: computed for all
    # steps at once (elementwise, so the same bits as per step).
    tc_all = np.tanh(c_all)
    dtc_all = 1.0 - tc_all * tc_all
    dg_all = 1.0 - g_all * g_all
    for t in range(m - 1, -1, -1):
        dh = dh_out[t] + dh_next
        sig = sig_all[t]
        i = sig[:, :h_dim]
        f = sig[:, h_dim : 2 * h_dim]
        o = sig[:, 2 * h_dim :]
        g = g_all[t]
        tc = tc_all[t]
        dc = dh * o * dtc_all[t] + dc_next
        c_prev = c_all[t - 1] if t > 0 else zeros
        dz = dz_all[t]
        dz[:, :h_dim] = dc * g * i * (1.0 - i)
        dz[:, h_dim : 2 * h_dim] = dc * c_prev * f * (1.0 - f)
        dz[:, 2 * h_dim : 3 * h_dim] = dh * tc * o * (1.0 - o)
        dz[:, 3 * h_dim :] = dc * i * dg_all[t]
        dc_next = dc * f
        dh_next = dz @ wh.T
    rows = m * batch
    dz_rows = dz_all.reshape(rows, 4 * h_dim)
    x_rows = x.reshape(rows, x.shape[2])
    h_prevs = np.concatenate([zeros[None], h_all[:-1]]).reshape(rows, h_dim)
    dwx = x_rows.T @ dz_rows
    dwh = h_prevs.T @ dz_rows
    db = dz_rows.sum(axis=0)
    dx = (dz_rows @ wx.T).reshape(x.shape)
    return dx, dwx, dwh, db


# ---------------------------------------------------------------------------
# Bidirectional layer with an optional highway gate on the input
# ---------------------------------------------------------------------------


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
    have the given lengths; returns the (m, B, 2H) outputs and the caches
    (None with ``backprop=False``). Padding follows every valid position in
    both directions, so it cannot change a valid output."""
    rev = _reverse_index(x.shape[0], lengths)
    h_fw, cache_fw = lstm_forward(x, params[f"{prefix}.fw.wx"], params[f"{prefix}.fw.wh"],
                                  params[f"{prefix}.fw.b"], backprop)
    h_bw_rev, cache_bw = lstm_forward(x[rev], params[f"{prefix}.bw.wx"],
                                      params[f"{prefix}.bw.wh"], params[f"{prefix}.bw.b"],
                                      backprop)
    h = np.concatenate([h_fw, h_bw_rev[rev]], axis=2)
    return h, (cache_fw, cache_bw, rev) if backprop else None


def bilstm_backward(dh: np.ndarray, caches, grads: dict, prefix: str):
    h_dim = dh.shape[2] // 2
    cache_fw, cache_bw, rev = caches
    dx_fw, dwx, dwh, db = lstm_backward(dh[:, :, :h_dim], cache_fw)
    grads[f"{prefix}.fw.wx"] = dwx
    grads[f"{prefix}.fw.wh"] = dwh
    grads[f"{prefix}.fw.b"] = db
    dx_bw_rev, dwx, dwh, db = lstm_backward(dh[:, :, h_dim:][rev], cache_bw)
    grads[f"{prefix}.bw.wx"] = dwx
    grads[f"{prefix}.bw.wh"] = dwh
    grads[f"{prefix}.bw.b"] = db
    return dx_fw + dx_bw_rev[rev]


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
        for name, grad in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * grad
            v *= self.BETA2
            v += (1.0 - self.BETA2) * grad * grad
            update = (m / bias1) / (np.sqrt(v / bias2) + self.EPS)
            self.params[name] -= self.step_size * update
        return norm
