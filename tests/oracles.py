"""Independent oracles used to derive expected test values.

These reimplement the arithmetic from first principles (plain probability
normalization, python-loop argmax, central finite differences) so that the
library paths they check cannot share bugs with them.
"""

from __future__ import annotations

import numpy as np

from flipxfer.autodiff import NonFiniteError, SgdState, ShapeError, Tape, Tensor, backward, _mm, _mm_nt, _mm_tn


def finite_diff_grads(loss_fn, params: dict[str, Tensor], h: float = 1e-6) -> dict[str, np.ndarray]:
    """Central differences of loss_fn() w.r.t. every parameter element."""

    def value() -> float:
        out = loss_fn()
        return out.item() if hasattr(out, "item") else float(out)

    grads = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = value()
            flat[i] = orig - h
            lm = value()
            flat[i] = orig
            g[i] = (lp - lm) / (2.0 * h)
        grads[name] = g.reshape(p.data.shape)
    return grads


def analytic_grads(build_loss, params: dict[str, Tensor]) -> tuple[float, dict[str, np.ndarray]]:
    for p in params.values():
        p.grad = None  # drop leftovers from earlier backward passes
    with Tape() as tape:
        loss = build_loss()
    backward(tape, loss)
    return loss.item(), {k: (p.grad if p.grad is not None else np.zeros_like(p.data)) for k, p in params.items()}


def max_rel_error(a: dict[str, np.ndarray], b: dict[str, np.ndarray], floor: float = 1e-3) -> float:
    """Smoothed relative error max |a-b| / max(|a|,|b|,floor).

    The floor keeps central differences meaningful below their ~1e-10
    noise level: elements smaller than the floor are held to an absolute
    tolerance of floor * rtol instead of an unattainable relative one.
    """
    worst = 0.0
    for name in a:
        x, y = np.asarray(a[name]), np.asarray(b[name])
        denom = np.maximum(np.maximum(np.abs(x), np.abs(y)), floor)
        worst = max(worst, float((np.abs(x - y) / denom).max()))
    return worst


# ---------------------------------------------------------------------------
# reference 3x3 conv: fancy-index im2col gather and np.add.at col2im


def reference_sgd_step(params: dict[str, Tensor], velocity: dict[str, np.ndarray], state: SgdState) -> None:
    """SGD one parameter at a time, its velocity kept in ``velocity`` by name:
    v <- momentum*v + grad + weight_decay*theta and theta <- theta - lr*v for
    each parameter whose ``.grad`` is set, the velocity replaced, not written
    in place; a parameter's first velocity is its update.  A non-finite
    updated parameter raises before that parameter changes, naming its
    gradient when that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        for name, p in params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ShapeError(f"sgd_step({name})", g.shape, p.data.shape)
            v = velocity.get(name)
            upd = g if state.weight_decay == 0.0 else g + state.weight_decay * p.data
            v = upd if v is None else state.momentum * v + upd
            theta = p.data - state.lr * v
            if not np.isfinite(theta).all():
                if not np.isfinite(g).all():
                    raise NonFiniteError(f"gradient of parameter {name!r}")
                raise NonFiniteError(f"parameter {name!r} after its update")
            velocity[name] = v
            p.data[...] = theta


def _conv_indices(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    i0 = np.repeat(np.arange(3), 3)
    j0 = np.tile(np.arange(3), 3)
    i1 = np.repeat(np.arange(h), w)
    j1 = np.tile(np.arange(w), h)
    return i0[:, None] + i1[None, :], j0[:, None] + j1[None, :]  # (9, oh*ow) each


def reference_conv2d(x, w, b, g):
    """Zero-padded 3x3 conv (the output keeps the input's height and width)
    and its gradients for the upstream gradient g.

    Returns (out, grad_x, grad_w, grad_b). The patches come from a gather at
    (row, col) index arrays and the input gradient from np.add.at at the same
    indices, with the same einsum products as the tape op. The im2col matrix
    and the upstream gradient's matrix are made C-contiguous: for a one-row
    batch a reshape can be a column-major view, on which einsum sums in
    another order.
    """
    n, cin, h, wdt = x.shape
    cout = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    rows, cols_ix = _conv_indices(h, wdt)
    patches = xp[:, :, rows, cols_ix]  # (n, cin, 9, oh*ow)
    cols = np.ascontiguousarray(patches.transpose(0, 3, 1, 2).reshape(n * h * wdt, cin * 9))
    wmat = w.reshape(cout, cin * 9)
    out = (_mm_nt(cols, wmat) + b).reshape(n, h, wdt, cout).transpose(0, 3, 1, 2)
    gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1).reshape(n * h * wdt, cout))
    grad_w = _mm_tn(gmat, cols).reshape(cout, cin, 3, 3)
    grad_b = gmat.sum(axis=0)
    gpatches = _mm(gmat, wmat).reshape(n, h * wdt, cin, 9).transpose(0, 2, 3, 1)
    gxp = np.zeros_like(xp)
    np.add.at(gxp, (slice(None), slice(None), rows, cols_ix), gpatches)
    return out, gxp[:, :, 1 : 1 + h, 1 : 1 + wdt], grad_w, grad_b


# ---------------------------------------------------------------------------
# scalar loss oracles (probability-space arithmetic, no log-softmax reuse)


def oracle_softmax(z: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64) / temperature
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def oracle_kl(student_logits, teacher_logits, temperature: float = 1.0) -> float:
    p = oracle_softmax(teacher_logits, temperature)
    q = oracle_softmax(student_logits, temperature)
    terms = np.where(p > 0, p * (np.log(np.maximum(p, 1e-300)) - np.log(q)), 0.0)
    return temperature**2 / p.shape[0] * float(terms.sum())


def oracle_xe(student_logits, labels) -> float:
    q = oracle_softmax(student_logits)
    rows = np.arange(len(labels))
    return float(-np.log(q[rows, labels]).mean())


def oracle_dp(student_logits, teacher_logits, st_logits, m_t, temperature: float = 1.0) -> float:
    p_t = oracle_softmax(teacher_logits, temperature)
    p_st = oracle_softmax(st_logits, temperature)
    q = oracle_softmax(student_logits, temperature)
    total = 0.0
    for i in range(len(m_t)):
        p = p_t[i] if m_t[i] else p_st[i]
        total += float(np.where(p > 0, p * (np.log(np.maximum(p, 1e-300)) - np.log(q[i])), 0.0).sum())
    return temperature**2 / len(m_t) * total


def oracle_topk(student_logits, teacher_logits, temperature: float, k: int) -> float:
    p_t = oracle_softmax(teacher_logits, temperature)
    n, c = p_t.shape
    total = 0.0
    for i in range(n):
        order = sorted(range(c), key=lambda j: (-p_t[i, j], j))[:k]
        pt = p_t[i, order]
        pt = pt / pt.sum()
        zs = np.asarray(student_logits[i], dtype=np.float64)[order] / temperature
        e = np.exp(zs - zs.max())
        qs = e / e.sum()
        total += float(np.sum(pt * (np.log(pt) - np.log(qs))))
    return temperature**2 / n * total


def oracle_cd(student_feats, teacher_feats) -> float:
    def sim(f):
        f = np.asarray(f, dtype=np.float64)
        unit = f / np.linalg.norm(f, axis=1, keepdims=True)
        return unit @ unit.T

    p = oracle_softmax(sim(teacher_feats))
    q = oracle_softmax(sim(student_feats))
    return float(np.sum(p * (np.log(p) - np.log(q)))) / len(p)


# ---------------------------------------------------------------------------
# brute-force prediction-flip recount (pure python loops)


def brute_force_argmax(row) -> int:
    best, best_v = 0, row[0]
    for j, v in enumerate(row):
        if v > best_v:
            best, best_v = j, v
    return best


def brute_force_flips(teacher_logits, student_logits, labels):
    """Returns (flags list, per-class counts, rho_pos) counted sample by sample."""
    teacher_logits = np.asarray(teacher_logits)
    student_logits = np.asarray(student_logits)
    labels = [int(y) for y in labels]
    c = teacher_logits.shape[1]
    flags = []
    counts = [0] * c
    for i, y in enumerate(labels):
        t_ok = brute_force_argmax(teacher_logits[i]) == y
        s_ok = brute_force_argmax(student_logits[i]) == y
        flip = t_ok and not s_ok
        flags.append(flip)
        if flip:
            counts[y] += 1
    rho = sum(flags) / len(flags) if flags else 0.0
    return flags, counts, rho


# ---------------------------------------------------------------------------
# reference synthetic image draw: templates smoothed one by one, one
# translated anchor per sample


def reference_class_anchors(cfg):
    """class_anchors for an image config: each (class, mode) template is
    blurred twice by a zero-padded 3x3 box and scaled to standard deviation
    anchor_scale on its own, in a python loop."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.effective_anchor_seed, 0xA2C]))
    e = cfg.image_size
    raw = rng.normal(size=(cfg.classes, cfg.modes_per_class, e, e))
    out = np.empty_like(raw)
    for k in range(cfg.classes):
        for j in range(cfg.modes_per_class):
            t = raw[k, j]
            for _ in range(2):
                p = np.pad(t, 1)
                t = sum(p[1 + di : 1 + di + e, 1 + dj : 1 + dj + e] for di in (-1, 0, 1) for dj in (-1, 0, 1)) / 9.0
            out[k, j] = t / max(float(np.std(t)), 1e-12) * cfg.anchor_scale
    return out


def reference_generate_synthetic(cfg):
    """generate_synthetic for an image config, shifting each sample's anchor
    in a python loop from a zero-padded copy; returns (inputs, labels)."""
    anchors = reference_class_anchors(cfg)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5A11]))
    per_class = cfg.samples // cfg.classes
    labels = np.repeat(np.arange(cfg.classes), per_class)
    modes = rng.integers(0, cfg.modes_per_class, size=cfg.samples)
    e = cfg.image_size
    shifts = rng.integers(-1, 2, size=(cfg.samples, 2))
    inputs = np.empty((cfg.samples, 1, e, e))
    for i in range(cfg.samples):
        dy, dx = shifts[i]
        padded = np.pad(anchors[labels[i], modes[i]], 1)
        inputs[i, 0] = padded[1 - dy : 1 - dy + e, 1 - dx : 1 - dx + e]
    inputs += cfg.sigma * rng.normal(size=inputs.shape)
    noisy = rng.random(cfg.samples) < cfg.label_noise
    labels = labels.copy()
    labels[noisy] = rng.integers(0, cfg.classes, size=int(noisy.sum()))
    order = rng.permutation(cfg.samples)
    return inputs[order], labels[order]
