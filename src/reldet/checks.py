"""Verification routines shared by ``reldet selftest`` and the acceptance tests.

Each routine checks one part of the package against an independent oracle:
central differences for gradients, brute force for the assignment solver,
enumeration for average precision, closed-form GIoU properties and query
permutation equivariance. A routine takes its sizes and an ``rng`` as
parameters, draws from the ``rng`` in a fixed order, and returns
``(checks, failures)``: how many checks ran and one message per failed check.

Every gradient check takes its central differences from one routine,
``finite_diff_grad``, with one step, 1e-5. A block's check seeds
``numeric.backward`` with a random probe r, a vector-Jacobian product, and
differences ``np.sum(op(x) * r)``; the end-to-end check differences the set
loss itself in a sample of parameter entries.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import numeric
from .errors import ContractError
from .evaluation import average_precision
from .geometry import LossWeights, box_pairs
from .matching import brute_force_assign, build_cost_matrix, hungarian, hungarian_loss_terms
from .model import ModelConfig, forward, init_params
from .numeric import Tape, Tensor, tape_suspended

_FD_STEP = 1e-5  # the step of every central difference


def grad_excess(analytic, fd, rtol: float, atol: float = 1e-7) -> float:
    """Worst amount by which |a - f| exceeds atol + rtol*max(|a|, |f|); above 0 fails.

    The absolute floor keeps near-zero gradients from blowing up the relative
    error. A NaN entry counts as an infinite excess.
    """
    a = np.asarray(analytic, dtype=np.float64)
    f = np.asarray(fd, dtype=np.float64)
    if a.shape != f.shape:
        raise ContractError(f"gradient shape {a.shape} vs finite-difference shape {f.shape}")
    excess = np.abs(a - f) - (atol + rtol * np.maximum(np.abs(a), np.abs(f)))
    return float(np.max(np.where(np.isnan(excess), np.inf, excess)))


def finite_diff_grad(f, x: np.ndarray) -> np.ndarray:
    """Central differences of the scalar ``f()`` in each entry of the array x that f reads.

    Each entry is set in place to base + 1e-5, then to base - 1e-5, and
    (up - dn) / (2 * 1e-5) taken. The entry is restored afterwards and the
    tape, suspended while f runs so that no probe records, is restored too,
    even if f raises. x must be C-contiguous, or the writes miss what f reads
    (ContractError otherwise); a one-entry slice of a parameter differences
    that entry alone.
    """
    if not x.flags.c_contiguous:
        raise ContractError("finite_diff_grad needs a C-contiguous x: a strided view's reshape is a copy f never reads")
    flat = x.reshape(-1)
    g = np.empty(flat.size)
    with tape_suspended():
        for i in range(flat.size):
            base = flat[i]
            try:
                flat[i] = base + _FD_STEP
                up = f()
                flat[i] = base - _FD_STEP
                dn = f()
            finally:
                flat[i] = base
            g[i] = (up - dn) / (2 * _FD_STEP)
    return g.reshape(x.shape)


def fd_excess(op, x_data, rng, rtol: float = 1e-4) -> float:
    """grad_excess of d(sum(op(x) * r))/dx, from ``backward`` seeded with r,
    against central differences of ``np.sum(op(x) * r)``.

    One random probe r, drawn from ``rng`` after the forward pass, exercises
    the whole Jacobian in one backward pass.
    """
    x = Tensor(x_data, requires_grad=True)
    with Tape():
        y = op(x)
    probe = rng.standard_normal(y.shape)
    numeric.backward(y, probe)
    xs = np.array(x_data, dtype=np.float64)
    fd = finite_diff_grad(lambda: np.sum(op(Tensor(xs)).data * probe), xs)
    return grad_excess(x.grad, fd, rtol)


def op_cases(rng) -> list:
    """(name, op, input) for every differentiable primitive, with operands from ``rng``.

    The primitives are looked up on ``numeric`` when this is called, so a
    patched primitive is the one checked.
    """
    mat = rng.standard_normal((3, 4))
    const = Tensor(rng.standard_normal((3, 4)))
    rhs = Tensor(rng.standard_normal((4, 2)))
    bias = Tensor(rng.standard_normal(2))
    keys = Tensor(rng.standard_normal((5, 4)))
    key_pos = Tensor(rng.standard_normal((5, 4)))
    proj = [Tensor(rng.standard_normal(shape) / 2) for shape in [(4, 4, 4), (4, 4)]]  # q, k, v, o weights and biases
    # a 4 -> 5 -> 4 perceptron whose hidden pre-activations stay within 1 of +-3: clear of the
    # relu kink, with units on both sides of it
    rows = rng.uniform(-0.5, 0.5, (3, 4))
    w0, b0 = Tensor(rng.uniform(-0.5, 0.5, (4, 5))), Tensor(np.array([3.0, -3.0, 3.0, -3.0, 3.0]))
    top = [Tensor(rng.standard_normal((5, 4))), Tensor(rng.standard_normal(4))]
    # set loss: 5 predictions, 2 classes + no object, 3 targets; boxes that overlap
    # their targets in general position, probabilities away from the 1e-12 clamp
    probs = rng.uniform(0.2, 1.0, (5, 3))
    boxes = np.column_stack([rng.uniform(0.35, 0.65, (5, 2)), rng.uniform(0.2, 0.5, (5, 2))])
    targets = np.column_stack([rng.uniform(0.35, 0.65, (3, 2)), rng.uniform(0.2, 0.5, (3, 2))])
    perm, classes, weights = [3, 0, 4, 1, 2], [1, 0, 1], LossWeights(2.0, 5.0)
    # backbone: a [2, 5, 3] image (odd extents round each stage up: [3, 3, 2], then [3, 2, 1])
    # and two stages whose pre-activations stay within 1 of +-3, as the perceptron's do
    image = rng.uniform(-0.5, 0.5, (2, 5, 3))
    conv = [Tensor(a) for c, bound in ((2, 0.1), (3, 0.01))
            for a in (rng.uniform(-bound, bound, (9 * c, 3)), np.array([3.0, -3.0, 3.0]))]
    # relation: 4 nodes of width 3, node 3 isolated, pre-activations clear of the relu kink
    nodes = rng.uniform(-0.5, 0.5, (4, 3))
    nbr_mean = np.array([[0, 0.5, 0.5, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]])
    mix_w, mix_b = Tensor(rng.uniform(-0.3, 0.3, (3, 6))), Tensor(np.array([3.0, -3.0, 3.0]))

    def set_loss(p, b):
        return numeric.set_loss(p, b, perm, classes, targets, 0.3, weights)[0]

    def attend(x=const, pos=const, kv=keys, kv_pos=key_pos, proj=proj):
        return numeric.attention_block(x, pos, kv, kv_pos, proj, 2)

    def mlp_cases(output):
        tag = f"mlp+{output}" if output else "mlp"
        return [
            (f"{tag}/x", lambda x: numeric.mlp(x, [w0, b0, *top], output), rows),
            (f"{tag}/w", lambda w: numeric.mlp(Tensor(rows), [w, b0, *top], output), w0.data),
            (f"{tag}/b", lambda b: numeric.mlp(Tensor(rows), [w0, b, *top], output), b0.data),
        ]

    def backbone_cases(n):
        layers = conv[:2 * n]
        return [
            (f"backbone{n}/x", lambda x: numeric.backbone(x, layers), image),
            (f"backbone{n}/w0", lambda w: numeric.backbone(Tensor(image), [w, *layers[1:]]), layers[0].data),
            (f"backbone{n}/b_last", lambda b: numeric.backbone(Tensor(image), [*layers[:-1], b]), layers[-1].data),
        ]

    return [
        ("mlp1/x", lambda x: numeric.mlp(x, (rhs, bias)), mat),
        ("mlp1/w", lambda w: numeric.mlp(const, (w, bias)), rhs.data),
        ("mlp1/b", lambda b: numeric.mlp(const, (rhs, b)), bias.data),
        ("attention_block/x", lambda x: attend(x=x), mat),
        ("attention_block/pos", lambda p: attend(pos=p), mat),
        ("attention_block/kv", lambda kv: attend(kv=kv), keys.data),
        ("attention_block/kv_pos", lambda p: attend(kv_pos=p), key_pos.data),
        ("attention_block/w", lambda w: attend(proj=[w, proj[1]]), proj[0].data),
        ("attention_block/b", lambda b: attend(proj=[proj[0], b]), proj[1].data),
        ("attention_block/x=pos=kv=kv_pos", lambda x: attend(x, x, x, x), mat),  # self-attention
        *mlp_cases(None),
        *mlp_cases("sigmoid"),
        *mlp_cases("softmax"),
        ("ffn_block/x", lambda x: numeric.ffn_block(x, [w0, b0, *top]), rows),
        ("ffn_block/w1", lambda w: numeric.ffn_block(Tensor(rows), [w, b0, *top]), w0.data),
        ("ffn_block/b2", lambda b: numeric.ffn_block(Tensor(rows), [w0, b0, top[0], b]), top[1].data),
        ("set_loss/probs", lambda p: set_loss(p, Tensor(boxes)), probs),
        ("set_loss/boxes", lambda b: set_loss(Tensor(probs), b), boxes),
        *backbone_cases(1),
        *backbone_cases(2),
        ("relation/x", lambda x: numeric.relation(x, nbr_mean, mix_w, mix_b), nodes),
        ("relation/w", lambda w: numeric.relation(Tensor(nodes), nbr_mean, w, mix_b), mix_w.data),
        ("relation/b", lambda b: numeric.relation(Tensor(nodes), nbr_mean, mix_w, b), mix_b.data),
    ]


def gradient_ops(rng):
    """fd_excess of every op in op_cases, relative bound 1e-4."""
    cases = op_cases(rng)
    excess = [(name, fd_excess(op, x_data, rng)) for name, op, x_data in cases]
    return len(cases), [f"{name} gradient off by {e:.2e} beyond tolerance" for name, e in excess if e > 0]


def gradient_end_to_end(rng, config: ModelConfig, targets, samples: int):
    """Backward through forward, matching and set loss against central differences.

    Draws the image, then for each of ``samples`` checks a parameter tensor and
    an entry in it; the relative bound is 1e-3 with an absolute floor of 1e-6.
    """
    params = init_params(config)
    image = Tensor(rng.uniform(0, 1, (3, *config.image_size)))
    gts = list(targets)
    w = LossWeights()
    with Tape():
        out = forward(image, params, config)
        assign = hungarian(build_cost_matrix(gts, out.class_probs.data, out.boxes.data, w))
        loss = hungarian_loss_terms(gts, out, assign, w).total
    numeric.backward(loss)

    def loss_at():
        return float(hungarian_loss_terms(gts, forward(image, params, config), assign, w).total.data)

    names = list(params)
    failures = []
    for _ in range(samples):
        name = names[int(rng.integers(0, len(names)))]
        flat = params[name].data.reshape(-1)
        idx = int(rng.integers(0, flat.size))
        fd = finite_diff_grad(loss_at, flat[idx:idx + 1])[0]
        analytic = params[name].grad.reshape(-1)[idx]
        if grad_excess(analytic, fd, rtol=1e-3, atol=1e-6) > 0:
            failures.append(f"{name}[{idx}]: backward {analytic:.6e} vs fd {fd:.6e}")
    return samples, failures


def hungarian_oracle(rng, max_n: int, trials_per_n: int):
    """Hungarian total cost equals brute force exactly, for N = 2..max_n.

    Every third matrix holds small integers, where tied assignments are common.
    """
    failures = []
    for n in range(2, max_n + 1):
        for trial in range(trials_per_n):
            if trial % 3 == 2:
                c = rng.integers(-3, 7, (n, n)).astype(np.float64)
            else:
                c = rng.uniform(-1.0, 1.0, (n, n))
            if hungarian(c).total_cost != brute_force_assign(c).total_cost:
                failures.append(f"cost mismatch on a random {n}x{n} matrix")
    return (max_n - 1) * trials_per_n, failures


def rectangular_oracle(rng, max_n: int, trials_per_shape: int):
    """The rectangular solve of a G x N matrix, G < N <= max_n, against brute
    force over the matrix padded with zero rows to N x N.

    The total costs must be equal exactly. On continuous costs the
    permutations must be equal too: the zero rows take the unmatched columns
    in ascending order, the first optimum brute force meets. Every third
    matrix holds small integers, where only the total is compared.
    """
    failures = []
    checks = 0
    for n in range(2, max_n + 1):
        for g in range(1, n):
            for trial in range(trials_per_shape):
                ties = trial % 3 == 2
                if ties:
                    c = rng.integers(-3, 7, (g, n)).astype(np.float64)
                else:
                    c = rng.uniform(-1.0, 1.0, (g, n))
                got = hungarian(c)
                ref = brute_force_assign(np.vstack([c, np.zeros((n - g, n))]))
                if got.total_cost != ref.total_cost or not (ties or got.perm == ref.perm):
                    failures.append(f"rectangular {g}x{n} solve differs from the zero-padded brute force")
                checks += 1
    return checks, failures


FIXED_CASE = "fixed case"  # prefix of the failures of hand-derived cases


def giou_invariants(rng, pairs: int):
    """On random box pairs the ``box_pairs`` GIoU lies in (-1, 1], is at most
    IoU, is symmetric and is 1 on identical boxes; plus two fixed cases, -5/63
    and a side touch."""
    a, b = np.empty((pairs, 4)), np.empty((pairs, 4))
    for i in range(pairs):
        w1, h1, w2, h2 = rng.uniform(0.02, 0.45, 4)
        a[i] = rng.uniform(w1 / 2, 1 - w1 / 2), rng.uniform(h1 / 2, 1 - h1 / 2), w1, h1
        b[i] = rng.uniform(w2 / 2, 1 - w2 / 2), rng.uniform(h2 / 2, 1 - h2 / 2), w2, h2
    ab = box_pairs(a, b)
    g = ab.giou()
    ok = (-1.0 < g) & (g <= 1.0) & (g <= ab.iou() + 1e-15)
    ok &= (g == box_pairs(b, a).giou()) & (box_pairs(a, a).giou() == 1.0)
    failures = [f"giou invariant broken for {a[i].tolist()} vs {b[i].tolist()}" for i in np.flatnonzero(~ok)]
    fixed = box_pairs([[1.0, 1.0, 2.0, 2.0], [0.5, 0.5, 1.0, 1.0]], [[2.0, 2.0, 2.0, 2.0], [1.5, 0.5, 1.0, 1.0]]).giou()
    if abs(fixed[0] - (-5 / 63)) >= 1e-15:
        failures.append(f"{FIXED_CASE} -5/63 failed")
    if fixed[1] != 0.0:
        failures.append(f"{FIXED_CASE} side-touch 0 failed")
    return pairs + 2, failures


def softmax_properties(rng, trials: int):
    """The class head's softmax, here an ``mlp`` over an identity map, sums to
    1, stays strictly inside (0, 1) and ignores a constant shift."""
    failures = []
    for _ in range(trials):
        # scale kept moderate: a ~36 logit gap would round the winner to 1.0
        x = rng.standard_normal(int(rng.integers(2, 7))) * 3
        identity = (Tensor(np.eye(x.size)), Tensor(np.zeros(x.size)))
        y = numeric.mlp(Tensor(x[None]), identity, "softmax").data[0]
        shifted = numeric.mlp(Tensor(x[None] + rng.uniform(-50, 50)), identity, "softmax").data[0]
        if abs(y.sum() - 1) > 1e-12 or np.abs(y - shifted).max() > 1e-12 or np.any(y <= 0) or np.any(y >= 1):
            failures.append("softmax normalization or shift invariance failed")
    return trials, failures


def ap_enumerated(flags, num_gt: int) -> float:
    """Brute-force AP of a ranked TP/FP list: the mean over recall levels
    1/num_gt .. tp/num_gt of the best precision at that recall or beyond."""
    tp = 0
    prec, rec = [], []
    for i, f in enumerate(flags):
        tp += int(f)
        prec.append(tp / (i + 1))
        rec.append(tp / num_gt)
    return sum(max(p for p, r in zip(prec, rec) if r >= level / num_gt) for level in range(1, tp + 1)) / num_gt


def ap_oracle(rng, fixtures: int, max_gt: int, max_detections: int):
    """average_precision is exactly 5/6 on [TP, FP, TP] with 2 ground truths, and
    matches ap_enumerated to 1e-12 on random ranked lists."""
    failures = []
    if average_precision([True, False, True], 2) != 5 / 6:  # exact: AP sums rationals
        failures.append(f"{FIXED_CASE} [TP, FP, TP] with 2 gts is not 5/6")
    for _ in range(fixtures):
        num_gt = int(rng.integers(1, max_gt + 1))
        flags = list(rng.random(int(rng.integers(0, max_detections + 1))) < 0.5)
        while sum(flags) > num_gt:
            flags[max(i for i, f in enumerate(flags) if f)] = False
        ap, expected = average_precision(flags, num_gt), ap_enumerated(flags, num_gt)
        if abs(ap - expected) > 1e-12:
            failures.append(f"AP {ap} != enumerated {expected}")
    return fixtures + 1, failures


def equivariance_deviations(rng, config: ModelConfig, trials: int, first_seed: int) -> list[float]:
    """Permuting the query embeddings must permute the outputs the same way.

    Per trial (parameters seeded ``first_seed + trial``, then a random image
    and permutation), the largest deviation of the permuted run's class
    probabilities and boxes from the permuted base run.
    """
    devs = []
    for trial in range(trials):
        params = init_params(replace(config, seed=first_seed + trial))
        image = Tensor(rng.uniform(0, 1, (3, *config.image_size)))
        base = forward(image, params, config)
        perm = rng.permutation(config.num_queries)
        params["query_embed"] = Tensor(params["query_embed"].data[perm])
        permuted = forward(image, params, config)
        devs.append(max(
            np.abs(permuted.class_probs.data - base.class_probs.data[perm]).max(),
            np.abs(permuted.boxes.data - base.boxes.data[perm]).max(),
        ))
    return devs


def query_equivariance(rng, config: ModelConfig, trials: int, first_seed: int = 0):
    """equivariance_deviations at most 1e-9 on every trial."""
    devs = equivariance_deviations(rng, config, trials, first_seed)
    return trials, [f"trial {t}: deviation {d:.2e}" for t, d in enumerate(devs) if d > 1e-9]
