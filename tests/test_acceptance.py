"""Acceptance suite: exact property checks plus a scaled-down benchmark.

The benchmark trains a zoo of 8 models (two families, ~20 accuracy points of
spread) on a synthetic 10-class image task, then runs transfer sweeps whose
qualitative orderings must hold.  Two transfer protocols are used, matching
the comparisons they support: a sweep setting (lr 1e-3) where plain
distillation has moved far enough to show its failure modes, and a
conservative small-step setting (lr 5e-5) for the supervised/unsupervised
parity comparison, whose tolerance is absolute.
"""

import time
from dataclasses import asdict, dataclass, replace

import numpy as np
import pytest

from flipxfer import autodiff as ad
from flipxfer.analysis import positive_flips, success_rate
from flipxfer.autodiff import Tensor
from flipxfer.cli import _sweep_task
from flipxfer.data import Dataset, SyntheticConfig, stratified_subsample, train_val_pair
from flipxfer.models import ModelSpec, build, predict_logits
from flipxfer.multiteacher import parallel_transfer, sequential_transfer, soup_transfer
from flipxfer.pool import pool_map, usable_cpus
from flipxfer.transfer import (
    MclState,
    PartitionMask,
    TransferHyperparams,
    ValBaseline,
    cd_loss,
    dp_loss,
    dp_masks_supervised,
    dp_masks_unsupervised,
    kl_loss,
    mcl_interpolate,
    run_transfer,
    topk_restricted_kl,
    xe_kl_loss,
)
from flipxfer.zoo import TrainConfig, ZooManifest, pair_grid, pretrain_zoo, spread_pairs

from conftest import record_criterion
from oracles import analytic_grads, finite_diff_grads, max_rel_error, brute_force_flips

INPUT = (1, 8, 8)
CLASSES = 10

DATASET = SyntheticConfig(
    classes=CLASSES, samples=3000, image_size=8, modes_per_class=4,
    label_noise=0.02, seed=1, anchor_seed=7, sigma=1.0, anchor_scale=1.5,
)

ZOO_JOBS = [
    ("mlp_w48", ModelSpec("mlp", 2, INPUT, CLASSES, width=48, dropout=0.10),
     TrainConfig(epochs=24, lr=0.06, augment_noise=0.5, init_seed=1, order_seed=1)),
    ("mlp_w32", ModelSpec("mlp", 2, INPUT, CLASSES, width=32, dropout=0.10),
     TrainConfig(epochs=20, lr=0.06, augment_noise=0.5, init_seed=2, order_seed=2)),
    ("mlp_w20", ModelSpec("mlp", 2, INPUT, CLASSES, width=20, dropout=0.15),
     TrainConfig(epochs=16, lr=0.06, augment_noise=0.5, init_seed=3, order_seed=3)),
    ("mlp_w14", ModelSpec("mlp", 2, INPUT, CLASSES, width=14),
     TrainConfig(epochs=12, lr=0.05, augment_noise=0.5, init_seed=5, order_seed=5)),
    ("mlp_w10", ModelSpec("mlp", 3, INPUT, CLASSES, width=10),
     TrainConfig(epochs=20, lr=0.05, augment_noise=0.8, init_seed=4, order_seed=4)),
    ("cnn_c10", ModelSpec("cnn", 3, INPUT, CLASSES, channels=(10, 10, 10)),
     TrainConfig(epochs=20, lr=0.05, augment_noise=0.5, init_seed=6, order_seed=6)),
    ("cnn_c8", ModelSpec("cnn", 3, INPUT, CLASSES, channels=(8, 8, 8)),
     TrainConfig(epochs=12, lr=0.04, augment_noise=0.5, init_seed=7, order_seed=7)),
    ("cnn_c6", ModelSpec("cnn", 3, INPUT, CLASSES, channels=(6, 6, 6)),
     TrainConfig(epochs=14, lr=0.04, augment_noise=0.5, init_seed=8, order_seed=8)),
]

SWEEP_HP = TransferHyperparams(lr=1e-3, epochs=20, batch_size=64, seed=3)
PARITY_HP = TransferHyperparams(lr=5e-5, epochs=20, batch_size=64, seed=3)
SWEEP_PAIR_BUDGET = 24

PARITY_PAIRS = [
    ("cnn_c8", "mlp_w10"), ("cnn_c10", "mlp_w32"), ("mlp_w20", "mlp_w14"),
    ("mlp_w10", "mlp_w48"), ("mlp_w32", "mlp_w20"), ("mlp_w14", "cnn_c6"),
    ("mlp_w48", "mlp_w32"), ("cnn_c6", "mlp_w14"), ("mlp_w32", "cnn_c8"),
    ("mlp_w20", "cnn_c10"),
]

MULTI_STUDENT = "mlp_w14"
MULTI_TEACHERS = ["cnn_c10", "cnn_c6", "mlp_w48"]


@dataclass
class Bench:
    train: Dataset
    val: Dataset
    transfer_set: Dataset
    manifest: ZooManifest
    models: dict  # in ZOO_JOBS order
    val_logits: dict
    zoo_seconds: float


@pytest.fixture(scope="session")
def bench() -> Bench:
    t0 = time.time()
    train, val = train_val_pair(DATASET, val_samples=2000, val_seed=2)
    transfer_set = stratified_subsample(train, 0.1, seed=11)
    manifest, trained = pretrain_zoo(
        [(spec, cfg) for _, spec, cfg in ZOO_JOBS], train, val, names=[name for name, _, _ in ZOO_JOBS]
    )
    failed = [e.error for e in manifest.entries if e.failed]
    assert not failed, failed
    models = {name: trained[name] for name, _, _ in ZOO_JOBS}
    val_logits = {n: predict_logits(ck, val.inputs) for n, ck in models.items()}
    return Bench(train, val, transfer_set, manifest, models, val_logits, time.time() - t0)


def _transfer_rows(bench: Bench, tasks: list[tuple[str, str, str, dict]]) -> list[dict]:
    """The report row of each (teacher, student, method, hyperparams) task, run
    as ``sweep`` runs it: on every usable CPU, in task order."""
    rows = pool_map(_sweep_task, (bench.models, bench.transfer_set, bench.val), tasks, usable_cpus())
    failed = [row for row in rows if "error" in row]
    assert not failed, failed
    return rows


@pytest.fixture(scope="session")
def sweep(bench: Bench) -> dict:
    """The sweep's report rows by method, over the pairs ``sweep.max_pairs``
    would keep."""
    t0 = time.time()
    methods = ("kl", "kl_dp_sup")
    pairs = spread_pairs(pair_grid(bench.manifest), SWEEP_PAIR_BUDGET)
    rows = _transfer_rows(bench, [(t.name, s.name, m, asdict(SWEEP_HP)) for t, s in pairs for m in methods])
    return {m: [row for row in rows if row["method"] == m] for m in methods} | {"seconds": time.time() - t0}


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_c01_gradient_suite():
    t0 = time.time()
    worst = 0.0
    for net_seed in range(5):
        rng = np.random.default_rng(100 + net_seed)
        params = {
            "w1": Tensor(rng.normal(size=(5, 6), scale=0.6), requires_grad=True),
            "b1": Tensor(rng.normal(size=6, scale=0.1), requires_grad=True),
            "w2": Tensor(rng.normal(size=(6, 4), scale=0.6), requires_grad=True),
            "b2": Tensor(rng.normal(size=4, scale=0.1), requires_grad=True),
        }
        x = Tensor(rng.normal(size=(6, 5)))
        teacher = rng.normal(size=(6, 4), scale=2)
        st_ref = rng.normal(size=(6, 4), scale=2)
        labels = rng.integers(0, 4, size=6)
        m_t = rng.random(6) < 0.5
        mask = PartitionMask(m_t, ~m_t)
        teacher_feats = rng.normal(size=(6, 6))

        def logits():
            return ad.affine(ad.relu(ad.affine(x, params["w1"], params["b1"])), params["w2"], params["b2"])

        objectives = {
            "kl": lambda: kl_loss(logits(), teacher, 2.0),
            "xe_kl": lambda: xe_kl_loss(logits(), teacher, labels, 0.7, 2.0),
            "dp": lambda: dp_loss(logits(), teacher, st_ref, mask, 2.0),
            "topk": lambda: topk_restricted_kl(logits(), teacher, 2.0, 2),
            # pre-relu features: a fully dead relu row would zero a feature
            # vector and make the cosine matrix (legitimately) undefined
            "cd": lambda: cd_loss(ad.affine(x, params["w1"], params["b1"]), teacher_feats),
        }
        for build_loss in objectives.values():
            _, got = analytic_grads(build_loss, params)
            want = finite_diff_grads(build_loss, params)
            worst = max(worst, max_rel_error(got, want))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 60
    record_criterion(1, f"gradient suite: max rel err {worst:.2e}, {elapsed:.0f}s", ok)
    assert worst <= 1e-5
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 2. flip oracle


def test_c02_flip_oracle(bench: Bench):
    teacher = bench.val_logits["cnn_c8"]
    student = bench.val_logits["mlp_w10"]
    labels = bench.val.labels
    assert labels.size >= 1000
    stats = positive_flips(teacher, student, labels)
    flags, counts, rho = brute_force_flips(teacher, student, labels)
    ok = (
        np.array_equal(stats.per_sample_flags, flags)
        and np.array_equal(stats.per_class_counts, counts)
        and stats.rho_pos == rho
    )
    # the production path: a transfer's baseline flips, from predict_classes
    # (val_correct), equal positive_flips on the exact logits for every pair
    val = Dataset(bench.val.inputs, labels, CLASSES)  # an empty memo: every model forwarded here
    pairs = [(t, s) for t in bench.models for s in bench.models if t != s]
    for t, s in pairs:
        got = ValBaseline.measure(bench.models[s], [bench.models[t]], val).flips
        want = positive_flips(bench.val_logits[t], bench.val_logits[s], labels)
        ok = ok and (
            np.array_equal(got.per_sample_flags, want.per_sample_flags)
            and np.array_equal(got.per_class_counts, want.per_class_counts)
            and got.rho_pos == want.rho_pos
        )
    record_criterion(2, f"flip oracle exact on {labels.size} samples; production flips equal on {len(pairs)} pairs", ok)
    assert ok


# ---------------------------------------------------------------------------
# 3. complementary knowledge exists for every pair


def test_c03_complementary_knowledge_exists(bench: Bench):
    t0 = time.time()
    names = list(bench.models)
    worst = np.inf
    for sname in names:
        spec = bench.models[sname].spec
        rand_rhos = [
            positive_flips(
                predict_logits(build(spec, seed=1000 + i), bench.val.inputs),
                bench.val_logits[sname],
                bench.val.labels,
            ).rho_pos
            for i in range(10)
        ]
        base = float(np.mean(rand_rhos))
        for tname in names:
            if tname == sname:
                continue
            rho = positive_flips(
                bench.val_logits[tname], bench.val_logits[sname], bench.val.labels
            ).rho_pos
            worst = min(worst, rho / base)
    elapsed = bench.zoo_seconds + (time.time() - t0)
    ok = worst >= 3.0 and elapsed < 900
    record_criterion(
        3, f"complementary knowledge: min rho ratio {worst:.2f}x random, {elapsed:.0f}s incl zoo", ok
    )
    assert worst >= 3.0
    assert elapsed < 900


# ---------------------------------------------------------------------------
# 4. success-rate ordering


def test_c04_success_rate_ordering(sweep):
    rows = sweep["kl"]
    deltas = [r["delta_acc"] for r in rows]
    assert len(rows) >= 20
    assert min(deltas) <= -0.10 and max(deltas) >= 0.10
    sr_kl = success_rate(rows)
    sr_dp = success_rate(sweep["kl_dp_sup"])
    ok = sr_dp >= sr_kl + 0.20 and sr_dp >= 0.70 and sweep["seconds"] < 3600
    record_criterion(
        4,
        f"success rates over {len(rows)} pairs: kl {sr_kl:.3f}, kl_dp_sup {sr_dp:.3f}, "
        f"{sweep['seconds']:.0f}s",
        ok,
    )
    assert sr_dp >= sr_kl + 0.20
    assert sr_dp >= 0.70
    assert sweep["seconds"] < 3600


# ---------------------------------------------------------------------------
# 5. weak-teacher sign flip


def test_c05_weak_teacher_sign_flip(sweep):
    weak = {m: [r["delta_transf"] for r in sweep[m] if r["delta_acc"] <= -0.05] for m in ("kl", "kl_dp_sup")}
    assert len(weak["kl"]) >= 3
    mean_kl = float(np.mean(weak["kl"]))
    mean_dp = float(np.mean(weak["kl_dp_sup"]))
    ok = mean_kl < 0.0 and mean_dp >= 0.0
    record_criterion(
        5,
        f"weak teachers (n={len(weak['kl'])}): mean kl {mean_kl*100:+.2f} pts, "
        f"mean kl_dp_sup {mean_dp*100:+.2f} pts",
        ok,
    )
    assert mean_kl < 0.0
    assert mean_dp >= 0.0


# ---------------------------------------------------------------------------
# 6. mask invariants


def test_c06_mask_invariants(bench: Bench):
    x = bench.transfer_set.inputs
    y = bench.transfer_set.labels
    names = list(bench.models)
    logits = {n: predict_logits(bench.models[n], x) for n in names}
    checked = 0
    agree = True
    for tname in names:
        for sname in names:
            if tname == sname:
                continue
            sup = dp_masks_supervised(logits[tname], logits[sname], y)
            unsup = dp_masks_unsupervised(logits[tname], logits[sname])
            # partition exactness on every batch-sized slice
            for start in range(0, y.size, SWEEP_HP.batch_size):
                sl = np.arange(start, min(start + SWEEP_HP.batch_size, y.size))
                assert np.all(sup.slice(sl).m_t ^ sup.slice(sl).m_st)
                assert np.all(unsup.slice(sl).m_t ^ unsup.slice(sl).m_st)
            both = (np.argmax(logits[tname], axis=1) == y) & (np.argmax(logits[sname], axis=1) == y)
            agree &= bool(np.array_equal(sup.m_t[both], unsup.m_t[both]))
            checked += 1
    record_criterion(6, f"mask partition + sup/unsup agreement over {checked} pairs", agree)
    assert agree


# ---------------------------------------------------------------------------
# 7. unsupervised parity


def test_c07_unsupervised_parity(bench: Bench):
    methods = ("kl_dp_sup", "kl_dp_unsup")
    rows = _transfer_rows(bench, [(t, s, m, asdict(PARITY_HP)) for t, s in PARITY_PAIRS for m in methods])
    sups, unsups = ([r["delta_transf"] for r in rows if r["method"] == m] for m in methods)
    gap = abs(float(np.mean(sups)) - float(np.mean(unsups)))
    ok = gap <= 0.005 and len(PARITY_PAIRS) >= 5
    record_criterion(
        7,
        f"sup/unsup parity over {len(PARITY_PAIRS)} pairs: gap {gap*100:.3f} pts "
        f"(sup {np.mean(sups)*100:+.2f}, unsup {np.mean(unsups)*100:+.2f})",
        ok,
    )
    assert gap <= 0.005


# ---------------------------------------------------------------------------
# 8. MCL endpoints


def test_c08_mcl_endpoints(bench: Bench):
    student = bench.models["mlp_w14"]
    teacher = bench.models["mlp_w32"]
    hp = replace(SWEEP_HP, epochs=2, mcl_tau=1.0, lam=0.7)
    res = run_transfer(student, teacher, "xe_kl_mcl", hp, bench.transfer_set, bench.val)
    pinned = all(
        np.array_equal(res.student_after.params[k], student.params[k]) for k in student.params
    )

    # tau=0, N=1: the slow copy shadows the fast weights after every step
    rng = np.random.default_rng(0)
    fast = {"w": Tensor(rng.normal(size=(4, 3)), requires_grad=True)}
    state = MclState(slow={"w": fast["w"].data.copy()}, fast=fast, tau=0.0, every=1)
    shadowed = True
    for _ in range(50):
        fast["w"].data = fast["w"].data - 0.01 * rng.normal(size=(4, 3))
        mcl_interpolate(state)
        shadowed &= bool(np.array_equal(state.slow["w"], fast["w"].data))
    ok = pinned and shadowed
    record_criterion(8, "mcl endpoints: tau=1 pins weights bitwise, tau=0/N=1 shadows fast", ok)
    assert pinned
    assert shadowed


# ---------------------------------------------------------------------------
# 9. multi-teacher ordering


def test_c09_multi_teacher_ordering(bench: Bench):
    t0 = time.time()
    student = bench.models[MULTI_STUDENT]
    teachers = [(n, bench.models[n]) for n in MULTI_TEACHERS]
    tasks = [(t, MULTI_STUDENT, "kl_dp_sup", asdict(SWEEP_HP)) for t in MULTI_TEACHERS]
    singles = [row["delta_transf"] for row in _transfer_rows(bench, tasks)]
    best = max(singles)

    args = (student, teachers, "kl_dp_sup", SWEEP_HP, bench.transfer_set, bench.val)
    stages = sequential_transfer(*args)
    seq = stages[-1].doc["cumulative_delta_transf"]
    par = parallel_transfer(*args).doc["delta_transf"]
    soup = soup_transfer(*args).doc["delta_transf"]
    elapsed = time.time() - t0
    ok = seq >= best - 0.002 and par <= seq and soup <= seq and elapsed < 5400
    record_criterion(
        9,
        f"multi-teacher: best single {best*100:+.2f}, seq {seq*100:+.2f}, "
        f"par {par*100:+.2f}, soup {soup*100:+.2f}, {elapsed:.0f}s",
        ok,
    )
    assert seq >= best - 0.002
    assert par <= seq
    assert soup <= seq
    assert elapsed < 5400


# ---------------------------------------------------------------------------
# 10. transfer-rate concentration


def test_c10_transfer_rate_concentration(sweep):
    rows = sweep["kl_dp_sup"]
    top2 = [r["transfer_rate_top2"] for r in rows if r["transfer_rate_top2"] is not None]
    overall = [r["transfer_rate_overall"] for r in rows if r["transfer_rate_overall"] is not None]
    mean_top2 = float(np.mean(top2))
    mean_overall = float(np.mean(overall))
    ok = mean_top2 >= mean_overall
    record_criterion(
        10,
        f"transfer rate: top-2% classes {mean_top2:.3f} vs overall {mean_overall:.3f} "
        f"over {len(top2)} KL+DP runs",
        ok,
    )
    assert mean_top2 >= mean_overall


# ---------------------------------------------------------------------------
# 11. CLI determinism


def test_c11_cli_determinism(tmp_path):
    import json

    from flipxfer.cli import main

    dataset = {
        "synthetic": {
            "classes": 4, "dims": 8, "modes_per_class": 2, "label_noise": 0.02,
            "sigma": 1.0, "anchor_scale": 2.5, "anchor_seed": 5,
            "train": {"samples": 240, "seed": 1}, "val": {"samples": 200, "seed": 2},
        },
    }
    zoo_out = tmp_path / "zoo"
    zoo_cfg = tmp_path / "zoo.json"
    zoo_cfg.write_text(json.dumps({
        "dataset": dataset,
        "zoo": {"models": [
            {"name": "wide", "family": "mlp", "depth": 2, "width": 24,
             "train": {"epochs": 5, "lr": 0.06, "init_seed": 1, "order_seed": 1}},
            {"name": "narrow", "family": "mlp", "depth": 2, "width": 6,
             "train": {"epochs": 3, "lr": 0.05, "init_seed": 2, "order_seed": 2}},
        ]},
        "out": str(zoo_out),
    }))
    assert main(["zoo", "--config", str(zoo_cfg)]) == 0

    identical = True
    for command, section in (
        ("transfer", {"transfer": {"method": "kl_dp_sup", "teacher": "wide", "student": "narrow",
                                   "hyperparams": {"lr": 0.01, "epochs": 3, "seed": 1}}}),
        ("flips", {}),
        ("sweep", {"sweep": {"methods": ["kl", "kl_dp_sup"],
                             "hyperparams": {"lr": 0.01, "epochs": 2, "seed": 1}}}),
    ):
        out = tmp_path / f"out_{command}"
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({
            "manifest": str(zoo_out / "manifest.json"),
            "dataset": dataset,
            "out": str(out),
            **section,
        }))
        assert main([command, "--config", str(cfg)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert main([command, "--config", str(out / "config.resolved.json")]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        identical &= first == second
    record_criterion(11, "CLI rerun from resolved config is byte-identical", identical)
    assert identical


# ---------------------------------------------------------------------------
# 12. dp_loss reduction


def test_c12_dp_reduction_bitwise():
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n, c = int(rng.integers(2, 9)), int(rng.integers(2, 7))
        s = rng.normal(size=(n, c), scale=4)
        t = rng.normal(size=(n, c), scale=4)
        st_ref = rng.normal(size=(n, c), scale=4)
        temp = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        mask = PartitionMask(np.ones(n, bool), np.zeros(n, bool))
        ok &= dp_loss(Tensor(s), t, st_ref, mask, temp).item() == kl_loss(Tensor(s), t, temp).item()
    record_criterion(12, "dp_loss with all-teacher mask equals kl_loss bitwise on 100 fixtures", ok)
    assert ok
