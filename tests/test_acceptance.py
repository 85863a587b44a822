"""End-to-end acceptance gates.

Eight criteria, one test each, in dependency order: metric oracles, base
regressor oracles, ensemble algebra, the full synthetic benchmark (stacking
beats the single-model baselines), closed-loop band selection, PCA structure,
CLI determinism, and wide-scan ingestion. Each test enforces its own runtime
budget. Run with -v for one pass/fail line per criterion.
"""

import math
import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from rfloc.bandselect import permutation_importance, select_rated_band
from rfloc.cli import main
from rfloc.core import Position, train_test_split, validate_dataset
from rfloc.ensemble import (
    AdaBoostR2,
    BaggingEnsemble,
    EnsembleSpec,
    GradientBoosting,
    HistGradientBoosting,
    StackingEnsemble,
)
from rfloc.evaluate import benchmark, ce95, r2, rmse
from rfloc.io import read_rtlpower_scan, rtlpower_rows_to_dataset, write_dataset_csv
from rfloc.pca import pca_fit, pca_transform
from rfloc.regressors import (
    CartRegressor,
    GprRegressor,
    KnnRegressor,
    fit_on_dataset,
    mlp_loss_and_grads,
)
from rfloc.registry import BASE_IDS, fit_model
from rfloc.simulate import generate_dataset, make_fullband_scenario, make_reference_scenario


def test_criterion_1_metric_oracles():
    t0 = time.perf_counter()

    def ref_rmse(T, P):
        total = 0.0
        for t, p in zip(T, P):
            total += sum((a - b) ** 2 for a, b in zip(t, p))
        return math.sqrt(total / len(T))

    def ref_r2(T, P):
        scores = []
        for j in range(len(T[0])):
            col = [row[j] for row in T]
            mean = sum(col) / len(col)
            ss_res = sum((t[j] - p[j]) ** 2 for t, p in zip(T, P))
            ss_tot = sum((v - mean) ** 2 for v in col)
            scores.append(1.0 - ss_res / ss_tot)
        return sum(scores) / len(scores)

    def ref_ce95(T, P):
        errs = sorted(
            math.sqrt(sum((a - b) ** 2 for a, b in zip(t, p))) for t, p in zip(T, P)
        )
        pos = 0.95 * (len(errs) - 1)
        lo = int(math.floor(pos))
        if lo + 1 >= len(errs):
            return errs[lo]
        return errs[lo] + (pos - lo) * (errs[lo + 1] - errs[lo])

    rng = np.random.default_rng(20240)
    for _ in range(100):
        n = int(rng.integers(2, 501))
        T = rng.normal(size=(n, 3))
        P = T + rng.normal(scale=rng.uniform(0.01, 2.0), size=(n, 3))
        tl, pl = T.tolist(), P.tolist()
        assert rmse(T, P) == pytest.approx(ref_rmse(tl, pl), rel=1e-12, abs=1e-12)
        assert r2(T, P) == pytest.approx(ref_r2(tl, pl), rel=1e-12, abs=1e-12)
        assert ce95(T, P) == pytest.approx(ref_ce95(tl, pl), rel=1e-12, abs=1e-12)

    # hand examples, exact
    truth = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert rmse(truth, np.zeros((2, 3))) == math.sqrt(0.5)
    seq = np.tile(np.array([[0.0], [1.0], [2.0]]), (1, 3))
    stepped = np.tile(np.array([[0.0], [1.0], [1.0]]), (1, 3))
    assert r2(seq, stepped) == 0.5
    t100 = np.zeros((100, 3))
    p100 = np.zeros((100, 3))
    p100[:, 0] = np.arange(1.0, 101.0)
    assert ce95(t100, p100) == 95.05

    assert time.perf_counter() - t0 < 5.0


def test_criterion_2_regressor_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)

    # KNN vs exhaustive neighbor search
    for _ in range(3):
        X = rng.normal(size=(200, 6))
        Y = rng.normal(size=(200, 3))
        Q = rng.normal(size=(50, 6))
        model = KnnRegressor(k=5).fit(X, Y)
        got = model.predict(Q)
        for qi, q in enumerate(Q):
            d = np.linalg.norm(X - q, axis=1)
            idx = np.argsort(d, kind="stable")[:5]
            assert np.allclose(got[qi], Y[idx].mean(axis=0), atol=1e-12)

    # CART root split vs exhaustive (feature, threshold) enumeration
    for _ in range(5):
        X = rng.normal(size=(50, 4))
        Y = rng.normal(size=(50, 2))
        rec = CartRegressor(max_depth=1).fit(X, Y).split_log[0]

        def sse(rows):
            Yr = Y[rows]
            return ((Yr - Yr.mean(axis=0)) ** 2).sum()

        total = sse(np.arange(50))
        best_gain, best = 0.0, None
        for f in range(4):
            vs = np.unique(X[:, f])
            for a, b in zip(vs[:-1], vs[1:]):
                thr = (a + b) / 2.0
                left = np.nonzero(X[:, f] <= thr)[0]
                gain = total - sse(left) - sse(np.nonzero(X[:, f] > thr)[0])
                if gain > best_gain:
                    best_gain, best = gain, (f, thr)
        assert (rec.feature, rec.threshold) == best

    # GPR vs the hand-solved two-point posterior
    X2 = np.array([[0.0], [1.0]])
    Y2 = np.array([[1.0, -2.0, 0.5], [3.0, 4.0, -1.5]])
    jit = 1e-8
    model = GprRegressor(length_scale=1.0, signal_variance=1.0, noise_jitter=jit).fit(X2, Y2)
    k = math.exp(-0.5)
    d = 1.0 + jit
    det = d * d - k * k
    mean = Y2.mean(axis=0)
    C = Y2 - mean
    alpha = np.stack([(d * C[0] - k * C[1]) / det, (d * C[1] - k * C[0]) / det])
    for xq in (0.0, 0.25, 0.5, 1.0, 2.0):
        ks = np.array([math.exp(-(xq**2) / 2.0), math.exp(-((xq - 1.0) ** 2) / 2.0)])
        want = ks @ alpha + mean
        assert np.allclose(model.predict([[xq]])[0], want, atol=1e-9)

    # MLP analytic gradients vs central finite differences
    W1 = rng.normal(size=(3, 5)) * 0.6
    b1 = rng.normal(size=5) * 0.2
    W2 = rng.normal(size=(5, 3)) * 0.6
    b2 = rng.normal(size=3) * 0.2
    Xs = rng.normal(size=(12, 3))
    Yt = rng.normal(size=(12, 3))
    params = [W1, b1, W2, b2]
    _, grads = mlp_loss_and_grads(tuple(params), Xs, Yt)
    eps = 1e-6
    for pi, p in enumerate(params):
        flat = p.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            lp, _ = mlp_loss_and_grads(tuple(params), Xs, Yt)
            flat[j] = orig - eps
            lm, _ = mlp_loss_and_grads(tuple(params), Xs, Yt)
            flat[j] = orig
            numeric = (lp - lm) / (2.0 * eps)
            assert grads[pi].ravel()[j] == pytest.approx(numeric, rel=1e-4, abs=1e-8)

    assert time.perf_counter() - t0 < 30.0


def test_criterion_3_ensemble_algebra():
    t0 = time.perf_counter()

    # boosting round arithmetic: one sample with full relative loss out of 5
    class _RowError:
        def predict(self, Q):
            out = np.zeros((len(Q), 3))
            out[np.asarray(Q)[:, 0] == 0.0, 0] = 1.0
            return out

    train = validate_dataset(np.arange(5.0)[:, None], np.zeros((5, 3)), (91.2,))
    boosted = fit_on_dataset(
        AdaBoostR2(lambda ds, seed: _RowError(), n_estimators=5, seed=0), train
    )
    assert boosted.avg_losses_[0] == pytest.approx(0.2, rel=1e-12)
    beta = boosted.avg_losses_[0] / (1.0 - boosted.avg_losses_[0])
    assert beta == pytest.approx(0.25, rel=1e-12)
    assert boosted.member_weights_[0] == pytest.approx(math.log(4.0), rel=1e-12)

    # one gradient-boosting stage on the two-point step function
    gbr = GradientBoosting(n_estimators=1, learning_rate=0.1).fit(
        np.array([[0.0], [1.0]]), np.array([0.0, 1.0])
    )
    assert gbr.predict([[1.0]])[0, 0] == 0.55

    # lossless binning: histogram boosting equals plain boosting
    rng = np.random.default_rng(5)
    Xi = rng.integers(0, 20, size=(300, 4)).astype(np.float64)
    Yi = rng.normal(size=(300, 3)) + Xi[:, :3]
    a = HistGradientBoosting(n_estimators=15).fit(Xi, Yi).predict(Xi)
    b = GradientBoosting(n_estimators=15).fit(Xi, Yi).predict(Xi)
    assert np.array_equal(a, b)

    # bagging two constant members averages exactly
    class _Const:
        def __init__(self, c):
            self.c = c

        def predict(self, Q):
            return np.full((len(Q), 3), self.c)

    consts = iter([0.0, 2.0])
    bag = fit_on_dataset(
        BaggingEnsemble(lambda ds, seed: _Const(next(consts)), n_estimators=2),
        validate_dataset(rng.normal(size=(10, 2)), rng.normal(size=(10, 3)), (1.0, 2.0)),
    )
    assert np.array_equal(bag.predict(np.zeros((4, 2))), np.ones((4, 3)))

    # stacking: meta width is three columns per base; meta rows are out-of-fold
    from rfloc.regressors import knn_fit

    ds = validate_dataset(
        rng.normal(size=(40, 3)), rng.normal(size=(40, 3)), (1.0, 2.0, 3.0)
    )
    builders = [lambda sub, seed: knn_fit(sub, k=1) for _ in range(4)]
    stack = fit_on_dataset(StackingEnsemble(builders, lambda sub, seed: knn_fit(sub, k=1)), ds)
    assert stack.meta_features_.shape == (40, 3 * 4)
    for keep, hold in stack.fold_plan:
        refit = knn_fit(ds.subset(keep), k=1)
        assert np.array_equal(
            stack.meta_features_[hold, :3], refit.predict(ds.features[hold])
        )

    assert time.perf_counter() - t0 < 60.0


def test_criterion_4_stacking_beats_single_baselines():
    t0 = time.perf_counter()
    stack_spec = EnsembleSpec(strategy="stacking", base=("knr", "dtr"), final="gbr")
    wins = 0
    margins = []
    for seed in range(20):
        scenario, config, positions = make_reference_scenario(seed)
        data = generate_dataset(scenario, config, positions)
        assert data.features.shape == (6000, 5)
        split = train_test_split(data, 0.7, seed=seed)
        reports = benchmark(list(BASE_IDS) + [stack_spec], split, seed=seed)
        assert all(r.error is None for r in reports), [r.error for r in reports]
        best_single = min(r.rmse_m for r in reports[:5])
        stacked = reports[5]
        ok = stacked.rmse_m <= best_single and stacked.ce95_m <= 1.5 * stacked.rmse_m
        wins += ok
        margins.append(round(best_single - stacked.rmse_m, 4))
    elapsed = time.perf_counter() - t0
    print(f"stacking wins {wins}/20 seeds; rmse margins {margins}; {elapsed:.1f}s")
    assert wins >= 16, f"stacking beat the single baselines on only {wins}/20 seeds"
    assert elapsed < 600.0


def test_criterion_5_band_selection_loop():
    t0 = time.perf_counter()
    hits = 0
    ratios = []
    for seed in range(20):
        scenario, config, positions = make_fullband_scenario(seed)
        assert config.n_frequencies == 400
        data = generate_dataset(scenario, config, positions)
        split = train_test_split(data, 0.7, seed=seed)
        model = fit_model("dtr", split.train, seed=seed)
        report = permutation_importance(model, split.test, n_repeats=5, seed=seed)

        informative = {s.center_frequency_mhz for s in scenario.sources}
        order = sorted(
            range(400), key=lambda j: (-report.scores_m[j], report.frequencies_mhz[j])
        )
        top10 = {report.frequencies_mhz[j] for j in order[:10]}
        hits += informative <= top10

        rated = select_rated_band(report, top_k=5, base=config)
        assert rated.n_frequencies == 5
        assert (config.n_frequencies - rated.n_frequencies) / config.n_frequencies == 0.9875

        reduced = generate_dataset(scenario, rated, positions)
        reduced_split = train_test_split(reduced, 0.7, seed=seed)
        after_model = fit_model("dtr", reduced_split.train, seed=seed)
        before = rmse(split.test.labels, model.predict(split.test.features))
        after = rmse(
            reduced_split.test.labels, after_model.predict(reduced_split.test.features)
        )
        ratios.append(after / before)
    elapsed = time.perf_counter() - t0
    med = float(np.median(ratios))
    print(f"informative-in-top-10 {hits}/20; median rmse ratio {med:.3f}; {elapsed:.1f}s")
    assert hits >= 19, f"informative frequencies ranked in the top 10 on only {hits}/20 seeds"
    assert med <= 1.25, f"median reduced-band rmse ratio {med:.3f} exceeds 1.25"
    assert elapsed < 900.0


def _silhouette(points: np.ndarray, cluster_idx: np.ndarray, n_clusters: int) -> float:
    onehot = np.zeros((len(points), n_clusters))
    onehot[np.arange(len(points)), cluster_idx] = 1.0
    counts = onehot.sum(axis=0)
    s = np.empty(len(points))
    for c in range(n_clusters):
        rows = np.flatnonzero(cluster_idx == c)
        D = cdist(points[rows], points)
        sums = D @ onehot
        a = sums[:, c] / (counts[c] - 1.0)
        means = sums / counts
        means[:, c] = np.inf
        b = means.min(axis=1)
        s[rows] = (b - a) / np.maximum(a, b)
    return float(s.mean())


def test_criterion_6_pca_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)

    X = rng.normal(size=(200, 8)) * np.linspace(3.0, 0.2, 8)
    model = pca_fit(X, 6)
    assert np.allclose(model.components @ model.components.T, np.eye(6), atol=1e-8)

    t = np.arange(12.0)
    rank1 = np.outer(t, [2.0, -1.0, 0.5, 1.0]) + 3.0
    assert pca_fit(rank1, 1).explained_ratio[0] == pytest.approx(1.0, abs=1e-9)

    # eigenpairs against a dense eigensolver on the covariance
    C = X - X.mean(axis=0)
    cov = (C.T @ C) / (len(X) - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:6]
    assert np.allclose(model.explained_variance, eigvals[order], atol=1e-8)
    for row, col in zip(model.components, order):
        v = eigvecs[:, col]
        assert np.allclose(row, v, atol=1e-8) or np.allclose(row, -v, atol=1e-8)

    # 3-component fingerprints of the simulated room cluster by position
    scenario, config, positions = make_reference_scenario(0)
    data = generate_dataset(scenario, config, positions)
    scores = pca_transform(pca_fit(data.features, 3), data.features)
    block = np.repeat(np.arange(len(positions)), config.samples_per_position)
    score = _silhouette(scores, block, len(positions))
    elapsed = time.perf_counter() - t0
    print(f"position-cluster silhouette {score:.3f}; {elapsed:.1f}s")
    assert score > 0.0
    assert elapsed < 30.0


def test_criterion_7_cli_determinism(tmp_path):
    t0 = time.perf_counter()

    def run_twice(argv_fn, outputs):
        blobs = []
        for tag in ("one", "two"):
            d = tmp_path / tag
            d.mkdir(exist_ok=True)
            assert main(argv_fn(d)) == 0
            blobs.append([(d / name).read_bytes() for name in outputs])
        return blobs

    a, b = run_twice(
        lambda d: ["simulate", "--reference-scenario", "--seed", "11", "--out", str(d / "ref.csv")],
        ["ref.csv"],
    )
    assert a == b
    ref_csv = str(tmp_path / "one" / "ref.csv")

    a, b = run_twice(
        lambda d: [
            "benchmark", "--data", ref_csv, "--models", "knr,dtr",
            "--seed", "0", "--out", str(d / "bench.csv"),
        ],
        ["bench.csv"],
    )
    # drop the wall-clock fit-time column; everything else must match
    strip = lambda blob: [ln.rsplit(",", 1)[0] for ln in blob[0].decode().splitlines()]
    assert strip(a) == strip(b)

    a, b = run_twice(
        lambda d: [
            "simulate", "--fullband-scenario", "40", "--seed", "2", "--out", str(d / "wide.csv"),
        ],
        ["wide.csv"],
    )
    assert a == b
    wide_csv = str(tmp_path / "one" / "wide.csv")

    a, b = run_twice(
        lambda d: [
            "select-band", "--data", wide_csv, "--model", "dtr", "--top-k", "5",
            "--n-repeats", "2", "--seed", "3",
            "--out-importance", str(d / "imp.csv"), "--out-config", str(d / "rated.json"),
        ],
        ["imp.csv", "rated.json"],
    )
    assert a == b

    a, b = run_twice(
        lambda d: ["pca", "--data", ref_csv, "--n-components", "3", "--out", str(d / "pca.csv")],
        ["pca.csv"],
    )
    assert a == b

    elapsed = time.perf_counter() - t0
    print(f"deterministic command outputs verified; {elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_8_widescan_ingestion(tmp_path):
    t0 = time.perf_counter()

    scan = tmp_path / "scan.csv"
    scan.write_text(
        "2024-05-01, 10:00:00, 91000000, 91800000, 200000, 16, -40.0, -41.0, -42.0, -43.0, -44.0\n"
        "2024-05-01, 10:00:10, 91000000, 91800000, 200000, 16, -50.0, -51.0, -52.0, -53.0, -54.0\n"
    )
    rows = read_rtlpower_scan(str(scan))
    assert len(rows) == 2
    freqs, dbs = rows[0]
    assert np.array_equal(freqs, (91000000.0 + 200000.0 * np.arange(5)) / 1e6)
    assert np.array_equal(freqs, [91.0, 91.2, 91.4, 91.6, 91.8])
    assert np.array_equal(dbs, [-40.0, -41.0, -42.0, -43.0, -44.0])

    # band filtering: nearest reading within half a step
    ds = rtlpower_rows_to_dataset(rows, (91.2, 91.6), 0.4, Position(1.0, 2.0, 0.5))
    assert np.array_equal(ds.features, [[-41.0, -43.0], [-51.0, -53.0]])
    assert np.array_equal(ds.labels, np.tile([1.0, 2.0, 0.5], (2, 1)))
    with pytest.raises(ValueError, match="no frequency within"):
        rtlpower_rows_to_dataset(rows, (95.0,), 0.4, Position(0, 0, 0))

    # malformed rows are rejected with their line number
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "2024-05-01, 10:00:00, 91000000, 91800000, 200000, 16, -40.0\n"
        "2024-05-01, 10:00:00, 91000000, 91800000, 200000, 16, oops\n"
    )
    with pytest.raises(ValueError, match="line 2"):
        read_rtlpower_scan(str(bad))
    bad.write_text("2024-05-01, 10:00:00, 91000000\n")
    with pytest.raises(ValueError, match="line 1"):
        read_rtlpower_scan(str(bad))

    assert time.perf_counter() - t0 < 5.0
