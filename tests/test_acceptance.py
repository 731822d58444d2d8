"""Acceptance gate: twelve end-to-end criteria, one test and one printed
PASS/FAIL line each.

Empirical criteria run on the gmm8-ring benchmark with the analytic score
model. The density-shift criteria (5, 8, 11) use a linear schedule with a
switch_off guidance window over the basin-commitment steps and the metric
timestep at s = 0.25 T: in that regime the guidance effect is dominated by
minority-mode selection (which saturates) instead of off-support drift
(which grows with every extra guidance kick), so the trends the criteria
encode are properties of the method rather than of the kick count.
"""

import functools

import numpy as np
import scipy.stats

from minority_diffusion.config import ExperimentConfig
from minority_diffusion.evaluation import avg_knn_batch, lof_batch, verify_prop1
from minority_diffusion.gmm import GmmSpec, benchmark
from minority_diffusion.gmm import log_density as log_density_gmm
from minority_diffusion.harness import RECIPES, run_experiment
from minority_diffusion.minority import minority_score, tweedie
from minority_diffusion.models import CallCountingModel, GmmScoreModel, MlpEpsModel
from minority_diffusion.sampler import (
    GuidanceConfig,
    guidance,
    guided_sample,
    guided_steps,
)
from minority_diffusion.schedule import build_schedule, perturb

T = 250
RING = benchmark("gmm8-ring")
COSINE = build_schedule("cosine", T)
LINEAR = build_schedule("linear", T)
RING_COS = GmmScoreModel(RING, COSINE)
RING_LIN = GmmScoreModel(RING, LINEAR)
UNIT = GmmSpec(weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.array([1.0]))
UNIT_COS = GmmScoreModel(UNIT, COSINE)
MLP = MlpEpsModel(COSINE, dim=2, seed=17)  # random weights suffice for gradient checks

CHAINS = 4000
SEED = 0

def report(capsys, criterion: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@functools.lru_cache(maxsize=None)
def mean_density(w, t_mid=60, sg_mode="sg_second", n=1, kind="self"):
    cfg = GuidanceConfig(
        w=w,
        schedule_mode="switch_off",
        t_mid=t_mid,
        s_fraction=0.25,
        sg_mode=sg_mode,
        n=n,
        kind=kind,
    )
    x, _ = guided_sample(RING_LIN, cfg, chains=CHAINS, seed=SEED)
    return float(np.mean(log_density_gmm(x, RING))), x


def test_criterion_01_reconstruction_noise_identity(capsys):
    # with shared noise, abar/(1-abar) ||x0 - x0_hat||^2 == ||eps - eps_theta||^2
    # pointwise; for the unit Gaussian the per-t expectation has a closed form
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        x0 = RING.sample(1, rng)[0]
        t = int(rng.integers(1, T + 1))
        eps = rng.standard_normal(2)
        ab = float(COSINE.alpha_bar(t))
        xt = perturb(x0, t, eps, COSINE)
        resid = x0 - tweedie(xt, t, RING_COS)
        lhs = ab / (1.0 - ab) * float(np.sum(resid * resid))
        rhs = float(np.sum((eps - RING_COS.eps(xt, t)) ** 2))
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))

    # closed form: the loss is quadratic in eps, so the central-plus-axis
    # cubature computes its expectation exactly
    x0 = np.array([0.9, -1.3])
    worst_cf = 0.0
    for t in range(10, T + 1, 10):
        ab = float(COSINE.alpha_bar(t))
        wbar = ab / (1.0 - ab)

        def q(e):
            ev = minority_score(x0, t, UNIT_COS, eps=np.asarray(e, float)[None])
            return wbar * float(ev)

        expect = q(np.zeros(2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            expect += 0.5 * (q(e) + q(-e) - 2.0 * q(np.zeros(2)))
        closed = ab * ab * 2 + ab * (1.0 - ab) * float(x0 @ x0)
        worst_cf = max(worst_cf, abs(expect - closed) / closed)

    ok = worst <= 1e-10 and worst_cf <= 1e-10
    report(
        capsys, 1, ok, f"pointwise rel gap {worst:.2e}, closed-form rel gap {worst_cf:.2e}"
    )


def test_criterion_02_identity_for_denoised_surrogate(capsys):
    # same identity with the Tweedie surrogate of a noisy latent as the clean point
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        x0 = RING.sample(1, rng)[0]
        t_lat = int(rng.integers(1, T + 1))
        x_t = perturb(x0, t_lat, rng.standard_normal(2), COSINE)
        x0_hat = tweedie(x_t, t_lat, RING_COS)
        t = int(rng.integers(1, T + 1))
        eps = rng.standard_normal(2)
        ab = float(COSINE.alpha_bar(t))
        xt = perturb(x0_hat, t, eps, COSINE)
        resid = x0_hat - tweedie(xt, t, RING_COS)
        lhs = ab / (1.0 - ab) * float(np.sum(resid * resid))
        rhs = float(np.sum((eps - RING_COS.eps(xt, t)) ** 2))
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    # the packaged verifier agrees over the full timestep grid
    rep = verify_prop1(x0_hat, RING_COS, m=1, rng=rng)
    ok = worst <= 1e-10 and rep["max_pointwise_rel_gap"] <= 1e-10
    report(capsys, 2, ok, f"surrogate pointwise rel gap {worst:.2e}")


def test_criterion_03_metric_tracks_negative_log_density(capsys):
    # the uniqueness metric of mid-trajectory latents must rank-correlate
    # with the exact negative density of their denoised estimates
    rng = np.random.default_rng(3)
    t = T // 2
    x0 = RING.sample(2000, rng)
    x_t = perturb(x0, t, rng.standard_normal(x0.shape), COSINE)
    ev = minority_score(
        tweedie(x_t, t, RING_COS), t, RING_COS, eps=rng.standard_normal((4,) + x_t.shape)
    )
    neg_ld = -log_density_gmm(tweedie(x_t, t, RING_COS), RING)
    rho = scipy.stats.spearmanr(ev, neg_ld).statistic
    report(capsys, 3, rho >= 0.5, f"spearman {rho:.3f} (need >= +0.5)")


def test_criterion_04_guidance_scale_trend(capsys):
    # variance-schedule sweep: density strictly down, AvgkNN strictly up,
    # both significant at 3 standard errors
    rng = np.random.default_rng(4)
    reference = RING.sample(4000, rng)
    stats = []
    for w in (0.0, 4.0, 8.0):
        cfg = GuidanceConfig(w=w, schedule_mode="variance", s_fraction=0.5, n=5)
        x, _ = guided_sample(RING_COS, cfg, chains=CHAINS, seed=SEED)
        ld = log_density_gmm(x, RING)
        knn = avg_knn_batch(x, np.concatenate([x, reference]), 5, self_offset=0)
        stats.append(
            (
                float(np.mean(ld)),
                float(np.std(ld, ddof=1) / np.sqrt(ld.size)),
                float(np.mean(knn)),
                float(np.std(knn, ddof=1) / np.sqrt(knn.size)),
            )
        )
    ok = True
    for (ld0, se0, kn0, ke0), (ld1, se1, kn1, ke1) in zip(stats, stats[1:]):
        ok = ok and (ld0 - ld1) > 3.0 * np.hypot(se0, se1)
        ok = ok and (kn1 - kn0) > 3.0 * np.hypot(ke0, ke1)
    detail = "; ".join(f"w-step ld {s[0]:.3f} knn {s[2]:.4f}" for s in stats)
    report(capsys, 4, ok, detail)


def test_criterion_05_stop_gradient_ablation(capsys):
    # holding the re-denoised branch keeps nearly the full effect; holding the
    # first branch leaves almost none (matched seeds, same w)
    base, _ = mean_density(0.0, t_mid=40)
    shifts = {
        sg: base - mean_density(0.3, t_mid=40, sg_mode=sg)[0]
        for sg in ("none", "sg_first", "sg_second")
    }
    full = shifts["none"]
    ok = (
        full > 0.0
        and shifts["sg_second"] > 0.0
        and shifts["sg_second"] >= 0.8 * full
        and shifts["sg_first"] <= 0.2 * full
        and abs(shifts["sg_first"]) <= 0.2 * abs(full)
        and shifts["sg_first"] < shifts["sg_second"]
    )
    report(
        capsys,
        5,
        ok,
        f"shifts none {full:.3f}, sg_second {shifts['sg_second']:.3f} "
        f"({shifts['sg_second'] / full:.0%}), sg_first {shifts['sg_first']:.3f} "
        f"({shifts['sg_first'] / full:+.0%})",
    )


def test_criterion_06_stop_gradient_decomposition(capsys):
    # guidance(none) = guidance(sg_first) + guidance(sg_second), shared noise,
    # normalization off, analytic and MLP models
    rng = np.random.default_rng(6)
    worst = 0.0
    for model in (RING_COS, MLP):
        for _ in range(100):
            x = rng.normal(scale=3.0, size=2)
            t = int(rng.integers(2, T + 1))
            eps = rng.standard_normal((1, 2))
            parts = {}
            for sg in ("none", "sg_first", "sg_second"):
                cfg = GuidanceConfig(
                    w=1.0, sg_mode=sg, s_fraction=0.8, normalize_linf=False
                )
                parts[sg] = guidance(x, t, cfg, model, eps=eps)[0]
            gap = np.max(np.abs(parts["none"] - parts["sg_first"] - parts["sg_second"]))
            worst = max(worst, float(gap))
    report(capsys, 6, worst <= 1e-6, f"max decomposition gap {worst:.2e}")


def test_criterion_07_guidance_matches_finite_differences(capsys, sg_objective):
    rng = np.random.default_rng(7)
    h = 1e-6
    worst = {"analytic": 0.0, "mlp": 0.0}
    for name, model in (("analytic", RING_COS), ("mlp", MLP)):
        for _ in range(50):
            x = rng.normal(scale=3.0, size=2)
            t = int(rng.integers(2, T + 1))
            sg = ("none", "sg_first", "sg_second")[int(rng.integers(3))]
            cfg = GuidanceConfig(w=1.0, sg_mode=sg, s_fraction=0.8, normalize_linf=False)
            eps = rng.standard_normal((1, 2))
            g = guidance(x, t, cfg, model, eps=eps)[0]
            fd = np.empty(2)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd[i] = (
                    sg_objective(x + e, t, cfg, model, eps, x)
                    - sg_objective(x - e, t, cfg, model, eps, x)
                ) / (2.0 * h)
            rel = float(np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12))
            worst[name] = max(worst[name], rel)
    ok = worst["analytic"] <= 1e-4 and worst["mlp"] <= 1e-3
    report(
        capsys, 7, ok, f"worst rel err analytic {worst['analytic']:.2e}, mlp {worst['mlp']:.2e}"
    )


def test_criterion_08_intermittent_guidance(capsys):
    # (a) exact evaluation accounting under an always-on weight schedule
    counts_ok = True
    for n in (1, 5):
        counted = CallCountingModel(RING_COS)
        cfg = GuidanceConfig(w=0.2, schedule_mode="variance", s_fraction=0.5, n=n)
        guided_sample(counted, cfg, chains=2, seed=SEED)
        evals = (counted.forward_calls - T) // 2  # two metric forwards per eval
        counts_ok = counts_ok and evals == len(guided_steps(T, n))
        counts_ok = counts_ok and counted.backward_calls == len(guided_steps(T, n))
    assert len(guided_steps(250, 5)) == 50

    # (b) the n = 5 density shift keeps the sign of n = 1 and at least half
    # its magnitude
    base, _ = mean_density(0.0)
    s1 = base - mean_density(0.3, n=1)[0]
    s5 = base - mean_density(0.3, n=5)[0]
    shift_ok = s1 > 0.0 and s5 > 0.0 and s5 >= 0.5 * s1
    report(
        capsys,
        8,
        counts_ok and shift_ok,
        f"eval counts exact; shifts n=1 {s1:.3f}, n=5 {s5:.3f} (ratio {s5 / s1:.2f})",
    )


def test_criterion_09_ancestral_baseline(capsys):
    x, _ = guided_sample(UNIT_COS, GuidanceConfig(w=0.0), chains=10_000, seed=SEED)
    mean = x.mean(axis=0)
    var = x.var(axis=0, ddof=1)
    ok = bool(np.all(np.abs(mean) < 0.05) and np.all(np.abs(var - 1.0) < 0.05))
    report(capsys, 9, ok, f"mean {mean.round(4).tolist()}, var {var.round(4).tolist()}")


def test_criterion_10_neighborhood_oracles(capsys, brute_avg_knn, brute_lof, random_instance):
    # exact agreement with O(N^2) brute force, duplicates included; the
    # Euclidean distance primitive is shared so equality is well defined
    rng = np.random.default_rng(10)
    exact = 0
    for _ in range(200):
        pts = random_instance(rng)
        q = rng.normal(size=2)
        k = int(rng.integers(2, 6))
        knn_match = avg_knn_batch(q[None], pts, k)[0] == brute_avg_knn(q, pts, k)
        lof_match = lof_batch(q[None], pts, k)[0] == brute_lof(q, pts, k)
        exact += int(knn_match and lof_match)
    report(capsys, 10, exact == 200, f"{exact}/200 instances exact")


def test_criterion_11_naive_guidance_leaves_the_support(capsys):
    # matched mean density shift: naive log-density descent must strand more
    # samples below the 0.1%-quantile density of real data
    rng = np.random.default_rng(11)
    threshold = float(np.quantile(log_density_gmm(RING.sample(200_000, rng), RING), 0.001))
    base, _ = mean_density(0.0, t_mid=40)
    prop_mean, prop_x = mean_density(0.3, t_mid=40)
    target = base - prop_mean
    lo, hi = 0.0, 1.0
    naive_x = None
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        naive_mean, naive_x = mean_density(mid, t_mid=40, kind="naive")
        if base - naive_mean < target:
            lo = mid
        else:
            hi = mid
    frac_prop = float(np.mean(log_density_gmm(prop_x, RING) < threshold))
    frac_naive = float(np.mean(log_density_gmm(naive_x, RING) < threshold))
    naive_shift = base - naive_mean
    ok = frac_naive > frac_prop and abs(naive_shift - target) <= 0.1 * target
    report(
        capsys,
        11,
        ok,
        f"shift {target:.3f} (naive {naive_shift:.3f}); off-support naive "
        f"{frac_naive:.4f} > proposed {frac_prop:.4f}",
    )


def test_criterion_12_recipe_reruns_byte_identical(capsys, tmp_path):
    # every run embeds its resolved config; re-running from it must reproduce
    # the per-sample CSV byte for byte
    base = ExperimentConfig().with_overrides(
        {
            "schedule.timesteps": "40",
            "run.chains": "50",
            "eval.knn_k": "3",
            "eval.lof_k": "5",
            "eval.reference_size": "200",
            "guidance.w": "0.4",
            "guidance.schedule": "fixed",
        }
    )
    summary = RECIPES["sg-ablation"](str(tmp_path / "recipe"), base)
    assert set(summary["shifts"]) == {"none", "sg_first", "sg_second"}
    ok = True
    for sub in ("baseline", "none", "sg_first", "sg_second"):
        run_dir = tmp_path / "recipe" / sub
        embedded = ExperimentConfig.from_text((run_dir / "resolved-config").read_text())
        redo = tmp_path / f"redo-{sub}"
        run_experiment(embedded, str(redo))
        ok = ok and (run_dir / "samples.csv").read_bytes() == (redo / "samples.csv").read_bytes()
    report(capsys, 12, ok, "all recipe runs reproduce samples.csv byte-identically")
