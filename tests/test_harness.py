"""Config, checkpoint, experiment-driver and CLI tests."""

import dataclasses
import itertools
import json
import os
import re
import struct
import subprocess
import sys

import bench
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minority_diffusion
from minority_diffusion import checkpoint, cli, harness, sampler
from minority_diffusion.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from minority_diffusion.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_TRAINING, main
from minority_diffusion.config import _KEYMAP, ExperimentConfig
from minority_diffusion.errors import CheckpointError, ConfigError, NumericDegeneracyError
from minority_diffusion.evaluation import check_reference_room, reference_set, verify_prop1
from minority_diffusion.harness import RECIPES, expected_call_counts, run_experiment
from minority_diffusion.minority import inference_metric, tweedie
from minority_diffusion.models import GmmScoreModel, MlpEpsModel
from minority_diffusion.sampler import GuidanceConfig, guided_steps, stream, weight
from minority_diffusion.schedule import build_schedule, perturb

SMALL = {
    "schedule.timesteps": "20",
    "run.chains": "8",
    "eval.knn_k": "3",
    "eval.lof_k": "4",
    "eval.reference_size": "64",
}


# ---- configuration --------------------------------------------------------


def test_config_text_round_trip():
    cfg = ExperimentConfig().with_overrides(
        {"guidance.w": "1.5", "schedule.kind": "linear", "run.trace": "true"}
    )
    again = ExperimentConfig.from_text(cfg.to_text())
    assert again == cfg
    assert again.fingerprint() == cfg.fingerprint()


def test_config_parsing_details():
    text = "# comment\nguidance.w = 2.0  # trailing comment\n\nrun.seed = 9\n"
    cfg = ExperimentConfig.from_text(text)
    assert cfg.guidance_w == 2.0 and cfg.run_seed == 9


def test_config_rejects_unknown_key_and_bad_values(tmp_path, capsys):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("guidance.omega = 1\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("just a line without equals\n")
    with pytest.raises(ConfigError, match="run.chains expects an integer, got 'many'"):
        ExperimentConfig().with_overrides({"run.chains": "many"})
    with pytest.raises(ConfigError, match="run.trace expects true/false, got 'yes'"):
        ExperimentConfig().with_overrides({"run.trace": "yes"})
    with pytest.raises(ConfigError):
        ExperimentConfig().with_overrides({"benchmark": "imagenet"})
    with pytest.raises(ConfigError):
        ExperimentConfig().with_overrides({"guidance.sg": "sg_third"})
    # a field name is not a config key
    with pytest.raises(ConfigError, match="unknown config key 'guidance_w'"):
        ExperimentConfig().with_overrides({"guidance_w": "0.3"})
    # the metric is always the squared error; its old key is gone
    with pytest.raises(ConfigError, match="unknown config key 'guidance.distance'"):
        ExperimentConfig().with_overrides({"guidance.distance": "squared_error"})
    cfg_path = write_small_config(tmp_path)
    args = ["sample", "--config", str(cfg_path), "--set", "guidance.distance=squared_error"]
    assert main(args + ["--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "guidance.distance" in capsys.readouterr().err


def test_cli_rejects_a_config_file_key_set_twice(tmp_path, capsys):
    with pytest.raises(ConfigError, match="^line 3: guidance.w is already set on line 1$"):
        ExperimentConfig.from_text("guidance.w = 0.1\n# again\nguidance.w = 0.1\n")
    path = tmp_path / "twice.txt"
    path.write_text("run.chains = 8\nguidance.w = 0.1\nguidance.w = 0.3\n")
    assert main(["sample", "--config", str(path), "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: line 3: guidance.w is already set on line 2\n"
    assert not (tmp_path / "x").exists()
    # a repeated --set is the documented override: the last one wins
    args = cli.build_parser().parse_args(
        ["sample", "--out", "x", "--set", "guidance.w=0.1", "--set", "guidance.w=0.3"]
    )
    assert cli._load_config(args).guidance_w == 0.3


def test_config_is_checked_when_built():
    # a config built directly, or by dataclasses.replace, is checked like a parsed one
    with pytest.raises(ConfigError, match="run.chains"):
        ExperimentConfig(run_chains=0)
    with pytest.raises(ConfigError, match="guidance.t_mid"):
        dataclasses.replace(ExperimentConfig(), guidance_schedule="switch_off")


def test_guidance_defaults_are_the_sampler_defaults():
    assert ExperimentConfig().guidance_config() == GuidanceConfig()


@st.composite
def valid_configs(draw):
    """Keyword arguments of an ExperimentConfig that accepts every value."""
    # the gmm.* keys hold a valid mixture even when another benchmark ignores them
    kw = {"benchmark": draw(st.sampled_from(["gmm8-ring", "gmm2-imbalanced", "inline"]))}
    weights = draw(st.sampled_from([(1.0,), (0.5, 0.5), (0.25, 0.75), (0.2, 0.3, 0.5)]))
    dim = draw(st.integers(1, 3))
    coord = st.floats(-10, 10)
    means = [draw(st.lists(coord, min_size=dim, max_size=dim)) for _ in weights]
    variances = draw(st.lists(st.floats(1e-3, 10), min_size=len(weights), max_size=len(weights)))
    kw["gmm_weights"] = ",".join(map(repr, weights))
    kw["gmm_means"] = ";".join(",".join(map(repr, row)) for row in means)
    kw["gmm_variances"] = ",".join(map(repr, variances))
    kw["schedule_kind"] = draw(st.sampled_from(["linear", "cosine"]))
    T = kw["schedule_timesteps"] = draw(st.integers(1, 60))
    # 0 is the scaled DDPM range, whose betas stay below 1 only for T > 20
    explicit = st.floats(1e-4, 0.05)
    start = draw(explicit if kw["schedule_kind"] == "linear" and T <= 20 else st.one_of(st.just(0.0), explicit))
    kw["schedule_beta_start"] = start
    kw["schedule_beta_end"] = draw(st.just(0.0) if start == 0.0 else st.floats(start, 0.5))
    kw["schedule_cosine_offset"] = draw(st.floats(0.0, 0.1))
    kw["schedule_respace"] = draw(st.sampled_from([0] + [d for d in range(1, T + 1) if T % d == 0]))
    T = kw["schedule_respace"] or T
    kw["model_kind"] = draw(st.sampled_from(["analytic", "mlp"]))
    kw["model_checkpoint"] = draw(st.text("abc/._-", max_size=12))
    kw["guidance_kind"] = draw(st.sampled_from(sampler.GUIDANCE_KINDS))
    kw["guidance_w"] = draw(st.one_of(st.just(0.0), st.floats(1e-3, 10)))
    kw["guidance_schedule"] = draw(st.sampled_from(sampler.SCHEDULE_MODES))
    n = kw["guidance_interval"] = draw(st.integers(1, T))
    if kw["guidance_schedule"] == "switch_off":
        # some multiple of the interval must lie in t_mid..T
        kw["guidance_t_mid"] = draw(st.integers(1, n * draw(st.integers(1, T // n))))
    else:
        kw["guidance_t_mid"] = draw(st.integers(0, T))
    open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    kw["guidance_s_fraction"] = draw(open_unit)
    kw["guidance_sg"] = draw(st.sampled_from(sampler.SG_MODES))
    kw["guidance_normalize"] = draw(st.booleans())
    kw["guidance_mc_samples"] = draw(st.integers(1, 8))
    kw["run_chains"] = draw(st.integers(1, 10**6))
    kw["run_seed"] = draw(st.integers(0, 2**64))
    kw["run_trace"] = draw(st.booleans())
    kw["eval_knn_k"] = draw(st.integers(1, 100))
    kw["eval_lof_k"] = draw(st.integers(1, 100))
    kw["eval_reference"] = draw(st.sampled_from(["real", "generated", "pooled"]))
    kw["eval_reference_size"] = draw(st.integers(0, 10**6))
    kw["eval_metric_t_fraction"] = draw(open_unit)
    kw["eval_metric_mc"] = draw(st.integers(1, 8))
    return kw


@settings(max_examples=150, deadline=None)
@given(valid_configs())
def test_config_text_round_trip_of_any_valid_config(kw):
    assert set(kw) == {name for name, _ in _KEYMAP}
    cfg = ExperimentConfig(**kw)
    again = ExperimentConfig.from_text(cfg.to_text())
    assert again == cfg
    assert again.to_text() == cfg.to_text()


# strings that no parser of the type reads, and the words its message uses
_MALFORMED = {
    bool: (st.sampled_from(["yes", "no", "1", "0", "on", "truth"]), "expects true/false"),
    int: (st.sampled_from(["1.5", "1e3", "nan", "true", "0x10", "1,2"]), "expects an integer"),
    float: (st.sampled_from(["true", "1,5", "0x1p3", "1.2.3", "e5", "--1"]), "expects a number"),
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_config_rejects_a_malformed_value_of_each_type(data):
    default = ExperimentConfig()
    name, key = data.draw(st.sampled_from([(n, k) for n, k in _KEYMAP if type(getattr(default, n)) in _MALFORMED]))
    bad, wording = _MALFORMED[type(getattr(default, name))]
    value = data.draw(st.one_of(bad, st.text("xyz?! ;", max_size=6)))
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} {wording}, got "):
        default.with_overrides({key: value})
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} {wording}, got "):
        ExperimentConfig.from_text(f"{key} = {value}\n")


def test_package_exports_resolve():
    namespace = {}
    exec("from minority_diffusion import *", namespace)
    for name in minority_diffusion.__all__:
        assert namespace[name] is getattr(minority_diffusion, name)


def test_config_inline_gmm():
    cfg = ExperimentConfig().with_overrides(
        {
            "benchmark": "inline",
            "gmm.weights": "0.5,0.5",
            "gmm.means": "0,0;4,0",
            "gmm.variances": "1,1",
        }
    )
    spec = cfg.gmm_spec()
    assert spec.dim == 2 and spec.weights.size == 2
    with pytest.raises(ConfigError):
        ExperimentConfig().with_overrides({"benchmark": "inline", "gmm.weights": "a,b"})


def test_config_fingerprint_tracks_content():
    a = ExperimentConfig()
    b = a.with_overrides({"guidance.w": "0.9"})
    assert a.fingerprint() != b.fingerprint()


# ---- checkpoints ----------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    sched = build_schedule("cosine", 20)
    model = MlpEpsModel(sched, dim=2, hidden=(8, 8), emb_dim=4, seed=3)
    model.weights[0][0, 0] = 0.123456789  # make sure real values travel
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path, sched)
    probe = np.random.default_rng(0).normal(size=(6, 2))
    for t in (1, 10, 20):
        np.testing.assert_array_equal(loaded.eps(probe, t), model.eps(probe, t))


def test_checkpoint_payload_is_params_in_layer_order(tmp_path):
    # every weight and bias is a view of params, laid out W1, b1, W2, b2, ...,
    # and the checkpoint stores params as little-endian float64 after the header
    sched = build_schedule("cosine", 20)
    model = MlpEpsModel(sched, dim=2, hidden=(8, 5), emb_dim=4, seed=3)
    model.params[:] = np.arange(model.params.size)
    pos = 0
    for w, b in zip(model.weights, model.biases):
        for p in (w, b):
            assert np.shares_memory(p, model.params)
            np.testing.assert_array_equal(p.ravel(), np.arange(pos, pos + p.size))
            pos += p.size
    assert pos == model.params.size == MlpEpsModel.param_count(2, (8, 5), 4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    assert raw[len(MAGIC) + 4 + hlen :] == model.params.astype("<f8").tobytes()
    np.testing.assert_array_equal(load_checkpoint(path, sched).params, model.params)
    # dim, hidden and emb_dim state the shape; a header that also lists the
    # layer sizes, as version-1 checkpoints once did, loads all the same
    header = json.loads(raw[len(MAGIC) + 4 : len(MAGIC) + 4 + hlen].decode())
    assert "layer_sizes" not in header
    old = tmp_path / "old.ckpt"
    old.write_bytes(_checkpoint_bytes({**header, "layer_sizes": [6, 8, 5, 2]}, raw[len(MAGIC) + 4 + hlen :]))
    assert load_checkpoint(old, sched).params.tobytes() == model.params.tobytes()


def test_checkpoint_corruption_and_mismatch(tmp_path):
    sched = build_schedule("cosine", 20)
    model = MlpEpsModel(sched, dim=2, hidden=(8,), emb_dim=4, seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.ckpt"
    bad_magic.write_bytes(b"NOTMODEL" + raw[len(MAGIC) :])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad_magic, sched)

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(raw[:-16])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(truncated, sched)

    with pytest.raises(CheckpointError, match="schedule"):
        load_checkpoint(path, build_schedule("linear", 100))

    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "missing.ckpt", sched)

    for bad in (np.nan, np.inf, -np.inf):
        model.params[3] = bad
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path, sched)


class _HalfWriter:
    """A file that writes half of what it is given, then reports a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


def test_failed_checkpoint_write_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    sched = build_schedule("cosine", 20)
    path = tmp_path / "m.ckpt"
    save_checkpoint(MlpEpsModel(sched, dim=2, hidden=(8,), emb_dim=4, seed=0), path)
    old = path.read_bytes()
    monkeypatch.setattr(checkpoint, "open", lambda *a, **k: _HalfWriter(open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(MlpEpsModel(sched, dim=2, hidden=(8,), emb_dim=4, seed=1), path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_checkpoint_version_check(tmp_path):
    sched = build_schedule("cosine", 20)
    model = MlpEpsModel(sched, dim=2, hidden=(8,), emb_dim=4, seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    import struct

    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    header = json.loads(raw[len(MAGIC) + 4 : len(MAGIC) + 4 + hlen].decode())
    header["version"] = 99
    blob = json.dumps(header, sort_keys=True).encode()
    rebuilt = raw[: len(MAGIC)] + struct.pack("<I", len(blob)) + blob + raw[len(MAGIC) + 4 + hlen :]
    path.write_bytes(bytes(rebuilt))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path, sched)


def _checkpoint_parts(tmp_path):
    """(schedule, header dict, parameter bytes) of a small saved model."""
    sched = build_schedule("cosine", 20)
    path = tmp_path / "m.ckpt"
    save_checkpoint(MlpEpsModel(sched, dim=2, hidden=(8,), emb_dim=4, seed=0), path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    start = len(MAGIC) + 4
    return sched, json.loads(raw[start : start + hlen].decode()), raw[start + hlen :]


def _checkpoint_bytes(header, params: bytes) -> bytes:
    blob = json.dumps(header).encode()
    return MAGIC + struct.pack("<I", len(blob)) + blob + params


@pytest.mark.parametrize(
    "mutate",
    [
        lambda h: [h],
        lambda h: "header",
        lambda h: {k: v for k, v in h.items() if k != "dim"},
        lambda h: {k: v for k, v in h.items() if k != "schedule_fingerprint"},
        lambda h: {**h, "dim": "2"},
        lambda h: {**h, "dim": 2.0},
        lambda h: {**h, "dim": True},
        lambda h: {**h, "hidden": 8},
        lambda h: {**h, "hidden": [8, -1]},
        lambda h: {**h, "emb_dim": None},
        lambda h: {**h, "emb_dim": 3},
        lambda h: {**h, "train_seed": -1},
        lambda h: {**h, "schedule_fingerprint": 7},
        lambda h: {**h, "dim": 10**12},
    ],
)
def test_checkpoint_header_errors_are_typed(tmp_path, capsys, mutate):
    sched, header, params = _checkpoint_parts(tmp_path)
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_checkpoint_bytes(mutate(header), params))
    with pytest.raises(CheckpointError):
        load_checkpoint(path, sched)
    cfg_path = write_small_config(tmp_path)
    args = ["sample", "--config", str(cfg_path), "--set", "model.kind=mlp", "--set", f"model.checkpoint={path}"]
    assert main(args + ["--out", str(tmp_path / "run")]) == EXIT_IO


def test_checkpoint_step_count_default_and_error_order(tmp_path):
    # a header without step_count, as older files have, loads at step 0; a
    # corrupt header's error names its bad keys in a fixed order
    sched, header, params = _checkpoint_parts(tmp_path)
    path = tmp_path / "m.ckpt"
    path.write_bytes(_checkpoint_bytes({**header, "step_count": 5}, params))
    assert load_checkpoint(path, sched).step_count == 5
    path.write_bytes(_checkpoint_bytes({k: v for k, v in header.items() if k != "step_count"}, params))
    assert load_checkpoint(path, sched).step_count == 0
    path.write_bytes(_checkpoint_bytes({**header, "step_count": -1, "dim": 0, "schedule_fingerprint": 1}, params))
    with pytest.raises(CheckpointError, match="missing or invalid schedule_fingerprint, dim, step_count$"):
        load_checkpoint(path, sched)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _corrupt_checkpoints(draw, header, params):
    kind = draw(st.sampled_from(["set", "delete", "replace", "none"]))
    header = dict(header)
    if kind == "set":
        header[draw(st.sampled_from(sorted(header)))] = draw(_json_values)
    elif kind == "delete":
        del header[draw(st.sampled_from(sorted(header)))]
    elif kind == "replace":
        header = draw(_json_values)
    raw = _checkpoint_bytes(header, params)
    return raw[: draw(st.integers(0, len(raw)))]


def test_checkpoint_fuzz_raises_only_checkpoint_error(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    sched, header, params = _checkpoint_parts(work)
    path = work / "fuzz.ckpt"

    @settings(max_examples=200, deadline=None)
    @given(_corrupt_checkpoints(header, params))
    def check(raw):
        path.write_bytes(raw)
        try:
            assert isinstance(load_checkpoint(path, sched), MlpEpsModel)
        except CheckpointError:
            pass

    check()


# ---- experiment driver ----------------------------------------------------


def small_config(**extra):
    return ExperimentConfig().with_overrides({**SMALL, **extra})


def test_run_experiment_writes_artifacts(tmp_path):
    cfg = small_config(**{"run.trace": "true"})
    report = run_experiment(cfg, str(tmp_path))
    for name in ("samples.csv", "metrics.csv", "summary.json", "resolved-config"):
        assert (tmp_path / name).exists()
    lines = (tmp_path / "samples.csv").read_text().splitlines()
    assert lines[0] == "chain,x0,x1,log_density,metric,avg_knn,lof"
    assert len(lines) == 1 + cfg.run_chains
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["fingerprint"] == cfg.fingerprint()
    assert summary["chains"] == cfg.run_chains
    fwd, bwd = expected_call_counts(cfg)
    assert report.forward_calls == fwd
    assert report.backward_calls == bwd
    # the resolved config reproduces the run
    again = ExperimentConfig.from_text((tmp_path / "resolved-config").read_text())
    assert again == cfg
    # a summary value or trace cell that is not finite raises before any file
    # is written (naive guidance's NaN trace metric is written: see
    # test_trace_rows_are_chain_aggregates)
    row = list(report.trace_rows[1])
    row[TRACE_COLUMNS.split(",").index("l2_q100")] = np.inf
    for bad, key in ((dataclasses.replace(report, metric=np.full_like(report.metric, np.inf)), "metric_mean"),
                     (dataclasses.replace(report, trace_rows=[report.trace_rows[0], row]), f"l2_q100 at t = {row[0]}")):
        with pytest.raises(NumericDegeneracyError, match=key):
            harness.write_report(bad, str(tmp_path / "again"))
        assert not (tmp_path / "again").exists()


TRACE_COLUMNS = (
    "t,weight,l2_mean,l2_q0,l2_q10,l2_q50,l2_q90,l2_q100,"
    "linf_mean,linf_q0,linf_q10,linf_q50,linf_q90,linf_q100,"
    "metric_mean,metric_q0,metric_q10,metric_q50,metric_q90,metric_q100"
)


@pytest.mark.parametrize(
    "overrides",
    [
        {"guidance.mc_samples": "2", "guidance.interval": "3"},
        {"guidance.schedule": "switch_off", "guidance.t_mid": "10", "guidance.interval": "1"},
        {"guidance.kind": "naive"},
        {"run.trace": "false"},
    ],
    ids=["self-mc2", "switch-off", "naive", "untraced"],
)
def test_trace_rows_are_chain_aggregates(tmp_path, monkeypatch, overrides):
    # capture each guided step's per-chain guidance vectors and metrics
    captured = []

    guidance = sampler.guidance

    def spy(*args, **kwargs):
        g, metric = guidance(*args, **kwargs)
        captured.append((np.linalg.norm(g, axis=-1), np.max(np.abs(g), axis=-1), metric))
        return g, metric

    monkeypatch.setattr(sampler, "guidance", spy)
    cfg = small_config(**{"run.trace": "true", **overrides})
    report = run_experiment(cfg, str(tmp_path))
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == TRACE_COLUMNS
    assert len(lines) == 1 + len(report.trace_rows)
    gcfg, sched = cfg.guidance_config(), cfg.noise_schedule()
    # guidance fires, and a row is kept, only where w_t != 0
    want_ts = [t for t in guided_steps(sched.T, gcfg.n) if weight(t, gcfg, sched) != 0.0]
    assert len(captured) == len(want_ts)
    if not cfg.run_trace:
        assert report.trace_rows == [] and not report.trace_rows
        return
    assert [row[0] for row in report.trace_rows] == want_ts
    for row, line, columns in zip(report.trace_rows, lines[1:], captured):
        assert row[1] == weight(row[0], gcfg, sched)
        # written with repr, so the file reads back to the row exactly
        np.testing.assert_array_equal(np.array(line.split(","), dtype=float), row)
        for col, (mean, *quantiles) in zip(columns, np.reshape(row[2:], (3, 6))):
            np.testing.assert_allclose(mean, np.mean(col), rtol=1e-12, atol=0)
            np.testing.assert_array_equal(quantiles, np.quantile(col, (0, 0.1, 0.5, 0.9, 1)))
        assert np.all(np.isfinite(row[2:14]))
        assert np.all(np.isnan(row[14:]) if gcfg.kind == "naive" else np.isfinite(row[14:]))


def test_trace_size_does_not_grow_with_chains(tmp_path):
    shapes = []
    for chains in (40, 4000):
        report = run_experiment(small_config(**{"run.trace": "true", "run.chains": str(chains)}), str(tmp_path))
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1 + len(report.trace_rows)
        shapes.append((len(report.trace_rows), sum(map(len, report.trace_rows)), [line.count(",") for line in lines]))
    assert shapes[0] == shapes[1]
    assert shapes[0][0] == len(guided_steps(20, 5))


CALL_COUNT_CASES = [
    {"guidance.w": "0.0"},
    {"guidance.interval": "1"},
    {"guidance.sg": "none"},
    {"guidance.mc_samples": "2"},
    {"guidance.kind": "naive"},
    {"guidance.schedule": "switch_off", "guidance.t_mid": "10"},
    {"guidance.schedule": "switch_off", "guidance.w": "0.0"},
]


@pytest.mark.parametrize("overrides", CALL_COUNT_CASES)
def test_call_count_formula(overrides, tmp_path):
    cfg = small_config(**overrides)
    report = run_experiment(cfg, str(tmp_path))
    fwd, bwd = expected_call_counts(cfg)
    assert report.forward_calls == fwd
    assert report.backward_calls == bwd


def test_benchmark_call_contract_is_the_call_count_formula():
    # the benchmark gate keeps its own copy of the formula; a change to one
    # without the other fails here, not at benchmark time
    grid = itertools.product(
        [{"guidance.schedule": "fixed"}, {"guidance.schedule": "variance"},
         {"guidance.schedule": "switch_off", "guidance.t_mid": "7"}],
        ["self", "naive"], ["none", "sg_first", "sg_second"], ["1", "3"], ["0", "10"], ["0.0", "0.2"], ["1", "5"],
    )
    cases = CALL_COUNT_CASES + [
        {**mode, "guidance.kind": kind, "guidance.sg": sg, "guidance.mc_samples": mc,
         "schedule.respace": respace, "guidance.w": w, "guidance.interval": n}
        for mode, kind, sg, mc, respace, w, n in grid
    ]
    for overrides in cases:
        cfg = small_config(**overrides)
        assert bench.contract_call_counts(cfg) == expected_call_counts(cfg), overrides


def test_rerun_is_byte_identical(tmp_path):
    cfg = small_config()
    run_experiment(cfg, str(tmp_path / "a"))
    run_experiment(cfg, str(tmp_path / "b"))
    assert (tmp_path / "a/samples.csv").read_bytes() == (tmp_path / "b/samples.csv").read_bytes()


def test_reference_modes(tmp_path):
    for mode in ("real", "generated", "pooled"):
        cfg = small_config(**{"eval.reference": mode, "run.chains": "16"})
        report = run_experiment(cfg, str(tmp_path / mode))
        assert report.avg_knn.shape == (16,)
        assert np.all(np.isfinite(report.lof))
        # the size checked before sampling is the size of the set built after:
        # LOF fits one neighbour fewer than the set holds, and no more
        n = len(reference_set(cfg, report.samples)[0])
        check_reference_room(cfg.with_overrides({"eval.lof_k": str(n - 1)}), cfg.run_chains)
        with pytest.raises(ConfigError, match="eval.lof_k"):
            check_reference_room(cfg.with_overrides({"eval.lof_k": str(n)}), cfg.run_chains)


@pytest.mark.parametrize("mode", ["real", "generated", "pooled"])
def test_reference_modes_match_the_oracle(mode, brute_avg_knn, brute_lof):
    # sample i is row i of a reference set that holds the samples, and is
    # left out of its own neighbours there
    cfg = small_config(**{"eval.reference": mode})
    samples = np.random.default_rng(5).normal(size=(12, 2))
    _, knn, lof = harness.evaluate(cfg, samples)
    refset = reference_set(cfg, samples)[0]
    for i, x in enumerate(samples):
        skip = None if mode == "real" else i
        assert knn[i] == pytest.approx(brute_avg_knn(x, refset, cfg.eval_knn_k, skip), rel=1e-12)
        assert lof[i] == pytest.approx(brute_lof(x, refset, cfg.eval_lof_k, skip), rel=1e-12)


@pytest.mark.parametrize("mc", [1, 3])
def test_per_sample_metric_noise_stream(mc, tmp_path):
    # the perturbation noise, then the (mc, chains, D) metric draws, from the
    # run seed's evaluation stream: samples.csv depends on this order
    cfg = small_config(**{"eval.metric_mc": str(mc)})
    report = run_experiment(cfg, str(tmp_path))
    spec, sched = cfg.gmm_spec(), cfg.noise_schedule()
    rng = stream(cfg.run_seed, 2**32 - 1)
    z = rng.standard_normal(report.samples.shape)
    eps = rng.standard_normal((mc,) + report.samples.shape)
    t_metric = sched.step_at(cfg.eval_metric_t_fraction)
    s = sched.step_at(cfg.guidance_s_fraction)
    noised = perturb(report.samples, t_metric, z, sched)
    want = inference_metric(noised, t_metric, s, GmmScoreModel(spec, sched), eps)
    assert np.array_equal(report.metric, want)


def test_run_experiment_requires_checkpoint(tmp_path):
    cfg = small_config(**{"model.kind": "mlp"})
    with pytest.raises(ConfigError):
        run_experiment(cfg, str(tmp_path / "a"))
    cfg = small_config(
        **{"model.kind": "mlp", "model.checkpoint": str(tmp_path / "nope.ckpt")}
    )
    with pytest.raises(CheckpointError):
        run_experiment(cfg, str(tmp_path / "b"))
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_mlp_experiment_end_to_end(tmp_path):
    sched = ExperimentConfig().with_overrides(SMALL).noise_schedule()
    model = MlpEpsModel(sched, dim=2, hidden=(8, 8), emb_dim=4, seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    cfg = small_config(**{"model.kind": "mlp", "model.checkpoint": str(path)})
    report = run_experiment(cfg, str(tmp_path / "run"))
    assert report.samples.shape == (8, 2)


def test_recipes_registered():
    assert set(RECIPES) == {"table3a-analog", "sg-ablation", "naive-contrast"}


# ---- command-line interface -----------------------------------------------


def write_small_config(tmp_path):
    cfg = ExperimentConfig().with_overrides(SMALL)
    path = tmp_path / "cfg.txt"
    path.write_text(cfg.to_text())
    return path


def test_cli_help_lists_config_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key in ("guidance.w", "schedule.kind", "eval.reference", "run.seed"):
        assert key in out


def test_cli_sample_and_eval(tmp_path, capsys):
    cfg_path = write_small_config(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["sample", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["chains"] == 8
    assert (
        main(
            [
                "eval",
                "--config",
                str(cfg_path),
                "--samples",
                str(out_dir / "samples.csv"),
            ]
        )
        == 0
    )
    evals = json.loads(capsys.readouterr().out)
    assert evals["count"] == 8


@pytest.mark.parametrize("mode", ["real", "generated", "pooled"])
def test_cli_eval_reproduces_sample(tmp_path, capsys, mode):
    cfg_path = write_small_config(tmp_path)
    run = tmp_path / "run"
    args = ["sample", "--config", str(cfg_path), "--set", f"eval.reference={mode}", "--out", str(run)]
    assert main(args) == 0
    summary = json.loads((run / "summary.json").read_text())
    args = ["eval", "--samples", str(run / "samples.csv"), "--config", str(run / "resolved-config")]
    assert main(args + ["--out", str(tmp_path / "eval.json")]) == 0
    evals = json.loads((tmp_path / "eval.json").read_text())
    shared = sorted(evals.keys() & summary.keys())
    assert shared == ["avg_knn_mean", "avg_knn_se", "lof_mean", "log_density_mean", "log_density_q10",
                      "log_density_q50", "log_density_q90", "log_density_se", "reference_mode"]
    assert {k: evals[k] for k in shared} == {k: summary[k] for k in shared}


def test_cli_verify(tmp_path, capsys):
    cfg_path = write_small_config(tmp_path)
    assert main(["verify", "--config", str(cfg_path), "--mode", "prop1", "--mc", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["max_pointwise_rel_gap"] <= 1e-10
    assert main(["verify", "--config", str(cfg_path), "--mode", "corollary1"]) == 0


def test_cli_unguided_sample_takes_any_interval(tmp_path, capsys):
    # with guidance.w = 0 no step is meant to guide, so an interval past T is fine
    cfg_path = write_small_config(tmp_path)
    args = ["sample", "--config", str(cfg_path), "--out", str(tmp_path / "run")]
    assert main([*args, "--set", "guidance.w=0", "--set", "guidance.interval=300"]) == 0
    assert json.loads(capsys.readouterr().out)["backward_calls"] == 0


class _Keyed(Exception):
    """Raised by a stand-in for `stream` once it has seen its first key."""


@pytest.mark.parametrize("seed", [0, 1])
def test_run_streams_differ_from_every_sampling_stream(tmp_path, monkeypatch, seed):
    # SeedSequence pads short entropy with zeros, so a key such as (7,) would
    # draw chain 7's transition noise (7, 0); streams are compared by their
    # first state words
    def state(*key):
        return tuple(stream(seed, *key).bit_generator.seed_seq.generate_state(4))

    keys = []

    def first_key(run_seed, *key):
        assert run_seed == seed
        keys.append(key)
        raise _Keyed

    monkeypatch.setattr(harness, "stream", first_key)
    monkeypatch.setattr(cli, "stream", first_key)
    cfg_path = write_small_config(tmp_path)
    common = ["--config", str(cfg_path), "--seed", str(seed)]
    for run in (
        lambda: harness.recipe_naive_contrast(str(tmp_path / "recipe"), small_config(**{"run.seed": str(seed)})),
        lambda: main(["train", *common, "--out", str(tmp_path / "m.ckpt")]),
        lambda: main(["verify", *common]),
    ):
        with pytest.raises(_Keyed):
            run()
    sampling = {state(c, j) for c in range(64) for j in (0, 1)} | {state(2**32 - 1), state(2**32 - 2)}
    assert len(keys) == 3 and len({state(*key) for key in keys}) == 3
    for key in keys:
        assert state(*key) not in sampling, key


def test_cli_verify_uses_model_kind(tmp_path, capsys):
    # verify builds its model from model.kind, as sample does
    cfg_path = write_small_config(tmp_path)
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--config", str(cfg_path), "--out", str(ckpt), "--steps", "20", "--train-size", "256"]) == 0
    verify = ["verify", "--config", str(cfg_path), "--mc", "2"]
    assert main(verify) == 0
    capsys.readouterr()
    assert main([*verify, "--set", "model.kind=mlp", "--set", f"model.checkpoint={ckpt}"]) == 0
    got = json.loads(capsys.readouterr().out)
    cfg = small_config()
    rng = stream(cfg.run_seed, 13, 2)
    x0 = cfg.gmm_spec().sample(1, rng)[0]
    want = verify_prop1(x0, load_checkpoint(ckpt, cfg.noise_schedule()), rng, m=2)
    assert got == {"mode": "prop1", **want}


def test_cli_verify_corollary1_is_prop1_at_the_tweedie_surrogate(tmp_path, capsys):
    # corollary1 noises x0 to T // 2 with the next draw of the verify stream
    # and checks the identity at its Tweedie denoising, with the draws after
    cfg_path = write_small_config(tmp_path)
    assert main(["verify", "--config", str(cfg_path), "--mode", "corollary1", "--mc", "3"]) == 0
    got = json.loads(capsys.readouterr().out)
    cfg = small_config()
    model = GmmScoreModel(cfg.gmm_spec(), cfg.noise_schedule())
    rng = stream(cfg.run_seed, 13, 2)
    x0 = cfg.gmm_spec().sample(1, rng)[0]
    t = model.sched.T // 2
    surrogate = tweedie(perturb(x0, t, rng.standard_normal(2), model.sched), t, model)
    assert got == {"mode": "corollary1", **verify_prop1(surrogate, model, rng, m=3)}


def test_cli_verify_rejects_an_unusable_model(tmp_path, capsys):
    cfg_path = write_small_config(tmp_path)
    verify = ["verify", "--config", str(cfg_path), "--set", "model.kind=mlp"]
    assert main([*verify, "--set", f"model.checkpoint={tmp_path / 'missing.ckpt'}"]) == EXIT_IO
    assert "missing.ckpt" in capsys.readouterr().err
    assert main(verify) == EXIT_CONFIG
    assert "model.checkpoint" in capsys.readouterr().err


def test_cli_out_is_replaced_whole(tmp_path, capsys, monkeypatch):
    # --out is written to a temporary file that is renamed over the target,
    # so a write that fails part-way cannot leave a half-written report
    cfg_path = write_small_config(tmp_path)
    out = tmp_path / "verify.json"
    out.write_text("previous\n")
    renames = []
    real_replace = os.replace

    def replace(src, dst):
        assert out.read_text() == "previous\n"  # untouched until the rename
        renames.append(dst)
        real_replace(src, dst)

    monkeypatch.setattr(harness.os, "replace", replace)
    assert main(["verify", "--config", str(cfg_path), "--mc", "2", "--out", str(out)]) == 0
    assert renames == [str(out)]
    assert json.loads(out.read_text())["mode"] == "prop1"
    assert not (tmp_path / "verify.json.tmp").exists()


def test_cli_failed_write_leaves_no_tmp(tmp_path, capsys):
    # --out names an existing directory: the rename fails, and its
    # temporary file goes with it
    cfg_path = write_small_config(tmp_path)
    out = tmp_path / "outdir"
    out.mkdir()
    assert main(["verify", "--config", str(cfg_path), "--mc", "2", "--out", str(out)]) == EXIT_IO
    assert "i/o error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.tmp"))
    assert out.is_dir() and not list(out.iterdir())


def test_cli_train_round_trip(tmp_path, capsys):
    cfg_path = write_small_config(tmp_path)
    ckpt = tmp_path / "m.ckpt"
    rc = main(
        [
            "train",
            "--config",
            str(cfg_path),
            "--out",
            str(ckpt),
            "--steps",
            "20",
            "--train-size",
            "256",
        ]
    )
    assert rc == 0 and ckpt.exists()
    sched = ExperimentConfig().with_overrides(SMALL).noise_schedule()
    load_checkpoint(ckpt, sched)


def test_cli_train_below_the_guidance_interval_with_guidance_off(tmp_path):
    # the config is checked as a sampling config, so a T below guidance.interval needs guidance.w=0
    cfg_path = write_small_config(tmp_path)
    argv = ["train", "--config", str(cfg_path), "--out", str(tmp_path / "m.ckpt"), "--steps", "2"]
    assert main([*argv, "--set", "schedule.timesteps=4", "--set", "guidance.w=0"]) == 0
    assert (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--steps", "0"],
        ["train", "--steps", "-1"],
        ["train", "--steps", "2", "--train-size", "0"],
        ["train", "--steps", "2", "--batch-size", "0"],
        ["train", "--steps", "2", "--lr", "-0.001"],
        ["train", "--steps", "1", "--lr", "inf"],
        ["verify", "--mc", "0"],
        # above the integer bound 2**31 - 1: sizes numpy cannot allocate, or training without end
        ["train", "--steps", "2", "--train-size", "99999999999999999999"],
        ["train", "--steps", "2", "--batch-size", "99999999999999999999"],
        ["train", "--steps", "99999999999999999999"],
        ["verify", "--mc", "99999999999999999999"],
    ],
    ids=["steps-0", "steps-negative", "train-size-0", "batch-size-0", "lr-negative", "lr-inf", "verify-mc-0",
         "train-size-huge", "batch-size-huge", "steps-huge", "verify-mc-huge"],
)
def test_cli_rejects_non_positive_train_and_verify_settings(tmp_path, capsys, argv):
    cfg_path = write_small_config(tmp_path)
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    # the message names the flag that each row sets last
    assert "config error" in err and argv[-2] in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt"]


# a 2-D two-component inline mixture; a row overrides one of its keys
_INLINE2 = ["benchmark=inline", "gmm.weights=0.5,0.5", "gmm.means=1,0;-1,0", "gmm.variances=1,1"]


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        ("sample", ["eval.metric_mc=0"], "eval.metric_mc"),
        ("sample", ["eval.knn_k=0"], "eval.knn_k"),
        ("sample", ["eval.knn_k=-1"], "eval.knn_k"),
        ("sample", ["eval.lof_k=0"], "eval.lof_k"),
        ("sample", ["eval.reference_size=-1"], "eval.reference_size"),
        ("sample", ["eval.reference=real", "eval.reference_size=0"], "eval.knn_k"),
        ("sample", ["eval.reference=real", "eval.reference_size=4"], "eval.lof_k"),
        ("sample", ["eval.reference=generated", "eval.knn_k=8"], "eval.knn_k"),
        ("sample", ["eval.reference=generated", "eval.lof_k=8"], "eval.lof_k"),
        ("eval", ["eval.knn_k=0"], "eval.knn_k"),
        ("eval", ["eval.reference=generated", "eval.lof_k=8"], "eval.lof_k"),
        ("sample", ["guidance.w=nan"], "guidance.w"),
        ("sample", ["guidance.w=inf"], "guidance.w"),
        ("sample", ["schedule.cosine_offset=-1"], "schedule.cosine_offset"),
        ("sample", ["schedule.cosine_offset=-0.5"], "schedule.cosine_offset"),
        ("sample", ["schedule.cosine_offset=nan"], "schedule.cosine_offset"),
        ("sample", ["schedule.cosine_offset=1e300"], "schedule.cosine_offset"),
        ("sample", ["guidance.schedule=switch_off"], "guidance.t_mid"),
        ("sample", ["guidance.schedule=switch_off", "guidance.t_mid=400"], "guidance.t_mid"),
        ("sample", ["guidance.t_mid=-3"], "guidance.t_mid"),
        ("sample", ["guidance_w=0.3"], "guidance_w"),
        ("sample", ["guidance.w=abc"], "guidance.w"),
        # a guided config must guide at least one step of the T = 20 chain
        ("sample", ["guidance.interval=300"], "guidance.interval"),
        ("sample", ["guidance.t_mid=400"], "guidance.t_mid"),
        (
            "sample",
            ["schedule.timesteps=250", "guidance.schedule=switch_off", "guidance.t_mid=249", "guidance.interval=100"],
            "guidance.interval",
        ),
        # every config error names its key
        ("sample", ["guidance.w=-1"], "guidance.w"),
        ("sample", ["guidance.interval=0"], "guidance.interval"),
        ("sample", ["guidance.s_fraction=1"], "guidance.s_fraction"),
        ("sample", ["guidance.mc_samples=0"], "guidance.mc_samples"),
        ("sample", ["guidance.schedule=lin"], "guidance.schedule"),
        ("sample", ["guidance.sg=x"], "guidance.sg"),
        ("sample", ["guidance.kind=x"], "guidance.kind"),
        ("sample", ["schedule.timesteps=0"], "schedule.timesteps"),
        ("sample", ["schedule.kind=foo"], "schedule.kind"),
        ("sample", ["schedule.respace=7"], "schedule.respace"),
        ("sample", ["schedule.kind=linear", "schedule.beta_start=-0.1"], "schedule.beta_start"),
        ("sample", ["model.kind=x"], "model.kind"),
        ("sample", ["eval.reference=x"], "eval.reference"),
        # "benchmark" is also a plain word, so the row matches the phrasing
        ("sample", ["benchmark=x"], "benchmark must be"),
        ("sample", ["benchmark=inline", "gmm.weights=1", "gmm.means=0,0", "gmm.variances=-1"], "gmm.variances"),
        ("sample", ["benchmark=inline", "gmm.weights=a", "gmm.means=0,0", "gmm.variances=1"], "gmm.weights"),
        # every number of an inline mixture must be finite
        ("sample", [*_INLINE2, "gmm.weights=nan,nan"], "gmm.weights"),
        ("sample", [*_INLINE2, "gmm.means=nan,0;1,0"], "gmm.means"),
        ("sample", [*_INLINE2, "gmm.variances=inf,1"], "gmm.variances"),
        ("eval", [*_INLINE2, "gmm.weights=nan,nan"], "gmm.weights"),
        ("train", [*_INLINE2, "gmm.weights=nan,nan"], "gmm.weights"),
        ("verify", [*_INLINE2, "gmm.variances=nan,1"], "gmm.variances"),
        # every integer key but run.seed is at most 2**31 - 1
        ("sample", ["guidance.mc_samples=100000000000"], "guidance.mc_samples"),
        ("sample", ["guidance.mc_samples=4611686018427387904"], "guidance.mc_samples"),
        ("sample", ["eval.metric_mc=99999999999999999999"], "eval.metric_mc"),
        ("sample", ["eval.reference=real", "eval.reference_size=10000000000000"], "eval.reference_size"),
        ("sample", ["schedule.timesteps=99999999999999999999"], "schedule.timesteps"),
        ("train", ["run.chains=2147483648"], "run.chains"),
        # the default linear range needs T >= 21: the error names the key the user set
        ("sample", ["schedule.kind=linear", "schedule.timesteps=20"], "schedule.timesteps"),
        # a linear range error gives each bound the user set and marks each other one as the default
        (
            "sample",
            ["schedule.kind=linear", "schedule.timesteps=250", "schedule.beta_start=0.5"],
            "schedule.beta_start = 0.5, schedule.beta_end = 0.08 (the default at schedule.timesteps = 250)",
        ),
        (
            "sample",
            ["schedule.kind=linear", "schedule.timesteps=250", "schedule.beta_end=0.00001"],
            "schedule.beta_start = 0.0004 (the default at schedule.timesteps = 250), schedule.beta_end = 1e-05",
        ),
        # every command checks the guidance plan, train too: it runs at this T with guidance.w=0
        ("train", ["schedule.timesteps=4"], "guidance.interval"),
    ],
)
def test_cli_rejects_eval_settings_that_cannot_work(
    tmp_path, tmp_path_factory, capsys, monkeypatch, command, overrides, key
):
    # SMALL runs 8 chains with knn_k 3 and lof_k 4: a generated reference set
    # offers each sample 7 neighbours, a real one of n points n for kNN and
    # n - 1 for LOF, which also scans the set against itself. Every rejection
    # comes before the sampler runs.
    monkeypatch.setattr(harness, "guided_sample", lambda *a, **k: pytest.fail("sampled"))
    cfg_path = write_small_config(tmp_path)
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    if command == "eval":
        samples = tmp_path_factory.mktemp("in") / "samples.csv"
        rows = [f"{c},{c}.0,{-c}.5,0.0,0.0,0.0,1.0" for c in range(8)]
        samples.write_text("\n".join(["chain,x0,x1,log_density,metric,avg_knn,lof", *rows]) + "\n")
        argv += ["--samples", str(samples)]
    for kv in overrides:
        argv += ["--set", kv]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt"]


_SET_KEYS = [key for _, key in _KEYMAP]
_HOSTILE_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e300", "", "x", "99999999999999999999", "4611686018427387904"]


def test_cli_sample_any_set_value_runs_or_exits_cleanly(tmp_path_factory, capsys):
    # every documented key with a hostile value, in-process: the run either
    # succeeds with finite artifacts and a resolved-config that re-parses, or
    # exits 2, 3 or 4 with a message and no traceback; a config error writes
    # nothing but the config the test itself wrote
    traced = ExperimentConfig().with_overrides({**SMALL, "run.trace": "true"}).to_text()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_SET_KEYS), st.sampled_from(_HOSTILE_VALUES)), min_size=1, max_size=3))
    def check(pairs):
        work = tmp_path_factory.mktemp("set")
        cfg_path = work / "cfg.txt"
        cfg_path.write_text(traced)
        out = work / "out"
        argv = ["sample", "--config", str(cfg_path), "--chains", "8", "--out", str(out)]
        for key, value in pairs:
            argv += ["--set", f"{key}={value}"]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc in (0, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC), (pairs, rc, err)
        if rc == 0:
            rows = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
            assert rows.shape[0] == 8 and np.all(np.isfinite(rows))
            trace = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:]]
            assert np.all(np.isfinite(np.array(trace, float)))
            summary = json.loads((out / "summary.json").read_text())
            assert all(np.isfinite(v) for v in summary.values() if isinstance(v, float))
            resolved = ExperimentConfig.from_text((out / "resolved-config").read_text())
            assert all(np.isfinite(v) for v in vars(resolved).values() if isinstance(v, float))
        else:
            assert err.strip() and len(err.splitlines()) == 1 and "Traceback" not in err, (pairs, err)
        if rc == EXIT_CONFIG:
            assert sorted(p.name for p in work.iterdir()) == ["cfg.txt"]

    check()


def test_cli_sample_rejects_checkpoint_of_another_dimension(tmp_path, capsys, monkeypatch):
    # a 2-D checkpoint on a 3-D mixture exits 3 and names both dimensions,
    # before the sampler runs
    cfg_path = write_small_config(tmp_path)
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--config", str(cfg_path), "--out", str(ckpt), "--steps", "2", "--train-size", "16"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(harness, "guided_sample", lambda *a, **k: pytest.fail("sampled"))
    args = ["sample", "--config", str(cfg_path), "--out", str(tmp_path / "run")]
    for kv in (
        "benchmark=inline",
        "gmm.weights=0.5,0.5",
        "gmm.means=0,0,0;3,0,0",
        "gmm.variances=1,1",
        "model.kind=mlp",
        f"model.checkpoint={ckpt}",
    ):
        args += ["--set", kv]
    assert main(args) == EXIT_IO
    err = capsys.readouterr().err
    assert "2-D" in err and "3-D" in err
    assert not (tmp_path / "run").exists()


def test_cli_exit_codes(tmp_path, capsys):
    cfg_path = write_small_config(tmp_path)
    # unknown config key -> config error
    rc = main(["sample", "--config", str(cfg_path), "--set", "guidance.omega=1", "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG
    # malformed --set
    rc = main(["sample", "--config", str(cfg_path), "--set", "guidance.w", "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG
    # unreadable inputs -> I/O error
    rc = main(["sample", "--config", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "x")])
    assert rc == EXIT_IO
    binary = tmp_path / "utf16.txt"
    binary.write_bytes(b"\xff\xfe\x00\x00" + "run.seed = 1\n".encode("utf-16-le"))
    capsys.readouterr()
    rc = main(["sample", "--config", str(binary), "--out", str(tmp_path / "x")])
    assert rc == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: cannot read config") and len(err.splitlines()) == 1, err
    rc = main(["eval", "--config", str(cfg_path), "--samples", str(tmp_path / "missing.csv")])
    assert rc == EXIT_IO
    # a schedule whose terminal alpha_bar underflows the Tweedie floor
    rc = main(
        [
            "verify",
            "--config",
            str(cfg_path),
            "--set",
            "schedule.kind=linear",
            "--set",
            "schedule.timesteps=200",
            "--set",
            "schedule.beta_start=0.2",
            "--set",
            "schedule.beta_end=0.5",
        ]
    )
    assert rc == EXIT_NUMERIC
    # a checkpoint is outside input: non-finite parameters are an I/O error
    small = ExperimentConfig().with_overrides(SMALL)
    model = MlpEpsModel(small.noise_schedule(), dim=2, hidden=(8,), emb_dim=4)
    ckpt = tmp_path / "m.ckpt"
    verify = ["verify", "--config", str(cfg_path), "--mc", "1"]
    verify += ["--set", "model.kind=mlp", "--set", f"model.checkpoint={ckpt}"]
    model.params[...] = np.inf
    save_checkpoint(model, ckpt)
    assert main(verify) == EXIT_IO
    # finite parameters of 1e200 overflow the identity's sums: no JSON holds
    # NaN or Infinity, so verify names the keys and exits 4, with the typed
    # error as its one line on stderr
    model.params[...] = 1e200
    save_checkpoint(model, ckpt)
    for mode in ("prop1", "corollary1"):
        capsys.readouterr()
        rc = main(verify + ["--mode", mode])
        out, err = capsys.readouterr()
        assert rc == EXIT_NUMERIC and not out
        assert len(err.splitlines()) == 1, err
        assert "total_gap" in err and "max_pointwise_rel_gap" in err


def _huge_checkpoint(path):
    """A default-sized 2-D MLP checkpoint whose parameters are all 1e200:
    finite, so it loads, but its outputs overflow."""
    model = MlpEpsModel(ExperimentConfig().noise_schedule(), dim=2)
    model.params[...] = 1e200
    save_checkpoint(model, path)
    return path


_S = ["--set", "eval.reference_size=30", "--set", "eval.lof_k=4"]
_ONE_POINT = ["--set", "benchmark=inline", "--set", "gmm.weights=1", "--set", "schedule.timesteps=10"]
_FAR = [*_ONE_POINT, "--set", "gmm.means=1e200,0", "--set", "gmm.variances=1"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["sample", "--chains", "5", *_S, "--set", "model.kind=mlp", "--set", "model.checkpoint={huge}"], EXIT_NUMERIC),
        (["sample", "--chains", "5", *_S, *_FAR], EXIT_NUMERIC),
        (["sample", "--chains", "5", *_S, *_FAR, "--set", "guidance.w=0"], EXIT_NUMERIC),
        (["sample", "--chains", "5", *_S, *_FAR, "--set", "guidance.kind=naive"], EXIT_NUMERIC),
        (["train", "--steps", "50", "--lr", "1e300", "--train-size", "100"], EXIT_TRAINING),
        # log densities of about -1e307 overflow their mean
        (["eval", "--samples", "{far_samples}", "--set", "benchmark=inline", "--set", "gmm.weights=1",
          "--set", "gmm.means=0,0", "--set", "gmm.variances=1e-306", "--set", "eval.reference=generated",
          "--set", "eval.lof_k=4"], EXIT_NUMERIC),
    ],
    ids=["sample-mlp-1e200", "sample-far-mean", "sample-far-mean-unguided", "sample-far-mean-naive",
         "train-lr-1e300", "eval-log-density-mean"],
)
def test_cli_overflow_prints_only_its_typed_error(tmp_path, capsys, argv, code):
    # each run overflows on its way to a typed error; the error is the one
    # line on stderr, with no numpy RuntimeWarning before it (pytest's
    # filterwarnings would raise one out of main)
    huge = _huge_checkpoint(tmp_path / "huge.ckpt")
    far_samples = tmp_path / "far.csv"
    rows = [f"{i},{3 + 0.1 * i!r},{-2 + 0.05 * i!r},0,0,0,0" for i in range(40)]
    far_samples.write_text(harness._samples_header(2) + "\n" + "\n".join(rows) + "\n")
    argv = [arg.format(huge=huge, far_samples=far_samples) for arg in argv]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "out")]) == code
    out, err = capsys.readouterr()
    assert not out and len(err.splitlines()) == 1, err
    assert not (tmp_path / "out").exists()


def test_cli_sample_standard_error_of_far_apart_log_densities_is_finite(tmp_path, capsys):
    # around a mean of variance 1e-300 one chain's log density is about
    # -4e266: squared deviations from the mean overflow, the standard error not
    argv = ["sample", "--chains", "5", *_S, *_ONE_POINT, "--set", "gmm.means=0,0", "--set", "gmm.variances=1e-300"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert not capsys.readouterr().err
    log_density = np.loadtxt(tmp_path / "out" / "samples.csv", delimiter=",", skiprows=1)[:, 3]
    assert np.ptp(log_density) > 1e200
    want = 1e266 * np.std(log_density / 1e266, ddof=1) / np.sqrt(log_density.size)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["log_density_se"] == pytest.approx(want, rel=1e-12)


def test_cli_verify_overflow_is_one_stderr_line_in_a_process(tmp_path):
    # in-process, pytest records a warning rather than printing it, and only
    # a RuntimeWarning fails a test; a real process shows all of stderr
    huge = _huge_checkpoint(tmp_path / "huge.ckpt")
    src = os.path.dirname(os.path.dirname(minority_diffusion.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for mode in ("prop1", "corollary1"):
        proc = subprocess.run(
            [sys.executable, "-m", "minority_diffusion.cli", "verify", "--mc", "1", "--mode", mode,
             "--set", "model.kind=mlp", "--set", f"model.checkpoint={huge}"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_NUMERIC and not proc.stdout
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("numeric degeneracy")


@pytest.mark.parametrize(
    "argv",
    [
        ["--chains", "5", *_S, "--set", "schedule.timesteps=10", "--set", "guidance.mc_samples=1000000000"],
        ["--chains", "3", "--set", "schedule.timesteps=10", "--set", "eval.reference=real",
         "--set", "eval.reference_size=2000000000"],
        ["--chains", "1000000000", "--set", "schedule.timesteps=10"],
    ],
    ids=["guidance-tape", "reference-set", "chains"],
)
def test_cli_sample_out_of_memory_is_one_stderr_line_in_a_process(tmp_path, argv):
    # the address space is capped, so the allocation fails whatever the
    # machine's overcommit policy; a noise tape is allocated before its
    # chains' generators are built, so a billion chains fail at once
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    src = os.path.dirname(os.path.dirname(minority_diffusion.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "minority_diffusion.cli", "sample", *argv, "--out", str(out)],
        env=env, capture_output=True, text=True, preexec_fn=cap, timeout=60,
    )
    assert proc.returncode == EXIT_CONFIG and not proc.stdout
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("out of memory: ") and "Unable to allocate" in proc.stderr
    assert not out.exists()


def test_to_json_names_every_non_finite_key():
    assert harness.to_json({"a": 1.5, "b": [0, None, "x"], "c": True}) == json.dumps(
        {"a": 1.5, "b": [0, None, "x"], "c": True}, indent=2, sort_keys=True
    ) + "\n"
    runs = [{"lof_mean": 1.0}, {"lof_mean": np.float64(np.inf)}]
    with pytest.raises(NumericDegeneracyError, match=r"non-finite a, runs\.1\.lof_mean, shifts\.none in"):
        harness.to_json({"a": np.nan, "runs": runs, "shifts": {"none": -np.inf}})


def test_cli_eval_checks_samples_header(tmp_path, capsys):
    cfg_path = write_small_config(tmp_path)
    run2 = tmp_path / "run2"
    assert main(["sample", "--config", str(cfg_path), "--out", str(run2)]) == 0
    wide = tmp_path / "wide.csv"
    wide.write_text(harness._samples_header(16) + "\n" + ",".join(["0"] + ["0.5"] * 20) + "\n")
    for samples, dim in ((wide, "2"), (run2 / "samples.csv", "16")):
        args = ["eval", "--config", str(cfg_path), "--samples", str(samples)]
        if dim == "16":
            args += ["--set", "benchmark=inline", "--set", f"gmm.means={','.join(['0'] * 16)}"]
            args += ["--set", "gmm.weights=1", "--set", "gmm.variances=1"]
        assert main(args) == EXIT_CONFIG
        assert "does not hold" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body",
    [
        "0,0.1,0.2,1,1,1,1\n1,0.1,oops,1,1,1,1\n",  # unparsable value
        "0,0.1,0.2,1,1,1,1\n1,0.1,0.2\n",  # short row
        "0,0.1,0.2\n",  # rows narrower than the header
        "",  # header only
    ],
)
def test_cli_eval_malformed_samples_is_io_error(tmp_path, capsys, body):
    cfg_path = write_small_config(tmp_path)
    path = tmp_path / "samples.csv"
    path.write_text(harness._samples_header(2) + "\n" + body)
    assert main(["eval", "--config", str(cfg_path), "--samples", str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error") and "Traceback" not in err


@pytest.mark.parametrize("scale, code", [(1e150, 0), (1e154, EXIT_NUMERIC), (1e308, EXIT_NUMERIC)])
def test_cli_eval_of_huge_samples_evaluates_or_is_numeric_error(tmp_path, capsys, scale, code):
    # from about 1e154, squared distances between samples overflow
    cfg_path = write_small_config(tmp_path)
    coords = np.random.default_rng(4).uniform(-1.0, 1.0, size=(40, 2)) * scale
    rows = [f"{i},{x!r},{y!r},0,0,0,0" for i, (x, y) in enumerate(coords.tolist())]
    path = tmp_path / "samples.csv"
    path.write_text(harness._samples_header(2) + "\n" + "\n".join(rows) + "\n")
    args = ["eval", "--config", str(cfg_path), "--samples", str(path), "--set", "eval.reference=generated"]
    assert main(args + ["--out", str(tmp_path / "eval.json")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err.startswith("numeric degeneracy") and "overflow" in err
    else:
        assert all(np.isfinite(v) for v in json.loads((tmp_path / "eval.json").read_text()).values()
                   if isinstance(v, float))


@pytest.mark.parametrize("reference", ["real", "generated", "pooled"])
def test_cli_eval_of_a_non_finite_log_density_is_numeric_error(tmp_path, capsys, reference):
    # at (1.2e154, 0) squared distances stay finite, so the neighbour search
    # runs, but over a component variance of 0.25 they overflow
    cfg_path = write_small_config(tmp_path)
    coords = np.random.default_rng(6).standard_normal((40, 2))
    coords[-1] = (1.2e154, 0.0)
    rows = [f"{i},{x!r},{y!r},0,0,0,0" for i, (x, y) in enumerate(coords.tolist())]
    path = tmp_path / "samples.csv"
    path.write_text(harness._samples_header(2) + "\n" + "\n".join(rows) + "\n")
    args = ["eval", "--config", str(cfg_path), "--samples", str(path), "--set", f"eval.reference={reference}"]
    assert main(args) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric degeneracy") and "log density" in err and "Traceback" not in err


@pytest.mark.parametrize("reference", ["generated", "pooled"])
def test_cli_eval_of_an_infinite_lof_is_numeric_error(tmp_path, capsys, reference):
    # five copies of the origin (eval.lof_k = 4) have infinite local
    # density, so the LOF of the sample next to them is inf
    cfg_path = write_small_config(tmp_path)
    rows = [f"{i},0.0,0.0,0,0,0,0" for i in range(5)] + ["5,0.0,1.0,0,0,0,0"]
    path = tmp_path / "samples.csv"
    path.write_text(harness._samples_header(2) + "\n" + "\n".join(rows) + "\n")
    args = ["eval", "--config", str(cfg_path), "--samples", str(path), "--set", f"eval.reference={reference}"]
    assert main(args) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric degeneracy") and "LOF" in err and "Traceback" not in err


_HEADER = ["chain", "x0", "x1", "log_density", "metric", "avg_knn", "lof"]
_HOSTILE_CELLS = ["nan", "inf", "-inf", "1e308", "-1e308", "1e154", "-1e154", "5e-324",
                  "2.2250738585072014e-308", "0x1p-3", ""]


@st.composite
def _samples_files(draw):
    """(bytes of a samples.csv for 2-D samples, eval.reference): rows of
    ordinary coordinates with hostile cells, short and long rows,
    duplicate rows and a damaged header mixed in, CRLF and a BOM."""
    header = list(_HEADER)
    layout = draw(st.sampled_from(["whole", "missing", "extra"]))
    if layout == "missing":
        del header[draw(st.integers(0, len(header) - 1))]
    elif layout == "extra":
        header.insert(draw(st.integers(1, len(header))), draw(st.sampled_from(["x2", "extra", ""])))
    coord = st.floats(-6.0, 6.0).map(repr)
    rows = [[str(i), draw(coord), draw(coord), "0", "0", "0", "0"] for i in range(draw(st.integers(1, 24)))]
    n = len(rows)
    for r, c, cell in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 6),
                                              st.sampled_from(_HOSTILE_CELLS)), max_size=3)):
        rows[r][c] = cell
    for src, copies in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 6)), max_size=2)):
        rows[src + 1 : src + 1 + copies] = [list(rows[src])] * len(rows[src + 1 : src + 1 + copies])
    for r, width in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 9)), max_size=2)):
        rows[r] = (rows[r] + ["0"] * width)[:width]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(",".join(cells) for cells in [header, *rows]) + newline
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    return bom + text.encode(), draw(st.sampled_from(["real", "generated", "pooled"]))


def test_cli_eval_of_any_samples_file_evaluates_or_exits_cleanly(tmp_path, capsys):
    # eval either prints finite metrics or exits 2, 3 or 4 with a message
    # and no traceback, whatever samples.csv holds
    cfg_path = write_small_config(tmp_path)
    path = tmp_path / "samples.csv"

    @settings(max_examples=200, deadline=None)
    @given(_samples_files())
    def check(case):
        body, reference = case
        path.write_bytes(body)
        rc = main(["eval", "--config", str(cfg_path), "--samples", str(path),
                   "--set", f"eval.reference={reference}"])
        out, err = capsys.readouterr()
        assert rc in (0, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC), (case, rc, err)
        if rc == 0:
            metrics = json.loads(out)
            assert all(np.isfinite(v) for v in metrics.values() if isinstance(v, float)), (case, metrics)
        else:
            assert err.strip() and len(err.splitlines()) == 1 and "Traceback" not in err, (case, err)

    check()


def test_cli_sample_non_finite_state_is_numeric_error(tmp_path, capsys, monkeypatch):
    class NanModel(GmmScoreModel):
        def linearize(self, x, t):
            out, vjp = super().linearize(x, t)
            return (np.full_like(out, np.nan) if t == 7 else out), vjp

    monkeypatch.setattr(harness, "GmmScoreModel", NanModel)
    cfg_path = write_small_config(tmp_path)
    rc = main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert rc == EXIT_NUMERIC
    assert "t = 7" in capsys.readouterr().err
    assert not (tmp_path / "run" / "samples.csv").exists()


def test_cli_recipe_runs_small(tmp_path, capsys):
    cfg_path = write_small_config(tmp_path)
    rc = main(
        [
            "recipe",
            "--recipe",
            "sg-ablation",
            "--config",
            str(cfg_path),
            "--chains",
            "8",
            "--out",
            str(tmp_path / "rec"),
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary["shifts"]) == {"none", "sg_first", "sg_second"}
    assert (tmp_path / "rec" / "recipe-summary.json").exists()


def resolved(path) -> dict:
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


def test_cli_recipe_starts_from_its_own_base_config(tmp_path, capsys):
    # without --config the recipe's calibrated base applies, and --set wins over it
    common = ["recipe", "--recipe", "sg-ablation", "--chains", "8", "--set", "eval.reference_size=64"]
    assert main([*common, "--out", str(tmp_path / "a")]) == 0
    assert main([*common, "--set", "guidance.w=0.5", "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    want = {
        "schedule.kind": "linear",
        "guidance.schedule": "switch_off",
        "guidance.t_mid": "40",
        "guidance.s_fraction": "0.25",
        "guidance.interval": "1",
        "run.chains": "8",
        "eval.reference_size": "64",
    }
    for out, w in (("a", "0.3"), ("b", "0.5")):
        got = resolved(tmp_path / out / "none" / "resolved-config")
        assert {k: got[k] for k in want} == want
        assert got["guidance.w"] == w
        assert got["guidance.sg"] == "none"
        assert resolved(tmp_path / out / "baseline" / "resolved-config")["guidance.w"] == "0.0"


def test_naive_contrast_reports_convergence(tmp_path, capsys):
    cfg_path = write_small_config(tmp_path)
    args = ["recipe", "--recipe", "naive-contrast", "--config", str(cfg_path), "--out", str(tmp_path / "rec")]
    assert main(args) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == json.loads((tmp_path / "rec" / "recipe-summary.json").read_text())
    gap = abs(summary["naive_shift"] - summary["target_shift"]) / abs(summary["target_shift"])
    assert summary["relative_gap"] == pytest.approx(gap, rel=1e-12)
    assert summary["converged"] == (summary["relative_gap"] <= 0.02)
    # the naive run written is the last scale the bisection tried, run again in full
    naive = tmp_path / "rec" / "naive"
    cfg = ExperimentConfig.from_text((naive / "resolved-config").read_text())
    run_experiment(cfg, str(tmp_path / "again"))
    assert (tmp_path / "again" / "samples.csv").read_bytes() == (naive / "samples.csv").read_bytes()
    assert summary["naive_w"] == cfg.guidance_w


def test_naive_contrast_non_finite_bisection_density_is_numeric_error(tmp_path, capsys, monkeypatch):
    # a bisection step's samples are finite, but their squared distances to
    # the means overflow: the recipe ends in the log density's typed error,
    # with no numpy warning and nothing written for the naive run
    guided_sample = harness.guided_sample

    def far_naive(model, gcfg, *args, **kwargs):
        samples, trace = guided_sample(model, gcfg, *args, **kwargs)
        return (samples * 1e200 if gcfg.kind == "naive" else samples), trace

    monkeypatch.setattr(harness, "guided_sample", far_naive)
    cfg_path = write_small_config(tmp_path)
    args = ["recipe", "--recipe", "naive-contrast", "--config", str(cfg_path), "--out", str(tmp_path / "rec")]
    assert main(args) == EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert not out and len(err.splitlines()) == 1, err
    assert err.startswith("numeric degeneracy: non-finite log density")
    assert not (tmp_path / "rec" / "naive").exists()
