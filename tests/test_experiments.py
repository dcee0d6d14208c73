import os

import numpy as np
import pytest

from dabf.cli import build_spec
from dabf.config import ConfigError, SystemConfig
from dabf.experiments import (
    ExperimentSpec,
    average_padded,
    beam_patterns,
    deterministic_single_path_channel,
    realization_rng,
    run_experiment,
    scaled_cubic_coefficient,
)


def desk_system(**kw):
    from dabf.config import dbm_to_mw, noise_from_snr

    p = dbm_to_mw(13.0)
    n0 = noise_from_snr(p, 20.0)
    defaults = dict(
        n_tx=8, n_rf=4, n_users=2, n_paths=2, p_tot=p, noise_user=n0, noise_sense=n0
    )
    defaults.update(kw)
    return SystemConfig(**defaults)


def tiny_spec(kind, tmp_path, **kw):
    defaults = dict(
        kind=kind,
        system=desk_system(),
        grid=(0.0, 0.2),
        realizations=2,
        out_dir=str(tmp_path),
        schemes=("mrt", "rbf"),
        workers=1,
        seed=11,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [l.split(",") for l in body[1:]]
    return comments, header, rows


def test_scaled_cubic_coefficient_keeps_phase():
    b1, b3 = 1.14 - 0.08j, -0.08 + 0.1j
    for rho in (0.05, 0.112, 0.3):
        b3p = scaled_cubic_coefficient(b1, b3, rho)
        assert abs(abs(b3p) / abs(b1) - rho) < 1e-12
        assert abs(np.angle(b3p) - np.angle(b3)) < 1e-12
    assert scaled_cubic_coefficient(b1, b3, 0.0) == 0j


def test_scaled_cubic_coefficient_rejects_zero_base():
    with pytest.raises(ConfigError):
        scaled_cubic_coefficient(1.0, 0j, 0.1)


def test_realization_rng_streams_are_independent_and_stable():
    a = realization_rng(5, 0, 0).standard_normal(4)
    b = realization_rng(5, 0, 0).standard_normal(4)
    c = realization_rng(5, 1, 0).standard_normal(4)
    d = realization_rng(5, 0, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_spec_validation():
    with pytest.raises(ConfigError):
        tiny_spec("sweep_nonlinearity", "/tmp", grid=())
    with pytest.raises(ConfigError):
        tiny_spec("sweep_nonlinearity", "/tmp", grid=(0.3, 0.1))
    with pytest.raises(ConfigError):
        tiny_spec("sweep_nonlinearity", "/tmp", realizations=0)
    with pytest.raises(ConfigError):
        tiny_spec("sweep_nonlinearity", "/tmp", schemes=("bogus",))
    with pytest.raises(ConfigError):
        tiny_spec("nope", "/tmp")


def test_sweep_nonlinearity_csv_contract(tmp_path):
    spec = tiny_spec("sweep_nonlinearity", tmp_path)
    path = run_experiment(spec)
    comments, header, rows = read_csv(path)
    assert header == ["rho", "scheme", "mean_sum_rate_bits", "mean_radiated_power_mw", "realizations"]
    assert len(rows) == len(spec.grid) * len(spec.schemes)
    assert any("config:" in c for c in comments)
    assert any("seed: 11" in c for c in comments)
    assert os.path.exists(os.path.join(str(tmp_path), "sweep_nonlin-manifest.txt"))


def test_sweep_rerun_is_byte_identical(tmp_path):
    spec = tiny_spec("sweep_nonlinearity", tmp_path)
    first = open(run_experiment(spec), "rb").read()
    second = open(run_experiment(spec), "rb").read()
    assert first == second


def test_sweep_worker_count_does_not_change_output(tmp_path):
    spec_a = tiny_spec("sweep_nonlinearity", tmp_path / "w1", workers=1)
    spec_b = tiny_spec("sweep_nonlinearity", tmp_path / "w2", workers=2)
    pa = run_experiment(spec_a)
    pb = run_experiment(spec_b)
    a = [l for l in open(pa) if not l.startswith("#")]
    b = [l for l in open(pb) if not l.startswith("#")]
    assert a == b


def test_sweep_snr_noise_mapping(tmp_path):
    # At very low SNR, all schemes cluster near zero rate.
    spec = tiny_spec("sweep_snr", tmp_path, grid=(-20.0, 20.0), schemes=("mrt", "zf"))
    path = run_experiment(spec)
    _, _, rows = read_csv(path)
    low = [float(r[2]) for r in rows if float(r[0]) == -20.0]
    high = [float(r[2]) for r in rows if float(r[0]) == 20.0]
    assert max(low) < 0.6
    assert min(high) > 1.0
    assert max(low) - min(low) < 0.2  # clustered in the noise-dominated regime


def test_proposed_schemes_coincide_without_nonlinearity(tmp_path):
    spec = tiny_spec(
        "sweep_nonlinearity",
        tmp_path,
        grid=(0.0,),
        schemes=("proposed_known", "proposed_unknown"),
        realizations=2,
    )
    path = run_experiment(spec)
    _, _, rows = read_csv(path)
    assert rows[0][2:] == rows[1][2:]


def test_benchmark_capture_hooks_exist():
    # bench/capture.py replaces these names in dabf.experiments to record
    # every reported design; a refactor that drops one breaks the benchmark.
    from dabf import experiments

    hooked = (
        "_sweep_one_realization",
        "_convergence_one_realization",
        "_known_pa_hybrid",
        "evaluate_metrics",
        "first_mo_trace",
    )
    for name in hooked:
        assert callable(getattr(experiments, name, None)), name


def test_benchmark_capture_hooks_replace_the_realization_tasks(tmp_path, monkeypatch):
    # The row builders must look the tasks up when they run, so that the
    # benchmark's replacements see every realization exactly once.
    from dabf import experiments

    calls = []
    for name in ("_sweep_one_realization", "_convergence_one_realization"):

        def counting(args, name=name, original=getattr(experiments, name)):
            calls.append((name, args[1]))
            return original(args)

        monkeypatch.setattr(experiments, name, counting)
    run_experiment(tiny_spec("sweep_snr", tmp_path / "sweep", realizations=3))
    run_experiment(tiny_spec("convergence", tmp_path / "conv", schemes=("proposed_known",), realizations=2))
    assert calls == [("_sweep_one_realization", i) for i in range(3)] + [
        ("_convergence_one_realization", i) for i in range(2)
    ]


def test_pool_has_at_most_one_worker_per_realization(tmp_path, monkeypatch):
    # A pool forks all its workers at the first submit; a stand-in executor
    # records the requested size and maps in this process.
    from dabf import experiments

    sizes = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, task, payloads):
            return map(task, payloads)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingExecutor)
    pooled = run_experiment(tiny_spec("sweep_nonlinearity", tmp_path / "pooled", realizations=3, workers=8))
    run_experiment(tiny_spec("sweep_nonlinearity", tmp_path / "single", realizations=1, workers=8))
    serial = run_experiment(tiny_spec("sweep_nonlinearity", tmp_path / "serial", realizations=3, workers=1))
    assert sizes == [3]
    assert read_csv(pooled)[1:] == read_csv(serial)[1:]


def test_average_padded_pads_with_last_value():
    t1 = np.array([1.0, 2.0, 3.0])
    t2 = np.array([2.0])
    avg = average_padded([t1, t2])
    np.testing.assert_allclose(avg, [(1 + 2) / 2, (2 + 2) / 2, (3 + 2) / 2])


def test_convergence_trace_csv(tmp_path):
    spec = tiny_spec("convergence", tmp_path, grid=(0.0, 20.0), schemes=("proposed_known",), realizations=3)
    path = run_experiment(spec)
    _, header, rows = read_csv(path)
    assert header == ["iteration", "snr_db", "mean_objective"]
    for snr in (0.0, 20.0):
        trace = [float(r[2]) for r in rows if float(r[1]) == snr]
        assert len(trace) >= 1
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))


def test_distortion_awareness_gain_grows_with_snr(tmp_path):
    # The known-PA design's edge over the blind one widens as noise recedes
    # (distortion dominates the denominators at high SNR). Needs an array
    # large enough that full-budget operation stays below the backoff knee;
    # at 16 antennas the blind design's accidental compression backoff can
    # invert the comparison.
    spec = tiny_spec(
        "sweep_snr",
        tmp_path,
        system=desk_system(n_tx=32, n_rf=8, n_paths=5),
        grid=(0.0, 20.0),
        schemes=("proposed_known", "proposed_unknown"),
        realizations=8,
        workers=2,
        seed=5,
    )
    path = run_experiment(spec)
    _, _, rows = read_csv(path)
    vals = {(float(r[0]), r[1]): float(r[2]) for r in rows}
    gap_low = vals[(0.0, "proposed_known")] - vals[(0.0, "proposed_unknown")]
    gap_high = vals[(20.0, "proposed_known")] - vals[(20.0, "proposed_unknown")]
    assert gap_high > gap_low


def test_deterministic_channel_matches_angles():
    cfg = desk_system(n_users=1, n_paths=1)
    ch = deterministic_single_path_channel(cfg, 106.0)
    from dabf.channel import steering_vector

    expected = np.sqrt(cfg.n_tx) * steering_vector(np.radians(106.0), cfg.n_tx)
    np.testing.assert_allclose(ch.user_channels[0], expected, atol=1e-14)
    with pytest.raises(ConfigError):
        deterministic_single_path_channel(desk_system(), 106.0)


def test_beam_patterns_clamped_and_shaped():
    cfg = desk_system(n_users=1, n_paths=1)
    ch = deterministic_single_path_channel(cfg, 90.0)
    F = np.zeros((cfg.n_tx, 1), dtype=complex)
    F[0, 0] = 1e-200
    angles = np.arange(0.0, 180.1, 30.0)
    lin, nl = beam_patterns(F, cfg, angles)
    assert lin.shape == nl.shape == angles.shape
    assert np.all(nl >= -200.0) and np.all(nl <= 0.0)


def test_mrt_beam_pattern_peaks_at_user(tmp_path):
    cfg = desk_system(n_users=1, n_paths=1, n_tx=16, n_rf=4)
    spec = ExperimentSpec(
        kind="beam_pattern",
        system=cfg,
        grid=(106.0,),
        realizations=1,
        out_dir=str(tmp_path),
        schemes=("mrt",),
        seed=0,
        user_angle_deg=106.0,
    )
    path = run_experiment(spec)
    _, _, rows = read_csv(path)
    angles = np.array([float(r[0]) for r in rows])
    lin = np.array([float(r[2]) for r in rows])
    peak = angles[int(np.argmax(lin))]
    assert abs(peak - 106.0) <= 0.25
