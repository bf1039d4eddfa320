"""The traced counts of a pass depend only on its inputs: two traced runs at
one seed must give identical calls, iterations and cells."""
import time

import pytest

import tracer
import workloads


def _subset(name, inputs):
    """Inputs small enough for the test suite, cut from the real ones."""
    if name == "dsm-fig9":
        return {**inputs, "cfg": {**inputs["cfg"], "alpha_grid": [0.5, 1.0]}, "reference": None}
    if name == "custom-games":
        n = workloads.CustomGames.N_2X2
        return inputs[:3] + inputs[n + 2:n + 3]
    return inputs


def _traced_counts(name, seed, out_dir):
    workload = workloads.WORKLOADS[name]
    inputs = _subset(name, workload.load(seed))
    with tracer.Tracer(time.perf_counter) as t:
        outputs = workload.run(inputs, out_dir)
    tally = workload.check(inputs, outputs)
    return t.counts(), tally


@pytest.mark.parametrize("name", ["storage-figs", "custom-games", "dsm-fig9"])
def test_two_traced_runs_give_identical_counts(name, tmp_path):
    first, tally = _traced_counts(name, 7, tmp_path)
    second, _ = _traced_counts(name, 7, tmp_path)
    assert first == second
    assert tally.wrong == 0
    assert first["games.pure_action_values.calls"] > 0
    if name == "custom-games":
        assert first["games.brute_force_equilibrium.cells"] > 0
        assert first["games.solve_fixed_point.iterations"] > 0
    if name == "dsm-fig9":
        assert first["dsm.solve_dsm.calls"] == 3  # EUT plus the two alphas


def test_tracer_restores_the_program_and_tolerates_missing_names(monkeypatch, tmp_path):
    from ptgrid import storage

    original = storage.solve_2x2
    gone = ("games.gone", "ptgrid.games", ("no_such_function",), ("calls",))
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + [gone])
    counts, _ = _traced_counts("storage-figs", 0, tmp_path)
    assert counts["games.gone.calls"] == 0
    assert counts["games.solve_2x2.calls"] == 157
    assert storage.solve_2x2 is original
