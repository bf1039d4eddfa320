import pytest


@pytest.fixture
def loop_runs(monkeypatch):
    """The number of members of every run of the fixed-point loop made
    during the test, in order."""
    import ptgrid.games

    runs = []
    loop = ptgrid.games._fixed_point_loop

    def counting_loop(game, sets, *args):
        runs.append(len(sets))
        return loop(game, sets, *args)

    monkeypatch.setattr(ptgrid.games, "_fixed_point_loop", counting_loop)
    return runs
