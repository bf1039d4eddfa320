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


@pytest.fixture
def joint_prob_calls(monkeypatch):
    """One entry per call of the solver kernel's _joint_prob made during the
    test: the number of opponents it was given."""
    import ptgrid.games

    calls = []
    joint_prob = ptgrid.games._joint_prob

    def counting_joint_prob(opponents):
        calls.append(len(opponents))
        return joint_prob(opponents)

    monkeypatch.setattr(ptgrid.games, "_joint_prob", counting_joint_prob)
    return calls


@pytest.fixture
def cycle_certificates(monkeypatch):
    """One entry per cycle certificate the fixed-point loop tried during the
    test: a copy of _certified_cycle's arguments, and its verdict."""
    import ptgrid.games

    calls = []
    certify = ptgrid.games._certified_cycle

    def recording_certify(game, behaviors, mixes, codes, tol):
        verdict = certify(game, behaviors, mixes, codes, tol)
        calls.append(((game, behaviors, [m.copy() for m in mixes], codes.copy(), tol), verdict))
        return verdict

    monkeypatch.setattr(ptgrid.games, "_certified_cycle", recording_certify)
    return calls
