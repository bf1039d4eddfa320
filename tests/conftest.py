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
def hardened_passes(monkeypatch):
    """One entry per kernel pass of the fixed-point loop's hardened phase,
    made during the test: (its first iteration, the window length at its
    start, the rows it evaluated, the rows the loop accepted, whether a
    member's last accepted row broke its guess). A batch's passes follow
    each other; a new solve starts again at the first hardened iteration."""
    import itertools

    import ptgrid.games as g

    first = next(t for t in itertools.count() if g._TEMPERATURE * g._TEMP_DECAY**t < g._TEMP_FLOOR)
    passes = []
    guesses, add = g._ArgmaxPeriods.guesses, g._ArgmaxPeriods.add

    def counting_guesses(self, count):
        self.evaluated = count  # a pass of one row takes no guesses
        return guesses(self, count)

    def counting_add(self, rows, broken=None):
        start = getattr(self, "next_iteration", first)
        broke = broken is not None and bool(broken.any())
        passes.append((start, self.window, getattr(self, "evaluated", 1), len(rows), broke))
        self.next_iteration, self.evaluated = start + len(rows), 1
        return add(self, rows, broken)

    monkeypatch.setattr(g._ArgmaxPeriods, "guesses", counting_guesses)
    monkeypatch.setattr(g._ArgmaxPeriods, "add", counting_add)
    return passes
