import pytest

from torion import groebner


@pytest.fixture
def buchberger_orders(monkeypatch):
    """The order kinds groebner._buchberger runs in during the test, in
    call order."""
    kinds = []
    run = groebner._buchberger

    def spy(n, gens, order, budget, seeded=0):
        kinds.append(order.kind)
        return run(n, gens, order, budget, seeded=seeded)
    monkeypatch.setattr(groebner, "_buchberger", spy)
    return kinds
