import pytest

from hamsym import symexpr
from hamsym.hamiltonian import make_system
from hamsym.symexpr import ProbeConfig
from hamsym.systemio import BUNDLED_EXAMPLES, parse_system_text


@pytest.fixture(scope="session")
def probes():
    return ProbeConfig(count=64, tolerance=1e-9, seed=42)


@pytest.fixture
def built_code(monkeypatch):
    """The filenames of the code objects that symexpr builds during a test
    (every compile there, generated functions and steps included)."""
    built = []

    def counting(source, filename, mode):
        built.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(symexpr, "compile", counting, raising=False)
    return built


class CountingFloat(float):
    """A parameter or coordinate value that counts the powers taken of it."""
    powers = 0

    def __pow__(self, other):
        CountingFloat.powers += 1
        return float(self) ** other


def _build(name):
    sf = parse_system_text(BUNDLED_EXAMPLES[name], name_hint=name)
    system = make_system(sf.space, sf.symplectic, sf.hamiltonian)
    return sf, system


@pytest.fixture(scope="session")
def pendulum():
    return _build("pendulum.sys")


@pytest.fixture(scope="session")
def iso():
    return _build("iso_oscillator.sys")


@pytest.fixture(scope="session")
def aniso():
    return _build("aniso_oscillator.sys")


def candidate_named(sf, name):
    for cand in sf.symmetries:
        if cand.name == name:
            return cand
    raise KeyError(name)
