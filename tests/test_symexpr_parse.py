"""The parser: its corpus golden, and the shared symbol and integer leaves."""

from pathlib import Path

from hamsym import symexpr
from hamsym.classifier import classify
from hamsym.hamiltonian import make_system
from hamsym.symexpr import _UNIT, Expr, PhaseSpace, parse
from hamsym.systemio import BUNDLED_EXAMPLES, parse_system_text

from genutil import PARSE_CORPUS_SPACES, parse_corpus_text, rational_corpus, small_space


def test_parse_corpus_matches_golden():
    # seeded inputs drawn from the grammar over the benchmark systems' names,
    # seeded faults in them, and an input for every error the parser raises:
    # the golden pins each printed form and key digest, or each error with
    # its position, byte for byte; a printed form parses back to itself
    golden = (Path(__file__).parent / "golden" / "parse_corpus.txt").read_text(encoding="utf-8")
    assert parse_corpus_text() == golden
    spaces = {key: PhaseSpace(len(coords) // 2, coords, params)
              for key, (coords, params) in PARSE_CORPUS_SPACES.items()}
    for line in golden.splitlines():
        key, _, *rest = line.split("\t")
        if len(rest) == 2:
            assert str(parse(rest[0], spaces[key])) == rest[0]


def test_symbols_and_small_integer_literals_are_shared():
    space = small_space()
    assert symexpr.symbol("q1") is symexpr.symbol("q1") is parse("q1", space)
    assert parse("7", space) is parse(" 7 ", space) is symexpr._INT_LEAVES["7"]
    # a literal outside the table is built anew, with the same value
    assert parse("007", space) is not parse("7", space)
    assert parse("007", space) == parse("7", space)
    assert parse("100", space) is not parse("100", space)


def _fresh_symbol(name):
    return Expr({1 << symexpr.SymAtom(name).shift: 1}, _UNIT)


def test_shared_leaves_are_unchanged_by_classification():
    # the shared symbol and integer Exprs flow into every kernel operation;
    # after classifying every bundled candidate and the rational corpus they
    # must still equal freshly built ones: nothing mutates a Poly that an
    # Expr holds
    for fname, source in BUNDLED_EXAMPLES.items():
        sf = parse_system_text(source, name_hint=fname)
        system = make_system(sf.space, sf.symplectic, sf.hamiltonian)
        for cand in sf.symmetries:
            classify(cand, system)
    for _, system, candidates in rational_corpus():
        for cand in candidates:
            classify(cand, system)
    assert _UNIT == {0: 1}
    assert {"q1", "p2", "theta", "p_phi", "Omega", "Omega1"} <= set(symexpr._SYMBOL_LEAVES)
    for name, e in symexpr._SYMBOL_LEAVES.items():
        fresh = _fresh_symbol(name)
        assert (e.num, e.den, e.sn, e.sd) == (fresh.num, fresh.den, fresh.sn, fresh.sd)
        assert e.key == fresh.key and str(e) == str(fresh) == name
    for text, e in symexpr._INT_LEAVES.items():
        fresh = Expr(_UNIT, _UNIT, int(text)) if text != "0" else Expr({}, _UNIT, 0)
        assert (e.num, e.den, e.sn, e.sd) == (fresh.num, fresh.den, fresh.sn, fresh.sd)
        assert e.key == fresh.key and str(e) == str(fresh) == text
