"""Packed monomials against the tuple-monomial reference.

A monomial over symbols alone, with integral exponents below the field
limit, is one int; every other monomial is a tuple of sorted (atom,
exponent) pairs.  `genutil.ref_poly_mul` and `genutil.ref_derivative` keep
the tuple form throughout, as the kernel did before packing: the kernel's
products must be theirs term for term and in the same order, its
derivatives equal, and `_make` must build from their monomials the Expr
the operators build.
"""

import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hamsym import symexpr
from hamsym.symexpr import differentiate, parse

from genutil import (kernel_corpus_fields, mixed_poly, random_poly, ref_derivative,
                     ref_poly_mul, small_space, tuple_poly)

SPACE = small_space()
SRC = Path(__file__).resolve().parent.parent / "src"


def _corpus_operands():
    """Every operand of the kernel corpus that builds, in corpus order."""
    golden = Path(__file__).parent / "golden" / "kernel_corpus.txt"
    out = []
    for line in golden.read_text(encoding="utf-8").splitlines():
        _, operands, _ = kernel_corpus_fields(line)
        for text in operands:
            try:
                out.append(parse(text, SPACE))
            except symexpr.ExprError:
                pass  # an operand such as a bare exponent or a name
    return out


def _seeded_mixed(seed, count):
    rng = random.Random(f"packed-oracle:{seed}")
    return [mixed_poly(rng, SPACE) if i % 3 else random_poly(rng, SPACE, trig=True)
            for i in range(count)]


def _pairs():
    corpus = _corpus_operands()
    mixed = _seeded_mixed(1, 120)
    return list(zip(corpus, corpus[1:])) + list(zip(mixed, mixed[1:]))


def _repacked(p):
    return {symexpr._pack(m): c for m, c in p.items()}


def test_monomials_take_one_form():
    exprs = _corpus_operands() + _seeded_mixed(2, 60)
    forms = set()
    for e in exprs:
        for p in (e.num, e.den):
            for m in p:
                assert symexpr._pack(symexpr._factors(m)) == m
                forms.add(type(m))
    assert forms == {int, tuple}


def test_products_match_the_tuple_reference_term_for_term():
    pairs = _pairs()
    assert len(pairs) > 700
    kinds = set()
    for a, b in pairs:
        for p, q in ((a.num, b.num), (a.den, b.num), (a.num, b.den)):
            got, d = symexpr._poly_mul(p, q)
            want, wd = ref_poly_mul(tuple_poly(p), tuple_poly(q))
            assert list(tuple_poly(got).items()) == list(want.items()), (str(a), str(b))
            assert d == wd
            kinds.add(all(type(m) is int for m in (*p, *q)))
    assert kinds == {True, False}  # both the packed loop and the general one


def test_make_builds_the_operators_product_from_the_reference():
    for a, b in _pairs():
        num, dn = ref_poly_mul(tuple_poly(a.num), tuple_poly(b.num))
        den, dd = ref_poly_mul(tuple_poly(a.den), tuple_poly(b.den))
        den = _repacked(den)
        sn, sd = symexpr._reduced(a.sn * b.sn * dd, a.sd * b.sd * dn)
        built = symexpr._make(_repacked(num), symexpr._UNIT if den == {0: 1} else den, sn, sd)
        product = a * b
        assert built == product and str(built) == str(product), (str(a), str(b))


@pytest.mark.parametrize("name", ["q1", "p1", "k"])
def test_derivatives_match_the_tuple_reference(name):
    exprs = _corpus_operands()[::3] + _seeded_mixed(3, 90)
    for e in exprs:
        got, want = differentiate(e, name), ref_derivative(e, name)
        assert got == want and str(got) == str(want), (str(e), name)


def test_monomial_division_matches_the_tuple_reference():
    monos = list(dict.fromkeys(m for e in _corpus_operands() + _seeded_mixed(4, 60)
                               for p in (e.num, e.den) for m in p))
    assert len(monos) > 150
    divisible = 0
    for i, md in enumerate(monos[:60]):
        for mn in monos[:150] + [symexpr._merge_mono(md, m)[0] for m in monos[i:i + 40]]:
            got = symexpr._poly_divides(md, mn)
            exps = dict(symexpr._factors(mn))
            if any(exps.get(a, 0) < e for a, e in symexpr._factors(md)):
                assert got is None, (md, mn)
                continue
            for a, e in symexpr._factors(md):
                exps[a] -= e
            want = tuple(sorted(((a, e) for a, e in exps.items() if e),
                                key=lambda ae: ae[0].key))
            assert got is not None and symexpr._factors(got) == want, (md, mn)
            assert symexpr._pack(want) == got
            divisible += 1
    assert divisible > 2000


@pytest.mark.parametrize("text, printed", [
    ("q1^32767", "q1^32767"),
    ("q1^32767*q1", "q1^32768"),
    ("q1^16384*q1^16384", "q1^32768"),
    ("(q1^16384*p1 + 1)*(q1^16384*p1 - 1)", "p1^2*q1^32768 - 1"),
    ("q1^32768/q1", "q1^32767"),
    ("(q1*p1)^(10^9)", "p1^1000000000*q1^1000000000"),  # a monomial's power is not bounded
])
def test_an_exponent_beyond_the_field_falls_back_to_a_tuple(text, printed):
    e = parse(text, SPACE)
    assert str(e) == printed
    for m in e.num:
        exponent = dict(symexpr._factors(m)).get(symexpr.SymAtom("q1"), 0)
        assert (type(m) is int) == (exponent < symexpr._LIMIT)
    d = differentiate(e, "q1")
    assert d == ref_derivative(e, "q1") and str(d) == str(ref_derivative(e, "q1"))
    assert all(symexpr._pack(symexpr._factors(m)) == m for m in d.num)


def test_the_power_rule_crosses_the_field_limit_both_ways():
    big = parse("q1^32768*p1", SPACE)
    [m] = big.num
    assert type(m) is tuple
    [m] = differentiate(big, "q1").num
    assert type(m) is int and str(differentiate(big, "q1")) == "32768*p1*q1^32767"
    assert str(differentiate(parse("q1^32767*p1", SPACE), "q1")) == "32767*p1*q1^32766"


_PICKLER = """\
import pickle, sys
from hamsym import symexpr
# fields in another order than the test process gives them
for name in ("z_first", "p2", "k", "p1", "q2", "q1"):
    symexpr.symbol(name)
space = symexpr.PhaseSpace(2, ["q1", "q2", "p1", "p2"], {"k": 0.75})
texts = sys.stdin.read().splitlines()
shifts = {a.name: a.shift for a in symexpr._SYMBOLS}
sys.stdout.buffer.write(pickle.dumps((shifts, [symexpr.parse(t, space) for t in texts])))
"""


def test_a_pickle_from_another_process_loads_equal():
    texts = ["q1^2*p2 - 3/4*k*q2", "p1*sin(q1*p2)^2 + q2^(3/2)*sqrt(1 + q1^2)",
             "(q1 + k*p1)/(q2^2 + 1)", "q1^32768*p1 + p2^7", "7/3"]
    done = subprocess.run([sys.executable, "-c", _PICKLER], input="\n".join(texts).encode(),
                          capture_output=True, check=True,
                          env={"PYTHONPATH": str(SRC), "PATH": ""})
    shifts, loaded = pickle.loads(done.stdout)
    assert any(shifts[name] != symexpr.SymAtom(name).shift for name in ("q1", "p1"))
    for text, e in zip(texts, loaded):
        here = parse(text, SPACE)
        assert e == here and str(e) == str(here) and hash(e) == hash(here)
        assert [tuple_poly(p) for p in (e.num, e.den)] == \
            [tuple_poly(p) for p in (here.num, here.den)]
