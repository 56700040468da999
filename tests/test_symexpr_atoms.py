"""Interned atoms: an atom is one object per structural key.

Equality and hashing of atoms are the default identity ones, so every way of
building an atom must return the interned object, and copying or pickling
one must return it too.  The intern table holds weak references only.  The
denominator 1 is shared the same way: every Expr whose denominator is 1
holds the one Poly `symexpr._UNIT`, which the kernel tests by identity.
"""

import copy
import gc
import pickle
import weakref
from fractions import Fraction
from pathlib import Path

from hamsym import symexpr
from hamsym.classifier import classify
from hamsym.hamiltonian import make_system
from hamsym.symexpr import differentiate, parse, pow_
from hamsym.systemio import BUNDLED_EXAMPLES, parse_system_text

from genutil import kernel_corpus_fields, small_space

SPACE = small_space()


def atoms_by_key(*exprs):
    """Every atom of the exprs, through function arguments and root bases."""
    out = {}

    def walk(e):
        for a in e.atoms():
            out.setdefault(a.key, []).append(a)
            if isinstance(a, symexpr.FuncAtom):
                walk(a.arg)
            elif isinstance(a, symexpr.PowAtom):
                walk(a.base)

    for e in exprs:
        walk(e)
    return out


def assert_interned(*exprs):
    shared = 0
    for key, found in atoms_by_key(*exprs).items():
        assert all(a is found[0] for a in found), key
        shared += len(found) > 1
    assert shared


def test_equal_atoms_are_one_object_however_built():
    q1, p1 = symexpr.symbol("q1"), symexpr.symbol("p1")
    sin_q1 = symexpr.func("sin", q1)
    root = pow_(parse("1 + q2^2", SPACE), Fraction(1, 2))
    built = [
        parse("q1*sin(q1) + p1*sqrt(1 + q2^2)", SPACE),
        q1 * sin_q1 + p1 * root,
        differentiate(parse("cos(q1)*p1^2", SPACE), "q1"),  # -p1^2*sin(q1)
        differentiate(parse("q1*p1*sqrt(1 + q2^2)", SPACE), "q2"),
        parse("1/cos(q1)^2", SPACE) * symexpr.func("tan", q1),  # the 1/cos^2 rewrite
        parse("p1*sin(q1)^2 + p1*cos(q1)^2", SPACE),  # the sin^2 + cos^2 fold
        symexpr.func("sqrt", parse("q2^2 + 1", SPACE)),
    ]
    assert_interned(*built)


def test_copy_and_pickle_return_the_interned_atom():
    e = parse("q1*cos(p1 + k)^2 + sqrt(1 + q2^2)*q1^(3/2)", SPACE)
    atoms = [a for found in atoms_by_key(e).values() for a in found]
    assert {type(a) for a in atoms} == {symexpr.SymAtom, symexpr.FuncAtom, symexpr.PowAtom}
    for a in atoms:
        assert copy.copy(a) is a
        assert copy.deepcopy(a) is a
        assert pickle.loads(pickle.dumps(a)) is a
    for again in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert again == e
        assert_interned(e, again)
        assert again.den is symexpr._UNIT
    # a copy's denominator 1 is the shared Poly again, so it is still a
    # rational constant; a quotient keeps a denominator of its own
    for e in (symexpr.rational(3), symexpr.symbol("q1"), parse("q1/(p1 + 2)", SPACE)):
        for again in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert again == e and str(again) == str(e)
            assert again.is_rational is e.is_rational
            assert (again.den is symexpr._UNIT) is (e.den is symexpr._UNIT)
        assert pickle.loads(pickle.dumps(e)).is_rational is (e == symexpr.rational(3))
    assert copy.deepcopy(symexpr.rational(3)).rational_value == 3
    assert pickle.loads(pickle.dumps(symexpr.rational(3))).rational_value == 3
    assert symexpr._UNIT == {0: 1}


def test_intern_table_keeps_no_atom_alive():
    e = parse("sin(q1 + 7/11*p2)*q2", SPACE)
    (f,) = [a for a in e.atoms() if isinstance(a, symexpr.FuncAtom)]
    ref = weakref.ref(f)
    del e, f
    gc.collect()
    assert ref() is None
    # built again, the atom is a new object that is interned in turn
    again = parse("sin(q1 + 7/11*p2)", SPACE)
    assert_interned(again, parse("q2*sin(q1 + 7/11*p2)", SPACE))


def test_every_live_unit_denominator_is_the_shared_poly():
    # build through every layer: both golden corpora, and all candidates of
    # the three bundled files classified; then every live Expr over 1 must
    # hold the one shared Poly, and nothing may have mutated it
    kept = []
    for name in ("kernel_corpus.txt", "trig_corpus.txt"):
        lines = (Path(__file__).parent / "golden" / name).read_text(encoding="utf-8")
        for line in lines.splitlines():
            fields = line.split("\t")
            if name == "kernel_corpus.txt":
                _, operands, result = kernel_corpus_fields(line)
                fields = [*operands, result]
            if fields[-1].startswith("error: "):
                continue
            kept += [parse(text, SPACE) for text in fields]
    for name, text in BUNDLED_EXAMPLES.items():
        sf = parse_system_text(text, name_hint=name)
        system = make_system(sf.space, sf.symplectic, sf.hamiltonian)
        kept += [system, *(classify(cand, system) for cand in sf.symmetries)]
    gc.collect()
    live = [o for o in gc.get_objects() if isinstance(o, symexpr.Expr)]
    over_one = [e for e in live if e.den == {0: 1}]
    assert len(over_one) > 1000 and len(over_one) < len(live)
    assert all(e.den is symexpr._UNIT for e in over_one)
    assert symexpr._UNIT == {0: 1}
    assert kept
