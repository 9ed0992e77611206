"""Word layer: parsing, reduction, conjugacy, inversion, outer equality."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebycyclic.errors import InputParseError
from freebycyclic import words as W
from freebycyclic.words import FreeGroupMap

from helpers import substitute

ABC = ("a", "b", "c")


def w(text, names=ABC):
    return W.parse_word(text, names)


letters_abc = st.tuples(st.sampled_from(ABC), st.sampled_from((1, -1)))
words_abc = st.lists(letters_abc, max_size=24).map(tuple)


# -- parsing / formatting ----------------------------------------------------

def test_parse_compact():
    assert w("Bab") == (("b", -1), ("a", 1), ("b", 1))
    assert w("") == ()
    assert w("1") == ()
    assert w("a'b") == (("a", -1), ("b", 1))


def test_parse_spaced_multichar():
    names = ("e1", "e2_1", "t1")
    assert W.parse_word("e1 e2_1' t1", names) == (
        ("e1", 1), ("e2_1", -1), ("t1", 1))
    assert W.parse_word("e2_1'", names) == (("e2_1", -1),)


def test_parse_unknown_generator():
    with pytest.raises(InputParseError):
        w("axb")
    with pytest.raises(InputParseError):
        W.parse_word("e9", ("e1",))


def test_format_roundtrip_compact():
    word = w("aBcA")
    assert W.format_word(word) == "aBcA"
    assert W.parse_word(W.format_word(word), ABC) == word


def test_format_roundtrip_spaced():
    names = ("e1", "s2")
    word = (("e1", 1), ("s2", -1), ("e1", -1))
    text = W.format_word(word)
    assert text == "e1 s2' e1'"
    assert W.parse_word(text, names) == word


@given(words_abc)
def test_format_parse_roundtrip(word):
    assert W.parse_word(W.format_word(word), ABC) == word


# -- reduction ---------------------------------------------------------------

def test_reduce_examples():
    assert W.reduce_word(w("aA")) == ()
    assert W.reduce_word(w("abBA")) == ()
    assert W.reduce_word(w("abBc")) == w("ac")


@given(words_abc)
def test_reduce_idempotent(word):
    r = W.reduce_word(word)
    assert W.reduce_word(r) == r


@given(words_abc)
def test_reduce_inverse_cancels(word):
    assert W.reduce_word(W.concat(word, W.inverse(word))) == ()


@given(words_abc, words_abc)
def test_reduce_is_a_homomorphism(u, v):
    lhs = W.reduce_word(W.concat(u, v))
    rhs = W.reduce_word(W.concat(W.reduce_word(u), W.reduce_word(v)))
    assert lhs == rhs


def test_power():
    assert W.power(w("ab"), 3) == w("ababab")
    assert W.power(w("ab"), -2) == w("BABA")
    assert W.power(w("ab"), 0) == ()


# -- conjugacy ---------------------------------------------------------------

def test_cyclic_reduce():
    core, u = W.cyclic_reduce(w("Babcb"))
    assert core == w("abc")
    assert u == w("B")
    back = W.reduce_word(W.concat(u, core, W.inverse(u)))
    assert back == W.reduce_word(w("Babcb"))
    assert W.cyclic_reduce(w("abc")) == (w("abc"), ())


def test_conjugating_word():
    w1, w2 = w("ab"), w("ba")
    z = W.conjugating_word(w1, w2)
    assert z is not None
    assert W.reduce_word(W.concat(z, w1, W.inverse(z))) == w2
    assert W.conjugating_word(w("ab"), w("ac")) is None


@given(words_abc, words_abc)
@settings(max_examples=60)
def test_conjugates_detected(core, u):
    w1 = W.reduce_word(core)
    w2 = W.reduce_word(W.concat(u, core, W.inverse(u)))
    z = W.conjugating_word(w1, w2)
    assert z is not None
    assert W.reduce_word(W.concat(z, w1, W.inverse(z))) == w2


def test_primitive_root():
    root, k = W.primitive_root(w("abab"))
    assert root == w("ab") and k == 2
    root, k = W.primitive_root(w("ab"))
    assert root == w("ab") and k == 1
    # conjugated power: B (ab)^3 b has root B(ab)b
    word = W.reduce_word(W.concat(w("B"), W.power(w("ab"), 3), w("b")))
    root, k = W.primitive_root(word)
    assert k == 3
    assert W.power(root, 3) == word


# -- group maps --------------------------------------------------------------

PHI = FreeGroupMap.from_strings(ABC, {"a": "ca", "b": "ab", "c": "Bab"})


def test_apply_and_compose():
    assert PHI.apply(w("a")) == w("ca")
    assert PHI.apply(w("A")) == w("AC")
    sq = PHI.compose(PHI)
    assert sq.image("a") == PHI.apply(w("ca"))


def test_identity_map():
    ident = FreeGroupMap.identity(ABC)
    assert ident.apply(w("aBc")) == w("aBc")


def test_greedy_inverse_succeeds_on_triangular():
    f = FreeGroupMap.from_strings(ABC, {"a": "ab", "b": "b", "c": "cba"})
    inv = W.greedy_nielsen_inverse(f)
    assert inv is not None
    for g in ABC:
        assert inv.apply(f.image(g)) == ((g, 1),)
        assert f.apply(inv.image(g)) == ((g, 1),)


def test_greedy_inverse_on_phi():
    inv = W.greedy_nielsen_inverse(PHI)
    assert inv is not None
    for g in ABC:
        assert inv.apply(PHI.image(g)) == ((g, 1),)
        assert PHI.apply(inv.image(g)) == ((g, 1),)
    # the default status string before any verification is the documented one:
    assert PHI.invertibility == "endomorphism, invertibility unverified"


def test_phi_known_inverse_checks():
    # Independent oracle for the stall test above: the inverse exists.
    phi_inv = FreeGroupMap.from_strings(ABC, {"a": "bcB", "b": "bCBb", "c": "abCB"})
    for g in ABC:
        assert phi_inv.apply(PHI.image(g)) == ((g, 1),)
        assert PHI.apply(phi_inv.image(g)) == ((g, 1),)


def test_greedy_inverse_none_on_noninjective():
    f = FreeGroupMap.from_strings(ABC, {"a": "a", "b": "a", "c": "c"})
    assert W.greedy_nielsen_inverse(f) is None


def test_outer_equal_inner_conjugates():
    za = w("a")
    conj = FreeGroupMap(ABC, ABC, tuple(
        W.reduce_word(W.concat(za, PHI.image(g), W.inverse(za))) for g in ABC))
    z = W.outer_equal(PHI, conj)
    assert z is not None
    for g in ABC:
        assert W.reduce_word(W.concat(z, PHI.image(g), W.inverse(z))) == conj.image(g)


def test_outer_equal_distinguishes():
    other = FreeGroupMap.from_strings(ABC, {"a": "ca", "b": "ab", "c": "aab"})
    assert W.outer_equal(PHI, other) is None


def test_outer_equal_identity_vs_inner():
    ident = FreeGroupMap.identity(ABC)
    zw = w("ab")
    inner = FreeGroupMap(ABC, ABC, tuple(
        W.reduce_word(W.concat(zw, ((g, 1),), W.inverse(zw))) for g in ABC))
    z = W.outer_equal(ident, inner)
    assert z is not None


@given(st.sampled_from(["a", "b", "ab", "cB", "abc"]))
def test_outer_equal_random_conjugator(ztext):
    zw = w(ztext)
    conj = FreeGroupMap(ABC, ABC, tuple(
        W.reduce_word(W.concat(zw, PHI.image(g), W.inverse(zw))) for g in ABC))
    assert W.outer_equal(PHI, conj) is not None


# -- the substitution kernel against concatenate-then-reduce -----------------

images_abc = st.lists(letters_abc, max_size=6).map(tuple)


@settings(max_examples=300, deadline=None)
@given(st.tuples(images_abc, images_abc, images_abc), words_abc)
def test_apply_equals_reduced_concatenation(images, word):
    # images may be unreduced or empty, and the word unreduced
    f = FreeGroupMap(ABC, ABC, images)
    expected = W.reduce_word(W.concat(*(
        f.image(name) if sign > 0 else W.inverse(f.image(name))
        for name, sign in word)))
    assert f.apply(word) == expected
    assert f.apply(iter(word)) == expected


def test_apply_cancels_through_whole_images():
    # the image of c cancels the whole image of a, across the empty image of b
    f = FreeGroupMap.from_strings(ABC, {"a": "ab", "b": "", "c": "BA"})
    assert f.apply(w("aBc")) == ()
    assert f.apply(w("cac")) == w("BA")


# -- the string kernel against the tuple substitution oracle -----------------

#: codomains: one-character names, multi-character names, and 130
#: generators, whose 260 letters run past code point 255
CODOMAINS = (ABC, ("e1", "e2_1", "up:black.0", "b"),
             tuple(f"g{i:03d}" for i in range(130)))
DOMAINS = (("a", "b", "c"), ("x", "y"), ("e1", "e2_1", "up:black.0", "b"))
LETTERS = {names: st.tuples(st.sampled_from(names), st.sampled_from((1, -1)))
           for names in CODOMAINS + DOMAINS}


@st.composite
def maps_and_words(draw):
    codomain = draw(st.sampled_from(CODOMAINS))
    # the domain may be the codomain only when that is small, so that
    # drawing one image per generator stays cheap
    domain = draw(st.sampled_from(
        DOMAINS + (codomain,) if len(codomain) < 10 else DOMAINS))
    # images may be empty or unreduced; the map reduces them
    images = tuple(tuple(draw(st.lists(LETTERS[codomain], max_size=6)))
                   for _ in domain)
    word = lambda: tuple(draw(st.lists(LETTERS[domain], max_size=12)))
    # an unreduced middle u u⁻¹ makes cancellation run through whole images
    head, middle, tail = word(), word(), word()
    return (FreeGroupMap(domain, codomain, images),
            head + middle + W.inverse(middle) + tail)


def oracle_apply(f, word):
    image_of = {}
    for g in f.domain:
        image_of[(g, 1)] = f.image(g)
        image_of[(g, -1)] = W.inverse(f.image(g))
    return substitute(word, image_of)


@settings(max_examples=200, deadline=None)
@given(maps_and_words())
def test_apply_equals_the_substitution_oracle(case):
    f, word = case
    assert f.apply(word) == oracle_apply(f, word)


def test_apply_on_deep_cancellation_equals_the_oracle():
    # x^200 X^200 cancels 200 layers deep, through images of two letters
    f = FreeGroupMap(("x", "y"), ("e1", "e2_1"),
                     (W.parse_word("e1 e2_1 e1'", ("e1", "e2_1")), ()))
    word = (("x", 1),) * 200 + (("y", 1),) + (("x", -1),) * 200
    assert f.apply(word) == oracle_apply(f, word) == ()
    word = (("x", 1),) * 200 + (("x", -1),) * 199
    assert f.apply(word) == oracle_apply(f, word) == f.image("x")


def test_apply_decodes_letters_past_code_point_255():
    # g_i -> g_(129-i)⁻¹ g_i, so the letters of g129 sit past code point 255
    names = CODOMAINS[2]
    f = FreeGroupMap(names, names, tuple(
        ((names[-1 - i], -1), (g, 1)) for i, g in enumerate(names)))
    word = tuple((g, 1) for g in reversed(names))
    assert f.apply(word) == oracle_apply(f, word)
    assert f.apply((("g129", 1),)) == (("g000", -1), ("g129", 1))
    assert f.apply((("g129", 1), ("g000", 1))) == ()
