"""Word layer: parsing, reduction, conjugacy, inversion, outer equality."""

import sys
import timeit
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebycyclic.errors import InputParseError, InvariantViolation
from freebycyclic import graphs as G
from freebycyclic import words as W
from freebycyclic.words import FreeGroupMap

from conftest import EXAMPLES
from helpers import (identity_map, substitute, tuple_conjugating_word,
                     tuple_cyclic_reduce, tuple_inverse, tuple_power,
                     tuple_primitive_root, tuple_reduce)

ABC = ("a", "b", "c")


def w(text, names=ABC):
    return W.parse_word(text, names)


letters_abc = st.tuples(st.sampled_from(ABC), st.sampled_from((1, -1)))
words_abc = st.lists(letters_abc, max_size=24).map(W.encode)


# -- parsing / formatting ----------------------------------------------------

def test_parse_compact():
    assert W.letters(w("Bab")) == (("b", -1), ("a", 1), ("b", 1))
    assert w("") == ""
    assert w("1") == ""
    assert W.letters(w("a'b")) == (("a", -1), ("b", 1))


def test_parse_spaced_multichar():
    names = ("e1", "e2_1", "t1")
    assert W.letters(W.parse_word("e1 e2_1' t1", names)) == (
        ("e1", 1), ("e2_1", -1), ("t1", 1))
    assert W.letters(W.parse_word("e2_1'", names)) == (("e2_1", -1),)


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
    word = W.encode((("e1", 1), ("s2", -1), ("e1", -1)))
    text = W.format_word(word)
    assert text == "e1 s2' e1'"
    assert W.parse_word(text, names) == word


@given(words_abc)
def test_format_parse_roundtrip(word):
    assert W.parse_word(W.format_word(word), ABC) == word


#: characters that names are drawn from: a compact name, its uppercase
#: form, a second compact name, the apostrophe, a digit, an underscore and
#: a letter past ASCII
NAME_CHARS = "aAb'1_é"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(NAME_CHARS, min_size=1, max_size=3), min_size=1,
                max_size=5, unique=True),
       st.data())
def test_format_parse_roundtrip_on_every_accepted_name_set(names, data):
    # a rose with these edge names, each the marking of a generator of
    # the same name: the .map parser either refuses the name set with a
    # typed error naming a colliding name or accepts it, and then every
    # word over it survives format → parse
    text = "vertices v\n" + "".join(
        f"edge {n} v v\nvmap v v\nemap {n} {n}\n" for n in names) \
        + "marking basepoint v\n" + "".join(
            f"marking {n} {n}\n" for n in names)
    try:
        G.parse_map_text(text)
    except InputParseError as exc:
        assert any(repr(n) in str(exc) for n in names)
        return
    lts = st.tuples(st.sampled_from(names), st.sampled_from((1, -1)))
    word = W.encode(data.draw(st.lists(lts, max_size=6)))
    assert W.parse_word(W.format_word(word), names) == word


@pytest.mark.parametrize("names, colliding", [
    (("a", "A"), "'A'"),
    (("a", "b", "ab"), "'ab'"),
    (("a", "b", "aB"), "'aB'"),
    (("e'",), "\"e'\""),
    (("1",), "'1'"),
])
def test_colliding_names_are_refused(names, colliding):
    with pytest.raises(InputParseError, match=colliding):
        W.check_names(names)


# -- reduction ---------------------------------------------------------------

def test_reduce_examples():
    assert W.reduce_word(w("aA")) == ""
    assert W.reduce_word(w("abBA")) == ""
    assert W.reduce_word(w("abBc")) == w("ac")


@given(words_abc)
def test_reduce_idempotent(word):
    r = W.reduce_word(word)
    assert W.reduce_word(r) == r


@given(words_abc)
def test_reduce_inverse_cancels(word):
    assert W.reduce_word(word + W.inverse(word)) == ""


@given(words_abc, words_abc)
def test_reduce_is_a_homomorphism(u, v):
    lhs = W.reduce_word(u + v)
    rhs = W.reduce_word(W.reduce_word(u) + W.reduce_word(v))
    assert lhs == rhs


def test_power():
    assert W.power(w("ab"), 3) == w("ababab")
    assert W.power(w("ab"), -2) == w("BABA")
    assert W.power(w("ab"), 0) == ""


# -- conjugacy ---------------------------------------------------------------

def test_cyclic_reduce():
    core, u = W.cyclic_reduce(w("Babcb"))
    assert core == w("abc")
    assert u == w("B")
    back = W.reduce_word(u + core + W.inverse(u))
    assert back == W.reduce_word(w("Babcb"))
    assert W.cyclic_reduce(w("abc")) == (w("abc"), "")


def test_conjugating_word():
    w1, w2 = w("ab"), w("ba")
    z = W.conjugating_word(w1, w2)
    assert z is not None
    assert W.reduce_word(z + w1 + W.inverse(z)) == w2
    assert W.conjugating_word(w("ab"), w("ac")) is None


@given(words_abc, words_abc)
@settings(max_examples=60)
def test_conjugates_detected(core, u):
    w1 = W.reduce_word(core)
    w2 = W.reduce_word(u + core + W.inverse(u))
    z = W.conjugating_word(w1, w2)
    assert z is not None
    assert W.reduce_word(z + w1 + W.inverse(z)) == w2


def test_primitive_root():
    root, k = W.primitive_root(w("abab"))
    assert root == w("ab") and k == 2
    root, k = W.primitive_root(w("ab"))
    assert root == w("ab") and k == 1
    # conjugated power: B (ab)^3 b has root B(ab)b
    word = W.reduce_word(w("B") + W.power(w("ab"), 3) + w("b"))
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


def test_apply_outside_the_domain_is_typed():
    with pytest.raises(InvariantViolation,
                       match=r"letter \('z', 1\) is not in the domain "
                             r"\('a', 'b', 'c'\)"):
        PHI.apply((("a", 1), ("z", 1)))
    with pytest.raises(InvariantViolation, match=r"letter \('e1', -1\)"):
        PHI.apply(w("a") + W.parse_word("e1'", ("e1",)))


def test_identity_map():
    ident = identity_map(ABC)
    assert ident.apply(w("aBc")) == w("aBc")


def test_greedy_inverse_succeeds_on_triangular():
    f = FreeGroupMap.from_strings(ABC, {"a": "ab", "b": "b", "c": "cba"})
    inv = W.greedy_nielsen_inverse(f)
    assert inv is not None
    for g in ABC:
        assert inv.apply(f.image(g)) == W.encode(((g, 1),))
        assert f.apply(inv.image(g)) == W.encode(((g, 1),))


def test_greedy_inverse_on_phi():
    inv = W.greedy_nielsen_inverse(PHI)
    assert inv is not None
    for g in ABC:
        assert inv.apply(PHI.image(g)) == W.encode(((g, 1),))
        assert PHI.apply(inv.image(g)) == W.encode(((g, 1),))


def test_phi_known_inverse_checks():
    # Independent oracle for the stall test above: the inverse exists.
    phi_inv = FreeGroupMap.from_strings(ABC, {"a": "bcB", "b": "bCBb", "c": "abCB"})
    for g in ABC:
        assert phi_inv.apply(PHI.image(g)) == W.encode(((g, 1),))
        assert PHI.apply(phi_inv.image(g)) == W.encode(((g, 1),))


def test_greedy_inverse_none_on_noninjective():
    f = FreeGroupMap.from_strings(ABC, {"a": "a", "b": "a", "c": "c"})
    assert W.greedy_nielsen_inverse(f) is None


def test_outer_equal_inner_conjugates():
    za = w("a")
    conj = FreeGroupMap(ABC, ABC, tuple(
        W.reduce_word(za + PHI.image(g) + W.inverse(za)) for g in ABC))
    z = W.outer_equal(PHI, conj)
    assert z is not None
    for g in ABC:
        assert W.reduce_word(z + PHI.image(g) + W.inverse(z)) == conj.image(g)


def test_outer_equal_distinguishes():
    other = FreeGroupMap.from_strings(ABC, {"a": "ca", "b": "ab", "c": "aab"})
    assert W.outer_equal(PHI, other) is None


def test_outer_equal_identity_vs_inner():
    ident = identity_map(ABC)
    zw = w("ab")
    inner = FreeGroupMap(ABC, ABC, tuple(
        W.reduce_word(zw + W.encode(((g, 1),)) + W.inverse(zw))
        for g in ABC))
    z = W.outer_equal(ident, inner)
    assert z is not None


@given(st.sampled_from(["a", "b", "ab", "cB", "abc"]))
def test_outer_equal_random_conjugator(ztext):
    zw = w(ztext)
    conj = FreeGroupMap(ABC, ABC, tuple(
        W.reduce_word(zw + PHI.image(g) + W.inverse(zw)) for g in ABC))
    assert W.outer_equal(PHI, conj) is not None


# -- the substitution kernel against concatenate-then-reduce -----------------

images_abc = st.lists(letters_abc, max_size=6).map(tuple)


@settings(max_examples=300, deadline=None)
@given(st.tuples(images_abc, images_abc, images_abc), words_abc)
def test_apply_equals_reduced_concatenation(images, word):
    # images may be unreduced or empty, and the word unreduced
    f = FreeGroupMap(ABC, ABC, images)
    expected = W.reduce_word("".join((
        f.image(name) if sign > 0 else W.inverse(f.image(name))
        for name, sign in W.letters(word))))
    assert f.apply(word) == expected
    assert f.apply(iter(word)) == expected


def test_apply_cancels_through_whole_images():
    # the image of c cancels the whole image of a, across the empty image of b
    f = FreeGroupMap.from_strings(ABC, {"a": "ab", "b": "", "c": "BA"})
    assert f.apply(w("aBc")) == ""
    assert f.apply(w("cac")) == w("BA")


# -- the text kernel against the tuple substitution oracle -------------------

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
            head + middle + tuple_inverse(middle) + tail)


def oracle_apply(f, word):
    image_of = {}
    for g in f.domain:
        image_of[(g, 1)] = W.letters(f.image(g))
        image_of[(g, -1)] = tuple_inverse(W.letters(f.image(g)))
    return substitute(word, image_of)


@settings(max_examples=200, deadline=None)
@given(maps_and_words())
def test_apply_equals_the_substitution_oracle(case):
    f, word = case
    assert W.letters(f.apply(word)) == oracle_apply(f, word)


def test_apply_on_deep_cancellation_equals_the_oracle():
    # x^200 X^200 cancels 200 layers deep, through images of two letters
    f = FreeGroupMap(("x", "y"), ("e1", "e2_1"),
                     (W.parse_word("e1 e2_1 e1'", ("e1", "e2_1")), ""))
    word = (("x", 1),) * 200 + (("y", 1),) + (("x", -1),) * 200
    assert W.letters(f.apply(word)) == oracle_apply(f, word) == ()
    word = (("x", 1),) * 200 + (("x", -1),) * 199
    assert W.letters(f.apply(word)) == oracle_apply(f, word) \
        == W.letters(f.image("x"))


def test_apply_decodes_letters_past_code_point_255():
    # g_i -> g_(129-i)⁻¹ g_i, so the letters of g129 sit past code point 255
    names = CODOMAINS[2]
    f = FreeGroupMap(names, names, tuple(
        ((names[-1 - i], -1), (g, 1)) for i, g in enumerate(names)))
    word = tuple((g, 1) for g in reversed(names))
    assert W.letters(f.apply(word)) == oracle_apply(f, word)
    assert W.letters(f.apply((("g129", 1),))) == (("g000", -1), ("g129", 1))
    assert f.apply((("g129", 1), ("g000", 1))) == ""


# -- every text operation against its tuple oracle ---------------------------

# 130 padding names first, so that every name interned after them has code
# points past 255 and texts over it take two bytes per character
W.intern(f"pad{i:03d}" for i in range(130))
#: one-character names, from the start of the table, and names interned
#: after the padding, one and several characters long
MIXED = ABC + ("k", "kk_1", "up:q.0")
mixed_letters = st.tuples(st.sampled_from(MIXED), st.sampled_from((1, -1)))
mixed_words = st.lists(mixed_letters, max_size=16).map(tuple)


def test_mixed_names_reach_past_code_point_255():
    assert max(ord(W.encode(((name, -1),))) for name in MIXED) > 255


@settings(max_examples=300, deadline=None)
@given(mixed_words, mixed_words, st.integers(-3, 3))
def test_text_operations_equal_their_tuple_oracles(u, v, n):
    text = W.encode(u)
    assert W.letters(W.inverse(text)) == tuple_inverse(u)
    assert W.letters(W.reduce_word(text)) == tuple_reduce(u)
    assert W.letters(W.power(text, n)) == tuple_power(u, n)
    core, conj = W.cyclic_reduce(text)
    assert (W.letters(core), W.letters(conj)) == tuple_cyclic_reduce(u)
    # v against u, and a conjugate of u, which always has a conjugator
    for other in (v, tuple_reduce(v + u + tuple_inverse(v))):
        z = W.conjugating_word(text, W.encode(other))
        oracle = tuple_conjugating_word(u, other)
        assert (None if z is None else W.letters(z)) == oracle
    if tuple_reduce(u):
        root, k = W.primitive_root(text)
        assert (W.letters(root), k) == tuple_primitive_root(u)


@settings(max_examples=300, deadline=None)
@given(mixed_words, mixed_words, mixed_words, st.lists(mixed_words, max_size=3))
def test_multiply_equals_the_tuple_oracle(u, v, w, more):
    # u v and v⁻¹ w cancel through v at their junction
    factors = [tuple_reduce(u + v), tuple_reduce(tuple_inverse(v) + w)]
    factors += [tuple_reduce(word) for word in more]
    product = W.multiply(*map(W.encode, factors))
    assert W.letters(product) == tuple_reduce(sum(factors, ()))


# -- reduction block by block -------------------------------------------------

#: block lengths small enough that every junction, and cancellation through
#: whole blocks, shows on short words
BLOCKS = st.sampled_from((1, 2, 3, 5))


def with_block(block, run):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(W, "_BLOCK", block)
        return run()


@settings(max_examples=200, deadline=None)
@given(BLOCKS, maps_and_words())
def test_apply_block_by_block_equals_the_oracle(block, case):
    f, word = case
    expected = oracle_apply(f, word)
    for given_as in (word, W.encode(word), iter(word)):
        assert W.letters(with_block(block, lambda: f.apply(given_as))) \
            == expected
    # w w⁻¹ cancels across every junction
    both = word + tuple_inverse(word)
    assert with_block(block, lambda: f.apply(both)) == ""


@settings(max_examples=100, deadline=None)
@given(BLOCKS, st.lists(letters_abc, max_size=24).map(tuple))
def test_apply_through_whole_images_block_by_block(block, word):
    # c's image cancels a's whole image, across b's empty image
    f = FreeGroupMap.from_strings(ABC, {"a": "ab", "b": "", "c": "BA"})
    assert W.letters(with_block(block, lambda: f.apply(word))) \
        == oracle_apply(f, word)


@settings(max_examples=200, deadline=None)
@given(BLOCKS, mixed_words, mixed_words)
def test_reduce_word_block_by_block_equals_the_oracle(block, u, v):
    word = u + v + tuple_inverse(v)   # unreduced in the middle
    assert W.letters(with_block(block, lambda: W.reduce_word(
        W.encode(word)))) == tuple_reduce(word)
    both = W.encode(word + tuple_inverse(word))
    assert with_block(block, lambda: W.reduce_word(both)) == ""


@settings(max_examples=200, deadline=None)
@given(st.lists(mixed_words, max_size=6))
def test_multiply_cancels_through_whole_factors(factors):
    # the factors, then their inverses in reverse order: w w⁻¹ cancels
    # through every factor, and the products of each half cancel part way
    texts = [W.encode(tuple_reduce(word)) for word in factors]
    inverses = [W.inverse(t) for t in reversed(texts)]
    for product in (texts, inverses):
        assert W.letters(W.multiply(*product)) \
            == tuple_reduce(sum(map(W.letters, product), ()))
    assert W.multiply(*texts, *inverses) == ""


# -- the junction: _push keeps a list of reduced pieces ----------------------

def test_push_appends_a_piece_that_does_not_cancel():
    first = w("ab")
    pieces = [first]
    W._push(pieces, w("ca"))
    assert pieces == [w("ab"), w("ca")] and pieces[0] is first
    pieces = []
    W._push(pieces, w("ab"))
    assert pieces == [w("ab")]


def test_push_trims_the_last_piece_in_place_and_appends_the_rest():
    first = w("ca")
    pieces = [first, w("abc")]
    W._push(pieces, w("CBa"))
    assert pieces == [w("ca"), w("a"), w("a")] and pieces[0] is first


def test_push_pops_whole_pieces_and_goes_on_into_the_next():
    first = w("ab")
    pieces = [first, w("c"), w("a")]
    W._push(pieces, w("ACBc"))
    assert pieces == [w("a"), w("c")]
    # through every piece of the product
    pieces = [w("ab"), w("c"), w("a")]
    W._push(pieces, w("ACBAb"))
    assert pieces == [w("b")]


def test_push_appends_nothing_when_the_piece_cancels_whole():
    pieces = [w("b"), w("abc")]
    W._push(pieces, w("CB"))
    assert pieces == [w("b"), w("a")]
    pieces = [w("b"), w("c"), w("ab")]
    W._push(pieces, w("BA"))
    assert pieces == [w("b"), w("c")]


def test_push_of_an_exact_inverse_leaves_nothing():
    pieces = [w("abc")]
    W._push(pieces, w("CBA"))
    assert pieces == []
    pieces = [w("ab"), w("ca")]
    W._push(pieces, w("AC"))
    assert pieces == [w("ab")]


def test_push_of_the_empty_piece_leaves_the_list_unchanged():
    first, second = w("ab"), w("c")
    pieces = [first, second]
    W._push(pieces, "")
    assert pieces == [w("ab"), w("c")]
    assert pieces[0] is first and pieces[1] is second
    pieces = []
    W._push(pieces, "")
    assert pieces == []


@pytest.mark.parametrize("block", (1, 2, 3, 5))
def test_apply_outside_the_domain_in_a_later_block(block):
    # the first letter outside the domain is named, whichever block has it
    word = (("a", 1),) * 7 + (("z", 1), ("a", -1), ("q", -1))
    with pytest.raises(InvariantViolation,
                       match=r"letter \('z', 1\) is not in the domain "
                             r"\('a', 'b', 'c'\)"):
        with_block(block, lambda: PHI.apply(word))


def test_apply_holds_about_twice_its_result():
    # φ¹⁵(a) has 30 309 letters and φ¹⁶(a) 59 586.  The images are reduced
    # block by block, so the peak holds the reduced pieces, their join and
    # one block; joining the whole unreduced image and rewriting it held
    # about 5.3 times the result.
    word = W.char(("a", 1))
    for _ in range(15):
        word = PHI.apply(word)
    tracemalloc.start()
    try:
        result = PHI.apply(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result) == 59586
    assert peak < 3 * sys.getsizeof(result)


def test_apply_holds_under_three_times_its_result_on_a_cancelling_map():
    # the benchmark's rose automorphism deletes about half of the letters
    # it joins, and on φ¹⁵(a) every distinct chunk image fits in the cache:
    # the peak holds the cache besides the pieces, their join and one block
    mapfile = G.load_map_file(EXAMPLES / "phi_f3.map")
    phi = G.map_to_automorphism(mapfile.marked, mapfile.gmap)
    word = W.char(("a", 1))
    for _ in range(15):
        word = phi.apply(word)
    tracemalloc.start()
    try:
        result = phi.apply(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result) == 168608
    assert peak < 3 * sys.getsizeof(result)


# -- the chunk kernel: each distinct chunk reduced once per call --------------

#: chunk lengths small enough that cache hits, seams and cancellation
#: through whole chunks and whole blocks show on short words
CHUNKS = st.sampled_from((1, 2, 3, 5))


def with_chunk(chunk, block, run):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(W, "_CHUNK", chunk)
        mp.setattr(W, "_BLOCK", block)
        return run()


@settings(max_examples=300, deadline=None)
@given(CHUNKS, BLOCKS, maps_and_words(), st.integers(1, 4))
def test_apply_chunk_by_chunk_equals_the_oracle(chunk, block, case, times):
    # images may be empty or unreduced, and codomain letters run past code
    # point 255; a repeated word makes chunks repeat
    f, word = case
    word = word * times
    expected = oracle_apply(f, word)
    for given_as in (word, W.encode(word), iter(word)):
        assert W.letters(with_chunk(chunk, block, lambda: f.apply(given_as))) \
            == expected
    # w w⁻¹ cancels through every seam and every junction
    both = word + tuple_inverse(word)
    assert with_chunk(chunk, block, lambda: f.apply(both)) == ""
    assert with_chunk(chunk, block, lambda: f.apply(W.encode(both))) == ""


@settings(max_examples=200, deadline=None)
@given(CHUNKS, BLOCKS,
       st.lists(st.lists(mixed_letters, max_size=5).map(tuple),
                min_size=len(MIXED), max_size=len(MIXED)),
       mixed_words, mixed_words)
def test_apply_chunk_by_chunk_on_mixed_names(chunk, block, images, u, v):
    word = u + v + tuple_inverse(v) + u   # unreduced, and u twice
    f = FreeGroupMap(MIXED, MIXED, tuple(images))
    expected = oracle_apply(f, word)
    for given_as in (word, W.encode(word), iter(word)):
        assert W.letters(with_chunk(chunk, block, lambda: f.apply(given_as))) \
            == expected


@settings(max_examples=100, deadline=None)
@given(CHUNKS, BLOCKS, st.lists(letters_abc, max_size=8).map(tuple),
       st.integers(0, 12), st.integers(0, 12))
def test_apply_chunk_by_chunk_through_whole_images(chunk, block, u, n, m):
    # c's image cancels a's whole image, across b's empty image, so whole
    # chunk images cancel at seams
    f = FreeGroupMap.from_strings(ABC, {"a": "ab", "b": "", "c": "BA"})
    word = u * n + tuple_inverse(u) * m
    assert W.letters(with_chunk(chunk, block, lambda: f.apply(word))) \
        == oracle_apply(f, word)


def counting_reduce(monkeypatch):
    """Count the calls of ``words._reduce`` from here on."""
    calls = []
    reduce = W._reduce

    def counted(text, pairs):
        calls.append(text)
        return reduce(text, pairs)

    monkeypatch.setattr(W, "_reduce", counted)
    return calls


def test_each_distinct_chunk_is_reduced_once(monkeypatch):
    # (abc)²⁰⁰⁰ has 6000 letters over two blocks; 64 = 1 mod 3, so its
    # whole chunks start in three phases, and the last chunk is short
    word = w("abc") * 2000
    chunks = {word[i:i + W._CHUNK] for i in range(0, len(word), W._CHUNK)}
    assert len(chunks) == 4
    calls = counting_reduce(monkeypatch)
    fields = set(vars(PHI))
    first = PHI.apply(word)
    assert len(calls) == 4
    # nothing outlives the call: a second call does the same work
    assert PHI.apply(word) == first
    assert len(calls) == 8
    assert set(vars(PHI)) == fields
    monkeypatch.undo()
    assert first == PHI.apply(W.letters(word))
    assert W.letters(first) == oracle_apply(PHI, W.letters(word))


def test_the_chunk_cache_holds_at_most_its_cap(monkeypatch):
    # k distinct chunks twice over: the cache keeps the first
    # len(word) // (4 · _CHUNK) = k / 2 of them, so the second copy reduces
    # the other k / 2 again
    k = 40
    half = "".join(w(format(j, f"0{W._CHUNK}b").translate({48: "a", 49: "b"}))
                   for j in range(k))
    word = half + half
    assert len(word) // (4 * W._CHUNK) == k // 2
    calls = counting_reduce(monkeypatch)
    result = PHI.apply(word)
    assert len(calls) == k + k // 2
    monkeypatch.undo()
    assert W.letters(result) == oracle_apply(PHI, W.letters(word))


def test_reduce_word_returns_a_reduced_word_itself():
    # φ¹⁶(a) (59,586 letters) is reduced: no cancelling pair occurs in it,
    # so reduce_word hands it back uncopied
    word = W.char(("a", 1))
    for _ in range(16):
        word = PHI.apply(word)
    tracemalloc.start()
    try:
        result = W.reduce_word(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result is word
    assert peak < 0.5 * sys.getsizeof(word)


def test_deep_cancellation_over_many_generators_is_fast():
    # q is 400 distinct generators, so q⁻¹q cancels through 400 layers
    q = W.intern(f"deep{i:03d}" for i in range(400))
    w = q + W.intern(["deepx"]) + W.inverse(q)
    assert W.multiply(W.inverse(q), q) == ""
    assert W.multiply(q, W.inverse(q[200:])) == q[:200]
    assert W.conjugating_word(w, w) == ""
    best = min(timeit.repeat(lambda: W.conjugating_word(w, w), number=1,
                             repeat=5))
    assert best < 0.005


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(mixed_letters, max_size=5).map(tuple),
                min_size=len(MIXED), max_size=len(MIXED)),
       mixed_words, mixed_words)
def test_maps_on_mixed_names_equal_the_tuple_oracles(images, u, v):
    reduced = [tuple_reduce(img) for img in images]
    image_of = {}
    for g, img in zip(MIXED, reduced):
        image_of[(g, 1)], image_of[(g, -1)] = img, tuple_inverse(img)
    word = u + v + tuple_inverse(v)   # unreduced in the middle
    f = FreeGroupMap(MIXED, MIXED, tuple(images))
    expected = substitute(word, image_of)
    assert W.letters(f.apply(word)) == expected
    assert W.letters(f.apply(W.encode(word))) == expected
    assert W.letters(f.apply(W.reduce_word(W.encode(word)))) == expected
    # the same images on a rose, untight, and the path tightened round by
    # round: the oracle concatenates the raw images and reduces
    rose = G.Graph.rose(MIXED)
    g = G.GraphMap(rose, rose, {"v": "v"},
                   {name: W.encode(img) for name, img in zip(MIXED, images)})
    raw = {}
    for name, img in zip(MIXED, images):
        raw[(name, 1)], raw[(name, -1)] = img, tuple_inverse(img)
    oracle = word
    for rounds in range(1, 4):
        oracle = tuple_reduce(lt for x in oracle for lt in raw[x])
        assert W.letters(g.iterate_tight(W.encode(word), rounds)) == oracle
        if rounds == 1:
            assert W.letters(g.apply_tight(word)) == oracle
