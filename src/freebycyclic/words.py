"""Free-group words over named generators, and word-level group maps.

A word is text: one code point per oriented letter, from one process-wide
letter table.  A name gets two adjacent code points, forward then inverse,
when it is first seen (surrogates are skipped), so inverting a word
reverses it and flips the low bit of each code point, and concatenation is
``+``.  Free reduction deletes cancelling pairs until none is left, one
block of text at a time, so a long unreduced text never exists whole.  A
map applies to a word chunk by chunk, and the image of each distinct
chunk is reduced once per call.  Reduced pieces, whether blocks, chunk
images or the factors of a product, are joined at one junction,
:func:`_push`, which cancels letter by letter what the product's end and
the piece's start share.
Code points follow the order in which names were first seen, so nothing
orders words by them: orderings are keyed on the decoded letters.

A :data:`Letter` stays a ``(name, sign)`` tuple: directions and turns are
graph data.  The letter table and a map's :class:`ImageTable` answer letters
and code points alike, so :func:`encode` returns text unchanged and a map
applies to a word of letters through the same code as to text.  Text is
parsed and formatted only at the file and command-line boundary:

* a compact name (one lowercase character) is written as itself for the
  forward letter and in uppercase for the inverse (``"Bab"`` is b⁻¹ab);
* any other name takes a trailing apostrophe for the inverse (``e2_1'``),
  and a word with such a name is a whitespace-separated token sequence.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

from .errors import InputParseError, InvariantViolation

#: A letter is an oriented generator: (name, +1) forward, (name, -1) inverse.
Letter = tuple[str, int]
#: A word is text, one code point per letter; the empty text is the identity.
Word = str

# the letter table: each letter and each assigned code point to its code
# point, each code point to its letter, each code point to its inverse's,
# and each code point to the two cancelling pairs of its generator
_CHAR: dict = {}
_LETTER: dict[str, Letter] = {}
_FLIP: dict[int, int] = {}
_PAIRS: dict[str, tuple[str, str]] = {}


def intern(names: Iterable[str]) -> Word:
    """The word of the forward letters of ``names``; a name not seen
    before gets its two code points here."""
    forward = []
    for name in names:
        fwd = _CHAR.get((name, 1))
        if fwd is None:
            point = len(_LETTER) + (0x800 if len(_LETTER) >= 0xD800 else 0)
            fwd, inv = chr(point), chr(point + 1)
            for lt, ch in (((name, 1), fwd), ((name, -1), inv)):
                _CHAR[lt] = _CHAR[ch] = ch
                _LETTER[ch] = lt
                _FLIP[ord(ch)] = ord(ch) ^ 1
                _PAIRS[ch] = (fwd + inv, inv + fwd)
        forward.append(fwd)
    return "".join(forward)


def inverse_letter(lt: Letter) -> Letter:
    return (lt[0], -lt[1])


def char(lt: Letter) -> Word:
    """The one-letter word of ``lt``."""
    if lt not in _CHAR:
        intern((lt[0],))
    return _CHAR[lt]


def encode(word: Sequence) -> Word:
    """The text of a word given as letters, code points or both; text
    comes back unchanged."""
    try:
        return "".join(map(_CHAR.__getitem__, word))
    except KeyError:
        return "".join(map(char, word))


def letters(word: Word) -> tuple[Letter, ...]:
    """The letters of a word, in order."""
    return tuple(map(_LETTER.__getitem__, word))


def letter_of(ch: str) -> Letter:
    """The letter of a one-letter word."""
    return _LETTER[ch]


def inverse(word: Word) -> Word:
    return word[::-1].translate(_FLIP)


def _cancelling_pairs(text: str) -> tuple[str, ...]:
    """x x⁻¹ and x⁻¹ x for every generator x with a letter in ``text``."""
    return tuple(set().union(*map(_PAIRS.__getitem__, set(text))))


def _reduce(text: str, pairs: tuple[str, ...]) -> str:
    """Delete the cancelling ``pairs`` until a pass deletes nothing.  Free
    reduction is confluent, so the order of the deletions does not matter;
    each pass peels at least one layer off every cancellation."""
    size = -1
    while size != len(text):
        size = len(text)
        for pair in pairs:
            text = text.replace(pair, "")
    return text


#: letters reduced per block: a long text is reduced one block at a time,
#: or a long word applied one block at a time, and each block pushed onto
#: the reduced product so far, so the peak holds the reduced pieces, their
#: join and one block.  Measured when apply reduced the joined images of a
#: whole block, on the 19-iterate growth of the bundled φ (1.28 M
#: letters): blocks of 2048 to 16384 letters ran as fast as reducing the
#: whole text, within noise, and 1024 a little slower; the last apply
#: peaked at 2.0 times its result, and at 2.2 and 3.8 times with blocks of
#: 65536 and 262144 letters.
_BLOCK = 4096

#: letters per chunk: :meth:`FreeGroupMap.apply` reduces the image of each
#: distinct aligned chunk of its word once per call, and keeps at most
#: ``len(word) // (4 * _CHUNK)`` of them.  Iterates of an automorphism have
#: few distinct factors (Pansiot 1984): the last round of the growth above
#: reads 10,183 chunks, 926 of them distinct.  On 2 cores with CPython
#: 3.11.7 the growth took a median 51, 61 and 106 ms with chunks of 32, 64
#: and 128 letters, against 95 to 130 ms block by block, and the apply that
#: makes φ¹⁶(a), from that map or from a→ca, b→ab, c→Bab, peaked at up to
#: 2.98, 2.74 and 2.61 times its result.  With 64 letters the cap trades
#: speed for that peak: no cap, twice this cap, this cap and half of it
#: gave 60, 61, 65 and 76 ms and 3.75, 3.36, 2.74 and 2.43 times.
_CHUNK = 64


def _push(pieces: list[str], piece: Word) -> None:
    """Append the reduced ``piece`` to ``pieces``, the reduced product of
    its reduced pieces, at the one junction of this module: letter by
    letter while the product's end cancels the piece's start, popping each
    piece the cancellation runs through and trimming the one it stops in.
    A cancellation of k letters costs O(k) letter comparisons."""
    k, n = 0, len(piece)
    while k < n and pieces:
        last = pieces[-1]
        j = len(last)
        while j and k < n and ord(last[j - 1]) ^ 1 == ord(piece[k]):
            j -= 1
            k += 1
        if j:
            if j < len(last):
                pieces[-1] = last[:j]
            break
        pieces.pop()
    if k < n:
        pieces.append(piece[k:])


def reduce_word(word: Word) -> Word:
    """Freely reduce: cancel adjacent inverse pairs until none remain, one
    block of ``_BLOCK`` letters at a time, each block joining the reduced
    product so far at a junction.  A word in which no cancelling pair
    occurs comes back itself, uncopied."""
    pairs = _cancelling_pairs(word)
    if not any(pair in word for pair in pairs):
        return word
    pieces: list[str] = []
    for i in range(0, len(word), _BLOCK):
        _push(pieces, _reduce(word[i:i + _BLOCK], pairs))
    return "".join(pieces)


def multiply(*words: Word) -> Word:
    """The reduced product of reduced words, each pushed onto the product
    so far through one junction and the pieces joined once."""
    pieces: list[str] = []
    for word in words:
        _push(pieces, word)
    return "".join(pieces)


def power(word: Word, n: int) -> Word:
    """``word``ⁿ, reduced: u cⁿ u⁻¹ for the cyclic reduction u c u⁻¹."""
    core, u = cyclic_reduce(word)
    if n < 0:
        core, n = inverse(core), -n
    return u + core * n + inverse(u) if core and n else ""


# ---------------------------------------------------------------------------
# parsing / formatting


def compact_name(name: str) -> bool:
    """A name written in compact form: one lowercase character whose
    uppercase form is one character that lowercases back to it."""
    return len(name) == 1 and name.islower() and name.upper().lower() == name


def check_names(names: Iterable[str]) -> None:
    """Refuse, naming the colliding names, a name set on which
    :func:`format_word` would not invert :func:`parse_word`: a name with an
    apostrophe or equal to ``1``, a compact name and its uppercase form, or
    a longer name spelt by compact names and their uppercase forms."""
    names = set(names)
    spelt = {form for c in names if compact_name(c) for form in (c, c.upper())}
    for name in sorted(names):
        if "'" in name or name == "1":
            raise InputParseError(f"name {name!r} is reserved word syntax")
        if compact_name(name) and name.upper() in names:
            raise InputParseError(f"names {name!r} and {name.upper()!r} "
                                  "collide: the second inverts the first")
        if len(name) > 1 and set(name) <= spelt:
            raise InputParseError(f"name {name!r} collides with a compact "
                                  "word of single-character names")


def _parse_token(token: str, universe: frozenset[str]) -> Letter:
    sign = -1 if token.endswith("'") else 1
    token = token[:-1] if sign < 0 else token
    if token in universe:
        return (token, sign)
    if len(token) == 1 and token != token.lower() and token.lower() in universe:
        return (token.lower(), -sign)
    raise InputParseError(f"unknown generator in word: {token!r}")


def parse_word(text: str, names: Iterable[str]) -> Word:
    """Parse a word over ``names``.

    Whitespace-separated tokens always work, and a lone token that is a
    name is that letter.  A compact run such as ``Bab`` is accepted when
    each character is a known single-character name or the uppercase form
    of one; a trailing apostrophe inverts the letter it follows.
    """
    universe = frozenset(names)
    intern(sorted(universe))
    text = text.strip()
    if not text or text == "1":
        return ""
    bare = text[:-1] if text.endswith("'") else text
    if any(ch.isspace() for ch in text) or bare in universe:
        tokens = text.split()
    else:
        tokens = re.findall(r".'?", text, re.S)
    return encode([_parse_token(token, universe) for token in tokens])


def format_word(word: Word) -> str:
    """Inverse of :func:`parse_word`, choosing compact form when possible."""
    word = letters(word)
    if all(len(name) == 1 and compact_name(name) for name, _ in word):
        return "".join(name if sign > 0 else name.upper() for name, sign in word)
    return " ".join(name if sign > 0 else name + "'" for name, sign in word)


# ---------------------------------------------------------------------------
# conjugacy


def cyclic_reduce(word: Word) -> tuple[Word, Word]:
    """Return ``(core, u)`` with ``word = u core u^-1`` and core cyclically reduced."""
    w = reduce_word(word)
    k = 0
    while 2 * k + 2 <= len(w) and ord(w[k]) ^ 1 == ord(w[-1 - k]):
        k += 1
    return w[k:len(w) - k], w[:k]


def conjugating_word(w1: Word, w2: Word) -> Optional[Word]:
    """A word ``z`` with ``z w1 z^-1 = w2`` (reduced), or None."""
    c1, u1 = cyclic_reduce(w1)
    c2, u2 = cyclic_reduce(w2)
    if len(c1) != len(c2):
        return None
    for j in range(max(1, len(c1))):
        if c1[j:] + c1[:j] == c2:
            return multiply(u2, inverse(c1[:j]), inverse(u1))
    return None


def primitive_root(word: Word) -> tuple[Word, int]:
    """For nonempty ``word = u c u^-1``: smallest ``r`` with ``c = r^k``; returns
    (``u r u^-1`` reduced, k)."""
    core, u = cyclic_reduce(word)
    if not core:
        raise InvariantViolation("the identity has no primitive root")
    n = len(core)
    d = next(d for d in range(1, n + 1)
             if n % d == 0 and core == core[:d] * (n // d))
    return u + core[:d] + inverse(u), n // d


# ---------------------------------------------------------------------------
# image tables


def as_letter(key):
    """The letter of a code point; any other key comes back as it is
    (for naming a letter in an error message)."""
    return _LETTER.get(key, key)


class ImageTable(dict):
    """The image text of each letter of a map's domain, keyed by code point.

    The forward letters' images are given; an inverse letter's image is
    made from its forward one on first lookup, and a letter given as a
    ``(name, sign)`` tuple finds the image of its code point.  A letter
    outside the domain raises :class:`InvariantViolation` naming it.
    """

    def __init__(self, domain: tuple[str, ...],
                 images: Iterable[Word]) -> None:
        intern(domain)
        # keys are the letter table's own strings: iterating a text makes a
        # new one-character string per code point past Latin-1
        super().__init__(zip(map(_CHAR.__getitem__, zip(domain, repeat(1))),
                             images))
        self.domain = domain

    def __missing__(self, key) -> Word:
        ch = _CHAR.get(key)
        if ch is not None:
            if ch != key:  # a letter given as a tuple
                return self[ch]
            if ord(ch) & 1 and chr(ord(ch) - 1) in self:  # an inverse letter
                self[ch] = image = inverse(self[chr(ord(ch) - 1)])
                return image
        raise InvariantViolation(
            f"letter {as_letter(key)!r} is not in the domain {self.domain!r}")


# ---------------------------------------------------------------------------
# group maps


@dataclass
class FreeGroupMap:
    """A homomorphism between finite-rank free groups, given on generators.

    ``domain`` and ``codomain`` are generator name tuples; ``images[i]`` is
    the reduced image word of ``domain[i]``, given as text or as letters.
    """

    domain: tuple[str, ...]
    codomain: tuple[str, ...]
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(self.images) != len(self.domain):
            raise InvariantViolation("one image word per domain generator required")
        intern(self.domain)
        forward = intern(self.codomain)
        self.images = tuple(reduce_word(encode(w)) for w in self.images)
        for ch in set("".join(self.images)).difference(forward, inverse(forward)):
            raise InvariantViolation(
                f"image letter {_LETTER[ch][0]!r} not in codomain")
        self._index = {g: i for i, g in enumerate(self.domain)}
        # each letter's image, and the cancelling pairs of the letters the
        # images hold
        self._image_text = ImageTable(self.domain, self.images)
        self._pairs = _cancelling_pairs("".join(self.images))

    @classmethod
    def from_strings(cls, gens: Sequence[str], images: Mapping[str, str],
                     codomain: Optional[Sequence[str]] = None) -> "FreeGroupMap":
        gens = tuple(gens)
        cod = tuple(codomain) if codomain is not None else gens
        return cls(gens, cod, tuple(parse_word(images[g], cod) for g in gens))

    def image(self, name: str) -> Word:
        return self.images[self._index[name]]

    def apply(self, word: Iterable) -> Word:
        """Freely reduced product of the images of the letters of ``word``,
        which may itself be unreduced and is given as text, as letters or
        as an iterator of them.  The word is read in aligned chunks of
        ``_CHUNK`` letters inside blocks of ``_BLOCK``: the image of each
        distinct chunk is joined and reduced once per call, each chunk
        image is pushed onto its block and each block onto the product so
        far, both through :func:`_push`, so the unreduced image never
        exists whole.  On a reduced word each of those seams cancels at
        most the map's bounded cancellation constant (Cooper 1987)."""
        table = self._image_text
        if not isinstance(word, str):
            word = word if isinstance(word, Sequence) else tuple(word)
            try:
                word = "".join(map(_CHAR.__getitem__, word))
            except KeyError:  # a letter no map has: name the first outside
                for lt in word:
                    table[lt]
        image, pairs = table.__getitem__, self._pairs
        # the reduced image of each chunk seen, for this call only
        seen: dict[str, Word] = {}
        room = len(word) // (4 * _CHUNK)
        pieces: list[str] = []
        for start in range(0, len(word), _BLOCK):
            text = word[start:start + _BLOCK]
            block: list[str] = []
            for chunk in [text[i:i + _CHUNK]
                          for i in range(0, len(text), _CHUNK)]:
                piece = seen.get(chunk)
                if piece is None:
                    piece = _reduce("".join(map(image, chunk)), pairs)
                    if len(seen) < room:
                        seen[chunk] = piece
                _push(block, piece)
            _push(pieces, "".join(block))
        return "".join(pieces)

    def compose(self, other: "FreeGroupMap") -> "FreeGroupMap":
        """Return self ∘ other (apply ``other`` first)."""
        if other.codomain != self.domain:
            raise InvariantViolation("composition requires matching alphabets")
        return FreeGroupMap(other.domain, self.codomain,
                            tuple(self.apply(w) for w in other.images))


def greedy_nielsen_inverse(fmap: FreeGroupMap) -> Optional[FreeGroupMap]:
    """Invert ``fmap`` by greedy strictly-length-reducing Nielsen moves.

    A semidecision: None means only that no strictly reducing move sequence
    reaches a basis greedily."""
    if len(fmap.domain) != len(fmap.codomain):
        return None
    system: list[Word] = list(fmap.images)
    formal: list[Word] = [char((g, 1)) for g in fmap.domain]
    n = len(system)
    basis = {char((g, 1)) for g in fmap.codomain}

    def moved(words: list[Word], i: int, j: int, side: int, sign: int) -> Word:
        """words[i] multiplied by words[j]^sign on the left (side 0) or
        the right (side 1), reduced."""
        gj = words[j] if sign > 0 else inverse(words[j])
        return multiply(gj, words[i]) if side == 0 else multiply(words[i], gj)

    while not (all(len(w) == 1 for w in system) and {
            char((letter_of(w)[0], 1)) for w in system} == basis):
        if any(not w for w in system):
            return None
        # the largest gain, ties to the least (i, j, side, sign)
        gain, i, j, side, sign = max(
            ((len(system[i]) - len(moved(system, i, j, side, sign)),
              -i, -j, -side, -sign)
             for i in range(n) for j in range(n) if i != j
             for side in (0, 1) for sign in (1, -1)), default=(0,) * 5)
        if gain <= 0:
            return None
        i, j, side, sign = -i, -j, -side, -sign
        system[i] = moved(system, i, j, side, sign)
        formal[i] = moved(formal, i, j, side, sign)

    images_by_name: dict[str, Word] = {}
    for i, w in enumerate(system):
        name, sign = letter_of(w)
        images_by_name[name] = formal[i] if sign > 0 else inverse(formal[i])
    return FreeGroupMap(fmap.codomain, fmap.domain,
                        tuple(images_by_name[g] for g in fmap.codomain))


_ROOT_POWER_BOUND = 40  # outer_equal tries root powers m with |m| up to this


def outer_equal(f: FreeGroupMap, g: FreeGroupMap) -> Optional[Word]:
    """A conjugator ``z`` with ``z f(x) z^-1 = g(x)`` for every generator, or None.

    Exact for conjugators of the form (particular solution) · root^m with
    |m| ≤ ``_ROOT_POWER_BOUND``; the anchor is the generator with the longest
    ``f``-image, whose conjugator coset is searched completely.
    """
    if f.domain != g.domain or f.codomain != g.codomain:
        return None
    pairs = list(zip(f.images, g.images))
    nontrivial = [(w1, w2) for (w1, w2) in pairs if w1 or w2]
    if not nontrivial:
        return ""
    if any((not w1) != (not w2) for (w1, w2) in pairs):
        return None
    w1, w2 = max(nontrivial, key=lambda p: len(p[0]))
    z0 = conjugating_word(w1, w2)
    if z0 is None:
        return None
    root, _ = primitive_root(w1)
    for m in range(_ROOT_POWER_BOUND + 1):
        for mm in ({m, -m} if m else {0}):
            z = multiply(z0, power(root, mm))
            if all(multiply(z, a, inverse(z)) == b for (a, b) in pairs):
                return z
    return None
