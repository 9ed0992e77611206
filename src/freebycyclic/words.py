"""Free-group words over named generators, and word-level group maps.

Text conventions used everywhere in the package:

* a single-character name is written as itself for the forward letter and as
  its uppercase form for the inverse (``"Bab"`` is b⁻¹ab);
* a multi-character name takes a trailing apostrophe for the inverse
  (``e2_1'``) and words over such names are whitespace-separated token
  sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import InputParseError, InvariantViolation

#: A letter is an oriented generator: (name, +1) forward, (name, -1) inverse.
Letter = tuple[str, int]
#: A word is a tuple of letters; the empty tuple is the identity.
Word = tuple[Letter, ...]


def letter(name: str, sign: int = 1) -> Letter:
    if sign not in (1, -1):
        raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
    return (name, sign)


def inverse_letter(lt: Letter) -> Letter:
    return (lt[0], -lt[1])


def inverse(word: Iterable[Letter]) -> Word:
    return tuple((name, -sign) for (name, sign) in reversed(tuple(word)))


def concat(*words: Iterable[Letter]) -> Word:
    out: list[Letter] = []
    for w in words:
        out.extend(w)
    return tuple(out)


def reduce_word(word: Iterable[Letter]) -> Word:
    """Freely reduce: cancel adjacent inverse pairs until none remain."""
    out: list[Letter] = []
    for lt in word:
        if out and out[-1][0] == lt[0] and out[-1][1] == -lt[1]:
            out.pop()
        else:
            out.append(lt)
    return tuple(out)


def power(word: Iterable[Letter], n: int) -> Word:
    w = tuple(word)
    if n < 0:
        w, n = inverse(w), -n
    return reduce_word(concat(*([w] * n)))


# ---------------------------------------------------------------------------
# parsing / formatting


def _parse_token(token: str, universe: frozenset[str]) -> Letter:
    sign = 1
    if token.endswith("'"):
        sign = -sign
        token = token[:-1]
    if token in universe:
        return (token, sign)
    if len(token) == 1 and token != token.lower() and token.lower() in universe:
        return (token.lower(), -sign)
    raise InputParseError(f"unknown generator in word: {token!r}")


def parse_word(text: str, names: Iterable[str]) -> Word:
    """Parse a word over ``names``.

    Whitespace-separated tokens always work.  A compact run such as ``Bab``
    is accepted when each character (case-folded) is a known single-character
    name; a trailing apostrophe inverts the letter it follows.
    """
    universe = frozenset(names)
    text = text.strip()
    if not text or text == "1":
        return ()
    if any(ch.isspace() for ch in text):
        return tuple(_parse_token(tok, universe) for tok in text.split())
    # A lone multi-character token parses as a single letter.
    bare = text[:-1] if text.endswith("'") else text
    if bare in universe and len(bare) > 1:
        return (_parse_token(text, universe),)
    out: list[Letter] = []
    i = 0
    while i < len(text):
        ch = text[i]
        name, sign = ch, 1
        if ch != ch.lower():
            name, sign = ch.lower(), -1
        if name not in universe:
            raise InputParseError(f"unknown generator in word: {ch!r}")
        if i + 1 < len(text) and text[i + 1] == "'":
            sign, i = -sign, i + 1
        out.append((name, sign))
        i += 1
    return tuple(out)


def format_word(word: Iterable[Letter]) -> str:
    """Inverse of :func:`parse_word`, choosing compact form when possible."""
    word = tuple(word)
    if not word:
        return ""
    compact = all(len(name) == 1 and name == name.lower() for name, _ in word)
    if compact:
        return "".join(name if sign > 0 else name.upper() for name, sign in word)
    return " ".join(name if sign > 0 else name + "'" for name, sign in word)


# ---------------------------------------------------------------------------
# conjugacy


def cyclic_reduce(word: Iterable[Letter]) -> tuple[Word, Word]:
    """Return ``(core, u)`` with ``word = u core u^-1`` and core cyclically reduced."""
    w = reduce_word(word)
    k = 0
    while 2 * k + 2 <= len(w) and w[k] == inverse_letter(w[-1 - k]):
        k += 1
    return w[k:len(w) - k], w[:k]


def cyclic_rotations(core: Word) -> Iterator[tuple[int, Word]]:
    for j in range(max(1, len(core))):
        yield j, core[j:] + core[:j]


def conjugating_word(w1: Iterable[Letter], w2: Iterable[Letter]) -> Optional[Word]:
    """A word ``z`` with ``z w1 z^-1 = w2`` (reduced), or None."""
    c1, u1 = cyclic_reduce(w1)
    c2, u2 = cyclic_reduce(w2)
    if len(c1) != len(c2):
        return None
    for j, rot in cyclic_rotations(c1):
        if rot == c2:
            return reduce_word(concat(u2, inverse(c1[:j]), inverse(u1)))
    return None


def primitive_root(word: Iterable[Letter]) -> tuple[Word, int]:
    """For nonempty ``word = u c u^-1``: smallest ``r`` with ``c = r^k``; returns
    (``u r u^-1`` reduced, k)."""
    core, u = cyclic_reduce(word)
    if not core:
        raise InvariantViolation("the identity has no primitive root")
    n = len(core)
    for d in range(1, n + 1):
        if n % d:
            continue
        if core == core[:d] * (n // d):
            return reduce_word(concat(u, core[:d], inverse(u))), n // d
    raise AssertionError("unreachable")


def centralizer_generator(word: Iterable[Letter]) -> Word:
    """Generator of the centralizer of a nonempty element."""
    root, _ = primitive_root(word)
    return root


# ---------------------------------------------------------------------------
# the substitution kernel: a word as a string of one code point per letter


class _Alphabet:
    """One code point per oriented letter over ``names``, in sorted letter
    order from 0, skipping the surrogate block.

    An alphabet of at most 256 letters stays below 256, where CPython keeps
    every one-character string cached, so decoding a text makes no string
    per letter.
    """

    def __init__(self, names: Iterable[str]) -> None:
        letters = sorted((name, sign) for name in set(names) for sign in (-1, 1))
        points = (c for c in count() if not 0xD800 <= c <= 0xDFFF)
        self.char = {lt: chr(c) for lt, c in zip(letters, points)}
        self.letter = {ch: lt for lt, ch in self.char.items()}

    def encode(self, word: Iterable[Letter]) -> str:
        return "".join(map(self.char.__getitem__, word))

    def decode(self, text: str) -> Word:
        return tuple(map(self.letter.__getitem__, text))

    def cancelling_pairs(self, text: str) -> tuple[str, ...]:
        """The pairs u u⁻¹ and u⁻¹ u for every generator that occurs in ``text``."""
        names = sorted({self.letter[ch][0] for ch in set(text)})
        char = self.char
        return tuple(char[(name, sign)] + char[(name, -sign)]
                     for name in names for sign in (1, -1))


def _reduced_image(letters: Iterable, image_text: Mapping[object, str],
                   pairs: tuple[str, ...]) -> str:
    """The freely reduced product of ``image_text[x]`` over ``letters``.

    ``letters`` is a word or the text of one, keyed accordingly; the images
    are texts over one alphabet, and ``pairs`` must hold the cancelling
    pairs of every generator they contain.  The product is concatenated in
    C and reduced by deleting the pairs until a pass over them deletes
    nothing.  Free reduction is confluent, so the order of the deletions
    does not change the result.  Each pass peels at least one layer off
    every cancellation, so the passes number one more than the deepest
    cancellation; for a reduced word under a map with reduced images that
    depth is at most the map's bounded cancellation constant (Cooper 1987).
    """
    text = "".join(map(image_text.__getitem__, letters))
    size = -1
    while size != len(text):
        size = len(text)
        for pair in pairs:
            text = text.replace(pair, "")
    return text


# ---------------------------------------------------------------------------
# group maps


@dataclass
class FreeGroupMap:
    """A homomorphism between finite-rank free groups, given on generators.

    ``domain`` and ``codomain`` are generator name tuples; ``images[i]`` is
    the reduced image word (over the codomain alphabet) of ``domain[i]``.
    ``provenance`` optionally records how the map was produced (for instance
    the spanning tree and basepoint used to read it off a marked graph).
    """

    domain: tuple[str, ...]
    codomain: tuple[str, ...]
    images: tuple[Word, ...]
    provenance: Optional[dict] = None
    #: "automorphism (inverse computed)" / "endomorphism, invertibility unverified"
    invertibility: str = "endomorphism, invertibility unverified"

    def __post_init__(self) -> None:
        if len(self.images) != len(self.domain):
            raise InvariantViolation("one image word per domain generator required")
        cod = frozenset(self.codomain)
        self.images = tuple(reduce_word(w) for w in self.images)
        for w in self.images:
            for name, _ in w:
                if name not in cod:
                    raise InvariantViolation(f"image letter {name!r} not in codomain")
        self._index = {g: i for i, g in enumerate(self.domain)}
        # each generator's image in both orientations as codomain text, and
        # the cancelling pairs of the generators those images contain
        self._alphabet = _Alphabet(self.codomain)
        self._image_text: dict[Letter, str] = {}
        for g, img in zip(self.domain, self.images):
            self._image_text[(g, 1)] = self._alphabet.encode(img)
            self._image_text[(g, -1)] = self._alphabet.encode(inverse(img))
        self._pairs = self._alphabet.cancelling_pairs(
            "".join(self._image_text.values()))

    @classmethod
    def identity(cls, gens: Sequence[str]) -> "FreeGroupMap":
        gens = tuple(gens)
        return cls(gens, gens, tuple(((g, 1),) for g in gens),
                   invertibility="automorphism (inverse computed)")

    @classmethod
    def from_strings(cls, gens: Sequence[str], images: Mapping[str, str],
                     codomain: Optional[Sequence[str]] = None) -> "FreeGroupMap":
        gens = tuple(gens)
        cod = tuple(codomain) if codomain is not None else gens
        return cls(gens, cod, tuple(parse_word(images[g], cod) for g in gens))

    def image(self, name: str) -> Word:
        return self.images[self._index[name]]

    def apply(self, word: Iterable[Letter]) -> Word:
        """Freely reduced product of the images of the letters of ``word``,
        which may itself be unreduced."""
        return self._alphabet.decode(
            _reduced_image(word, self._image_text, self._pairs))

    def __call__(self, word: Iterable[Letter]) -> Word:
        return self.apply(word)

    def compose(self, other: "FreeGroupMap") -> "FreeGroupMap":
        """Return self ∘ other (apply ``other`` first)."""
        if other.codomain != self.domain:
            raise InvariantViolation("composition requires matching alphabets")
        return FreeGroupMap(other.domain, self.codomain,
                            tuple(self.apply(w) for w in other.images))


def greedy_nielsen_inverse(fmap: FreeGroupMap) -> Optional[FreeGroupMap]:
    """Invert ``fmap`` by greedy strictly-length-reducing Nielsen moves.

    This is a semidecision: a return of None does not prove ``fmap`` is not
    an automorphism, only that no strictly reducing move sequence reaches a
    basis greedily.  Callers report "endomorphism, invertibility unverified"
    in that case.
    """
    if len(fmap.domain) != len(fmap.codomain):
        return None
    system: list[Word] = [reduce_word(w) for w in fmap.images]
    formal: list[Word] = [((g, 1),) for g in fmap.domain]
    n = len(system)

    def at_basis() -> bool:
        if any(len(w) != 1 for w in system):
            return False
        names = {w[0][0] for w in system}
        return names == set(fmap.codomain)

    while not at_basis():
        if any(not w for w in system):
            return None
        best: Optional[tuple[int, int, int, int, int]] = None  # (gain, i, j, side, sign)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for side in (0, 1):  # 0: left multiply, 1: right multiply
                    for sign in (1, -1):
                        gj = system[j] if sign > 0 else inverse(system[j])
                        cand = concat(gj, system[i]) if side == 0 else concat(system[i], gj)
                        gain = len(system[i]) - len(reduce_word(cand))
                        if gain > 0:
                            key = (gain, -i, -j, -side, -sign)
                            if best is None or key > (best[0], -best[1], -best[2], -best[3], -best[4]):
                                best = (gain, i, j, side, sign)
        if best is None:
            return None
        _, i, j, side, sign = best
        gj = system[j] if sign > 0 else inverse(system[j])
        pj = formal[j] if sign > 0 else inverse(formal[j])
        if side == 0:
            system[i] = reduce_word(concat(gj, system[i]))
            formal[i] = reduce_word(concat(pj, formal[i]))
        else:
            system[i] = reduce_word(concat(system[i], gj))
            formal[i] = reduce_word(concat(formal[i], pj))

    images_by_name: dict[str, Word] = {}
    for i, w in enumerate(system):
        name, sign = w[0]
        if name in images_by_name:
            return None
        images_by_name[name] = formal[i] if sign > 0 else inverse(formal[i])
    return FreeGroupMap(fmap.codomain, fmap.domain,
                        tuple(images_by_name[g] for g in fmap.codomain),
                        invertibility="automorphism (inverse computed)")


_ROOT_POWER_BOUND = 40  # outer_equal tries root powers m with |m| up to this


def outer_equal(f: FreeGroupMap, g: FreeGroupMap) -> Optional[Word]:
    """A conjugator ``z`` with ``z f(x) z^-1 = g(x)`` for every generator, or None.

    Exact for conjugators of the form (particular solution) · root^m with
    |m| ≤ ``_ROOT_POWER_BOUND``; the anchor is the generator with the longest
    ``f``-image, whose conjugator coset is searched completely.
    """
    if f.domain != g.domain or f.codomain != g.codomain:
        return None
    pairs = [(reduce_word(f.image(x)), reduce_word(g.image(x))) for x in f.domain]
    nontrivial = [(w1, w2) for (w1, w2) in pairs if w1 or w2]
    if not nontrivial:
        return ()
    if any((not w1) != (not w2) for (w1, w2) in pairs):
        return None
    anchor = max(nontrivial, key=lambda p: len(p[0]))
    w1, w2 = anchor
    z0 = conjugating_word(w1, w2)
    if z0 is None:
        return None
    root = centralizer_generator(w1)

    def check(z: Word) -> bool:
        zi = inverse(z)
        return all(reduce_word(concat(z, a, zi)) == b for (a, b) in pairs)

    for m in range(_ROOT_POWER_BOUND + 1):
        for mm in ({m, -m} if m else {0}):
            z = reduce_word(concat(z0, power(root, mm)))
            if check(z):
                return z
    return None
