"""Braid words, permutations and closure combinatorics."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Permutation:
    """One-line notation; composition is (u * v)(i) = u(v(i)).

    Images are stored 0-indexed: ``images[i]`` is the image of position i.
    Right multiplication by the adjacent transposition s_i swaps the
    arguments i, i+1, i.e. the entries at positions i-1, i (1-indexed i).
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("not a bijection")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @staticmethod
    def transposition(n: int, i: int) -> "Permutation":
        """s_i = (i, i+1), 1-indexed, 1 <= i <= n-1."""
        if not 1 <= i <= n - 1:
            raise ValueError("transposition index out of range")
        im = list(range(n))
        im[i - 1], im[i] = im[i], im[i - 1]
        return Permutation(tuple(im))

    @property
    def n(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[other.images[i]]
                                 for i in range(self.n)))

    def right_s(self, i: int) -> "Permutation":
        """self * s_i (precompose with the transposition)."""
        im = list(self.images)
        im[i - 1], im[i] = im[i], im[i - 1]
        return Permutation(tuple(im))

    def length(self) -> int:
        """Coxeter length = inversion count."""
        inv = 0
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.images[i] > self.images[j]:
                    inv += 1
        return inv

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word in adjacent transpositions (bubble sort)."""
        im = list(self.images)
        word = []
        changed = True
        while changed:
            changed = False
            for i in range(len(im) - 1):
                if im[i] > im[i + 1]:
                    im[i], im[i + 1] = im[i + 1], im[i]
                    word.append(i + 1)
                    changed = True
        # w * s_{i_1} * ... * s_{i_k} = id with each step removing one
        # inversion, so w = s_{i_k} * ... * s_{i_1}: reversed recording order.
        return tuple(reversed(word))

    def cycles(self) -> list[tuple[int, ...]]:
        seen, out = set(), []
        for start in range(self.n):
            if start in seen:
                continue
            cyc, i = [], start
            while i not in seen:
                seen.add(i)
                cyc.append(i + 1)
                i = self.images[i]
            out.append(tuple(cyc))
        return out


@dataclass(frozen=True)
class BraidWord:
    """Word in braid generators: letter i > 0 is sigma_i, i < 0 its inverse."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("need at least one strand")
        for a in self.letters:
            if a == 0:
                raise ValueError("zero letter")
            if abs(a) > self.strands - 1:
                raise ValueError(f"letter {a} out of range for "
                                 f"{self.strands} strands")

    def __len__(self):
        return len(self.letters)

    def writhe(self) -> int:
        return sum(1 if a > 0 else -1 for a in self.letters)

    def mirror(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-a for a in self.letters))

    def reverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(reversed(self.letters)))

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-a for a in reversed(self.letters)))

    def concat(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("strand mismatch")
        return BraidWord(self.strands, self.letters + other.letters)

    def rotate(self, k: int) -> "BraidWord":
        if not self.letters:
            return self
        k %= len(self.letters)
        return BraidWord(self.strands, self.letters[k:] + self.letters[:k])

    def stabilize(self, sign: int = 1) -> "BraidWord":
        """Markov stabilization: append sigma_n^(+-1) on n+1 strands."""
        lifted = BraidWord(self.strands + 1, self.letters)
        extra = self.strands if sign > 0 else -self.strands
        return BraidWord(self.strands + 1, lifted.letters + (extra,))

    def closure_permutation(self) -> Permutation:
        p = Permutation.identity(self.strands)
        for a in self.letters:
            p = p * Permutation.transposition(self.strands, abs(a))
        return p

    def component_count(self) -> int:
        return len(self.closure_permutation().cycles())

    def to_json(self) -> dict:
        return {"strands": self.strands, "letters": list(self.letters)}

    def __str__(self):
        return " ".join(str(a) for a in self.letters) if self.letters else ""


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse whitespace-separated signed generator indices."""
    tokens = text.split()
    letters = []
    for tok in tokens:
        try:
            a = int(tok)
        except ValueError:
            raise ValueError(f"non-integer token {tok!r}") from None
        if a == 0:
            raise ValueError("zero letter")
        letters.append(a)
    if strands is None:
        strands = 1 + max((abs(a) for a in letters), default=0)
    return BraidWord(strands, tuple(letters))


def jm_element(i: int, n: int) -> BraidWord:
    """sigma_i sigma_{i+1} ... sigma_{n-1} sigma_{n-1} ... sigma_{i+1} sigma_i.

    These commute pairwise (checked at the Hecke level in the tests) and
    multiply to the full twist.
    """
    if not 1 <= i <= n - 1:
        raise ValueError("index out of range")
    up = list(range(i, n))
    return BraidWord(n, tuple(up + up[::-1]))


def full_twist(n: int) -> BraidWord:
    if n < 1:
        raise ValueError("need at least one strand")
    word: tuple[int, ...] = ()
    for i in range(1, n):
        word = word + jm_element(i, n).letters
    return BraidWord(n, word)


def jm_power_braid(exponents: list[int], n: int) -> BraidWord:
    """Product of jm_element(i, n)^exponents[i-1], i = 1..n-1."""
    if len(exponents) != n - 1:
        raise ValueError("need one exponent per generator")
    word: tuple[int, ...] = ()
    for i, b in enumerate(exponents, start=1):
        piece = jm_element(i, n)
        if b < 0:
            piece = piece.inverse()
            b = -b
        for _ in range(b):
            word = word + piece.letters
    return BraidWord(n, word)
