"""Genus-g surface translation groups and words in their generators.

The group of genus g has generators a_1, b_1, ..., a_g, b_g (indexed 1..2g,
odd indices are a's, even are b's) and the single relator

    [a_1, b_1] [a_2, b_2] ... [a_g, b_g]

of length 4g.  Words are flat sequences of (generator index, exponent) with
exponent +-1; they are NOT freely reduced on construction -- reduction is an
explicit, separate pass (`free_reduce`) so that callers control when
cancellation happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SurfaceGroup",
    "Word",
    "make_surface_group",
    "free_reduce",
    "abelianize",
    "evaluate_word",
]


@dataclass(frozen=True)
class Word:
    """A word in surface-group generators: ((index, exp), ...), exp = +-1."""

    letters: tuple = ()

    def __post_init__(self):
        letters = tuple((int(i), int(e)) for i, e in self.letters)
        for i, e in letters:
            if i < 1:
                raise ValueError(f"generator index must be >= 1, got {i}")
            if e not in (-1, 1):
                raise ValueError(f"exponent must be +1 or -1, got {e}")
        object.__setattr__(self, "letters", letters)

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((i, -e) for i, e in reversed(self.letters)))


@dataclass(frozen=True)
class SurfaceGroup:
    """The surface translation group of the stated genus."""

    genus: int
    generator_names: tuple = field(init=False)

    def __post_init__(self):
        if int(self.genus) < 1:
            raise ValueError(f"genus must be >= 1, got {self.genus}")
        object.__setattr__(self, "genus", int(self.genus))
        names = []
        for i in range(1, self.genus + 1):
            names.extend([f"a{i}", f"b{i}"])
        object.__setattr__(self, "generator_names", tuple(names))

    @property
    def n_generators(self) -> int:
        return 2 * self.genus

    def relator(self) -> Word:
        """The defining relator, the product of the g commutators [a_i, b_i]."""
        letters = []
        for i in range(self.genus):
            a, b = 2 * i + 1, 2 * i + 2
            letters.extend([(a, 1), (b, 1), (a, -1), (b, -1)])
        return Word(tuple(letters))

    def check_word(self, word: Word) -> None:
        for i, _ in word.letters:
            if i > self.n_generators:
                raise ValueError(
                    f"generator index {i} out of range for genus {self.genus} "
                    f"(have {self.n_generators} generators)"
                )


def make_surface_group(genus: int) -> SurfaceGroup:
    """Construct the genus-`genus` surface group (genus >= 1)."""
    return SurfaceGroup(genus)


def free_reduce(word: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain (normalization pass)."""
    stack = []
    for letter in word.letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return Word(tuple(stack))


def abelianize(word: Word, group) -> tuple:
    """Exponent-sum image of `word` in Z^{2g}, as a tuple of ints.

    `group` may also be a plain genus.  The relator abelianizes to zero, so
    this factors through the group.
    """
    if not isinstance(group, SurfaceGroup):
        group = make_surface_group(int(group))
    group.check_word(word)
    image = [0] * group.n_generators
    for i, e in word.letters:
        image[i - 1] += e
    return tuple(image)


def _walk(word: Word, targets, sources) -> tuple:
    """Walk `word` from every sheet at once; (2g, n) arrays give the sheet moves.

    targets[i, s] is the sheet reached from s along generator i+1 and sources
    its inverse.  Returns (steps, end): per letter (gen, exp, crossed), where
    crossed[s] is the sheet whose forward edge the walk from s crosses (it
    starts there when exp = +1 and ends there when exp = -1), and end[s] the
    sheet the walk from s reaches.
    """
    sheets, steps = np.arange(targets.shape[-1]), []
    for gen, exp in word.letters:
        if exp == 1:
            steps.append((gen, exp, sheets))
            sheets = targets[gen - 1][sheets]
        else:
            sheets = sources[gen - 1][sheets]
            steps.append((gen, exp, sheets))
    return steps, sheets


def evaluate_word(word: Word, assignment) -> np.ndarray:
    """Evaluate `word` under generator -> matrix, as an ordered product.

    `assignment` is a sequence of square matrices, entry j giving the image of
    generator j+1.  Inverse letters use explicit matrix inverses; a singular
    assigned matrix raises ValueError.  The empty word gives the identity.
    """
    mats = [np.asarray(m, dtype=complex) for m in assignment]
    if not mats:
        raise ValueError("assignment must contain at least one matrix")
    n = mats[0].shape[0]
    for m in mats:
        if m.ndim != 2 or m.shape != (n, n):
            raise ValueError("assignment matrices must all be square of one size")
    inverses: dict = {}
    result = np.eye(n, dtype=complex)
    for i, e in word.letters:
        if i > len(mats):
            raise ValueError(f"word uses generator {i} but only {len(mats)} matrices given")
        if e == 1:
            factor = mats[i - 1]
        else:
            if i not in inverses:
                try:
                    inverses[i] = np.linalg.inv(mats[i - 1])
                except np.linalg.LinAlgError as exc:
                    raise ValueError(f"matrix assigned to generator {i} is singular") from exc
            factor = inverses[i]
        result = result @ factor
    return result
