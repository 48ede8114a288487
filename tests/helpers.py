"""Shared test utilities: fixture lookup and seeded random soft sets.

The random generators draw grades from the one-decimal grid so equal
components (the tie cases) come up constantly, and they reject triples that
break the validity bounds rather than clamping, so the sampled distribution
stays honest.  The ``fine_*`` generators do the same on the four-decimal
grid and over universes of hundreds of elements.
"""

import random
from pathlib import Path

from inss import GRADE_SCALE, Grade, GradeTriple, Parameter, SoftSet

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

PARAM_POOL = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")

ONE_DECIMAL = tuple(k * 1000 for k in range(11))

FOUR_DECIMAL = tuple(range(GRADE_SCALE + 1))


# Frames a caller may have in use already when it calls the library.
EXTRA_FRAMES = 300


def fixture(name: str) -> Path:
    return FIXTURE_DIR / name


def beneath(frames: int, call, *args):
    """``call(*args)``, made ``frames`` Python frames deeper than this call."""
    return beneath(frames - 1, call, *args) if frames else call(*args)


def random_triple(rng: random.Random) -> GradeTriple:
    while True:
        t = rng.choice(ONE_DECIMAL)
        i = rng.choice(ONE_DECIMAL)
        f = rng.choice(ONE_DECIMAL)
        if min(t, f) <= 5000 and min(t, i) <= 5000 and min(f, i) <= 5000:
            return GradeTriple(Grade(t), Grade(i), Grade(f))


def random_universe(rng: random.Random, max_elements: int = 8) -> list[str]:
    return [f"e{k}" for k in range(1, rng.randint(1, max_elements) + 1)]


def soft_set_over(rng: random.Random, universe, parameters) -> SoftSet:
    family = {p: {e: random_triple(rng) for e in universe} for p in parameters}
    return SoftSet(universe, parameters, family)


def random_soft_set(
    rng: random.Random, universe=None, max_elements: int = 8, max_parameters: int = 6
) -> SoftSet:
    if universe is None:
        universe = random_universe(rng, max_elements)
    names = rng.sample(PARAM_POOL, rng.randint(1, max_parameters))
    return soft_set_over(rng, universe, [Parameter(n) for n in names])


def overlapping_trio(rng: random.Random, max_elements: int = 6):
    """Three sets on one universe; parameter sets differ but share one core member."""
    universe = random_universe(rng, max_elements)
    core = rng.choice(PARAM_POOL)
    sets = []
    for _ in range(3):
        names = [core] + [n for n in rng.sample(PARAM_POOL, rng.randrange(4)) if n != core]
        rng.shuffle(names)
        sets.append(soft_set_over(rng, universe, [Parameter(n) for n in names]))
    return tuple(sets)


def shared_params_trio(rng: random.Random, max_elements: int = 6, max_parameters: int = 4):
    """Three sets on one universe over the same parameters, orders shuffled."""
    universe = random_universe(rng, max_elements)
    names = rng.sample(PARAM_POOL, rng.randint(1, max_parameters))
    sets = []
    for _ in range(3):
        shuffled = list(names)
        rng.shuffle(shuffled)
        sets.append(soft_set_over(rng, universe, [Parameter(n) for n in shuffled]))
    return tuple(sets)


def fine_triple(rng: random.Random, pool=FOUR_DECIMAL) -> GradeTriple:
    while True:
        t, i, f = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if min(t, f) <= 5000 and min(t, i) <= 5000 and min(f, i) <= 5000:
            return GradeTriple(Grade(t), Grade(i), Grade(f))


def large_universe(rng: random.Random, min_elements: int = 100, max_elements: int = 400) -> list[str]:
    return [f"e{k}" for k in range(1, rng.randint(min_elements, max_elements) + 1)]


def fine_soft_set(rng: random.Random, universe, parameters, pool=FOUR_DECIMAL) -> SoftSet:
    """Grades from ``pool``; pass a small sample of FOUR_DECIMAL to get ties."""
    family = {p: {e: fine_triple(rng, pool) for e in universe} for p in parameters}
    return SoftSet(universe, parameters, family)
