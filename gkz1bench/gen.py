"""Seeded problem generator for the gkz1 benchmark.

Writes the problem files of one workload and a manifest that lists, for each
problem, the CLI command to run, the expected exit code and what the output
checks need to know.  Imports nothing from gkz1: the relation, volume side
sums and resonance of every corpus configuration are recomputed here with
plain rational arithmetic, so a change to the program cannot change its own
inputs or the expectations they are checked against.

    python3 gkz1bench/gen.py --workload corpus --seed 7 --out /tmp/problems

The same seed gives byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

WORKLOADS = ("deep-window", "high-order", "corpus")

TRIANGLE = [[1, 0], [1, 2], [1, 1]]
QUINTIC = [
    [1, 1, 0, 0, 0],
    [1, 0, 1, 0, 0],
    [1, 0, 0, 1, 0],
    [1, 0, 0, 0, 1],
    [1, -1, -1, -1, -1],
    [1, 0, 0, 0, 0],
]
GAUSS = [[1, 1, -1], [0, 0, 1], [1, 0, 0], [0, 1, 0]]

# The corpus draws from fixed pools, so that every output it can produce has
# a digest pinned in digests.json; the run seed picks and orders the sample.
POOL_SEED = 20260809
POOL_SIZE = 600
REFUSAL_POOL_SIZE = 60
CORPUS_SIZE = 200
REFUSALS_PER_KIND = 5
CORPUS_WINDOW = (-3, 5)
MAX_ENTRY = 4
MAX_D = 4


def _problem(pid, command, points, beta, window, expect, args=()):
    data = {"A": points, "beta": [str(Fraction(b)) for b in beta]}
    if window is not None:
        data["window"] = list(window)
    return {
        "id": pid,
        "command": command,
        "args": list(args),
        "data": data,
        "expect": expect,
    }


def deep_window_problems():
    problems = []
    for hi in (25, 50, 100):
        problems.append(_problem(
            f"triangle-{hi}", "solve", TRIANGLE, [10, 8], (0, hi),
            {"exit": 0, "oracle": "triangle", "total": 2},
        ))
    for hi in (10, 20, 30):
        problems.append(_problem(
            f"quintic-{hi}", "solve", QUINTIC, [-1, 0, 0, 0, 0], (0, hi),
            {"exit": 0, "oracle": "quintic", "total": 5},
        ))
    problems.append(_problem(
        "gauss-log", "solve", GAUSS, ["-1/2", "-1/3", 1], (-4, 60),
        {"exit": 0, "oracle": "gauss", "total": 2}, args=("--r", "1"),
    ))
    return problems


def high_order_problems():
    return [
        _problem(
            "pencil-150", "verify", [[1], [150]], ["1/7"], (-2, 2),
            {"exit": 0, "oracle": "certified", "total": 150},
        ),
        _problem(
            "triangle-80", "verify", [[1, 0], [1, 80], [1, 1]], ["1/3", "2/5"],
            (0, 3), {"exit": 0, "oracle": "certified", "total": 80},
        ),
        _problem(
            "pencil-20000", "exponents", [[1], [20000]], ["1/7"], None,
            {"exit": 0, "oracle": "pencil", "n": 20000, "beta": "1/7"},
        ),
    ]


# --- independent rational linear algebra -------------------------------


def _rank(vectors) -> int:
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _primitive(entries) -> list[int]:
    g = 0
    for e in entries:
        g = gcd(g, e)
    out = [e // g for e in entries]
    return [-e for e in out] if out[0] < 0 else out


def _combination(weights, columns) -> list[Fraction]:
    dim = len(columns[0])
    return [sum(Fraction(w) * col[k] for w, col in zip(weights, columns)) for k in range(dim)]


def _draw_columns(rng, allow_zero_weight=False):
    """n-1 random base points plus one small rational combination of them.

    Returns the columns and the (unnormalized) relation they satisfy, or
    None when the draw breaks a size limit or the base is dependent.
    """
    n = rng.choice([2, 3, 3, 4, 4, 5])  # n - 1 independent points need d >= n - 1
    d = rng.randint(max(1, n - 1), MAX_D)
    base = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n - 1)]
    choices = [-2, -1, 0, 1, 2] if allow_zero_weight else [-2, -1, 1, 2]
    weights = [rng.choice(choices) for _ in range(n - 1)]
    divisor = rng.choice([1, 1, 1, 2, 3])
    sums = [sum(w * p[j] for w, p in zip(weights, base)) for j in range(d)]
    if any(s % divisor for s in sums):
        return None
    columns = base + [[s // divisor for s in sums]]
    if any(abs(x) > MAX_ENTRY for col in columns for x in col):
        return None
    if _rank(base) != n - 1:
        return None
    return columns, weights + [-divisor]


def valid_config(rng):
    """A configuration every (n-1)-subset of which is independent.

    The base is independent, so the relations form a rank-one lattice, and
    all relation entries are nonzero, so no (n-1)-subset is dependent.
    """
    while True:
        drawn = _draw_columns(rng)
        if drawn is not None:
            columns, relation = drawn
            return columns, _primitive(relation)


def dependent_config(rng):
    """Rank n-1 but some (n-1)-subset dependent: a zero relation entry."""
    while True:
        drawn = _draw_columns(rng, allow_zero_weight=True)
        if drawn is None:
            continue
        columns, relation = drawn
        if len(columns) >= 3 and 0 in relation and any(relation[:-1]):
            return columns


def _resonance_values(relation, weights):
    """Facet functional values h_ij(beta) for beta = sum weights * columns.

    h_ij vanishes on every column but i and j and takes the primitive values
    |rel_j|/g and rel_i/g there, g = gcd(rel_i, |rel_j|).
    """
    for i, ri in enumerate(relation):
        for j, rj in enumerate(relation):
            if ri > 0 and rj < 0:
                g = gcd(ri, -rj)
                yield (Fraction(weights[i]) * -rj + Fraction(weights[j]) * ri) / g


def nonresonant_weights(rng, relation):
    while True:
        q = rng.choice([5, 7, 11, 97])
        if rng.random() < 0.5:
            weights = [Fraction(rng.randint(-2 * q, 2 * q), q) for _ in relation]
        else:
            # integral weights on the positive side give genuine log towers
            weights = [
                Fraction(rng.randint(-3, 3)) if e > 0
                else Fraction(rng.randint(-2 * q, 2 * q), q)
                for e in relation
            ]
        if all(v.denominator != 1 for v in _resonance_values(relation, weights)):
            return weights


def corpus_pool():
    """The fixed pools the corpus draws from: valid, dependent, resonant."""
    rng = random.Random(POOL_SEED)
    valid = []
    for index in range(POOL_SIZE):
        columns, relation = valid_config(rng)
        beta = _combination(nonresonant_weights(rng, relation), columns)
        valid.append((f"config-{index:03d}", columns, relation, beta))
    dependent = []
    for index in range(REFUSAL_POOL_SIZE):
        columns = dependent_config(rng)
        beta = _combination([1] * len(columns), columns)
        dependent.append((f"dependent-{index:02d}", columns, beta))
    resonant = []
    while len(resonant) < REFUSAL_POOL_SIZE:
        columns, relation = valid_config(rng)
        weights = [rng.randint(-3, 3) for _ in columns]
        # integral weights make every facet value integral; a relation with
        # one sign only has no facet through the origin and no resonance
        if any(v.denominator == 1 for v in _resonance_values(relation, weights)):
            beta = _combination(weights, columns)
            resonant.append((f"resonant-{len(resonant):02d}", columns, beta))
    return valid, dependent, resonant


def corpus_groups():
    """Every corpus invocation, grouped: four commands per valid configuration,
    one refused command per dependent or resonant one."""
    valid, dependent, resonant = corpus_pool()
    configs = []
    for pid, columns, relation, beta in valid:
        positive = sum(e for e in relation if e > 0)
        negative = -sum(e for e in relation if e < 0)
        facts = {"relation": relation, "positive_sum": positive, "volume": max(positive, negative)}
        group = []
        for command in ("analyze", "exponents", "verify", "classify"):
            expect = dict(facts, exit=0, oracle=f"corpus-{command}")
            if command == "verify":
                expect["total"] = positive
            if command == "classify" and positive < negative:
                expect = {"exit": 3}  # irregular: classify refuses
            group.append(_problem(f"{pid}-{command}", command, columns, beta, CORPUS_WINDOW, expect))
        configs.append(group)
    dependents = [
        [_problem(f"{pid}-analyze", "analyze", columns, beta, None, {"exit": 2})]
        for pid, columns, beta in dependent
    ]
    resonants = [
        [_problem(f"{pid}-classify", "classify", columns, beta, None, {"exit": 3})]
        for pid, columns, beta in resonant
    ]
    return configs, dependents, resonants


def corpus_problems(seed: int):
    configs, dependents, resonants = corpus_groups()
    rng = random.Random(seed)
    groups = (
        rng.sample(configs, CORPUS_SIZE)
        + rng.sample(dependents, REFUSALS_PER_KIND)
        + rng.sample(resonants, REFUSALS_PER_KIND)
    )
    problems = [p for group in groups for p in group]
    rng.shuffle(problems)
    return problems


def every_problem():
    """All invocations any seed can produce, for pinning their digests."""
    return deep_window_problems() + high_order_problems() + [
        p for groups in corpus_groups() for group in groups for p in group
    ]


def problems_for(workload: str, seed: int):
    if workload == "corpus":
        return corpus_problems(seed)
    problems = deep_window_problems() if workload == "deep-window" else high_order_problems()
    random.Random(seed).shuffle(problems)
    return problems


def input_text(data: dict) -> str:
    return json.dumps(data, sort_keys=True) + "\n"


def write_workload(workload: str, seed: int, out: Path) -> Path:
    """Write one file per distinct problem input and the manifest.

    Problems that share an input (the corpus runs four commands on each
    configuration) share its file.  Returns the manifest path.
    """
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    written = {}
    for problem in problems_for(workload, seed):
        text = input_text(problem.pop("data"))
        if text not in written:
            written[text] = f"input-{len(written):04d}.json"
            (out / written[text]).write_text(text)
        problem["file"] = written[text]
        manifest.append(problem)
    path = out / "manifest.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "problems": manifest}, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    print(write_workload(args.workload, args.seed, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
