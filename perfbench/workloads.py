"""The benchmark's workloads: which CLI invocations each one makes.

Four workloads stress different layers of `butterfly_tree`:

* ``expand``  -- breadth-first expansion and the JSONL/CSV writers on small
  integers; the ``--max-qc`` half is where wasted child builds show.
* ``verify``  -- the per-node invariant battery, whose word replay dominates.
* ``views``   -- skeleton geometry and SVG, Wannier lines, the Apollonian
  correspondence search and the Pythagorean oracle.
* ``deep``    -- the bignum regime: three random valid words of 10^2, 10^3
  and 10^4 letters; `scaling` takes each whole word (q_c ~11 000 bits),
  `node` and `chain` its first 3 000 letters.

Outputs of ``expand`` and ``views`` must match, byte for byte, the SHA-256
digests captured from the library before any optimisation (GOLDEN below).
The seed only drives the ``deep`` word draw; the program sees the words.
"""

from __future__ import annotations

import random
from typing import NamedTuple

WORKLOADS = ("expand", "verify", "views", "deep")

# The six letters that make babies, and the two chain (tail) letters.
BABY_TOKENS = ("CL", "CR", "UL", "UR", "DL", "DR")


class Sizes(NamedTuple):
    """Every size knob of the workloads; FULL is the benchmark, TINY the smoke test."""

    jsonl_depth: int
    expand_depth: int
    expand_cap: int
    expand_max_qc: int
    verify_depth: int
    verify_cap: int
    render_depth: int
    render_cap: int
    wannier_qmax: int
    oracle_cmax: int
    deep_lengths: tuple[int, ...]
    replay_max: int
    chain_steps: int
    cf_terms: int
    super_orbit_depth: int


FULL = Sizes(jsonl_depth=5, expand_depth=6, expand_cap=2, expand_max_qc=100,
             verify_depth=4, verify_cap=6,
             render_depth=4, render_cap=2, wannier_qmax=60, oracle_cmax=1000,
             deep_lengths=(100, 1000, 10000), replay_max=3000, chain_steps=50, cf_terms=8,
             super_orbit_depth=6)

TINY = Sizes(jsonl_depth=3, expand_depth=3, expand_cap=2, expand_max_qc=30,
             verify_depth=3, verify_cap=2,
             render_depth=2, render_cap=1, wannier_qmax=10, oracle_cmax=50,
             deep_lengths=(10, 20, 30), replay_max=25, chain_steps=5, cf_terms=8,
             super_orbit_depth=3)

# argv (space-joined) -> (sha256 of stdout, stdout bytes, workload items).
# Captured from the library as first benchmarked; any refactor must keep
# these bytes.  Items: records written, SVG cells, Wannier lines, the five
# correspondence steps, or the one oracle row.
GOLDEN = {
    "node --word=":
        ("d9e4d866f2d6f8975f6eaf79b6f560ddd4c951c33ed12ab59c0b896b85b45733", 171, 1),
    "expand --depth 5 --chain-cap 2":
        ("aa5969e953da5c35591c8b7eb40ddcb3ecb16f0f547cde3de3e7f49a322dfe52", 2865798, 16723),
    "expand --depth 6 --chain-cap 2 --max-qc 100 --format csv":
        ("ab6a932330ad2d6cf1f2a9339cf08c6c8408172e8dc54dc00165859025ceefc4", 743937, 13311),
    "render --depth 4 --chain-cap 2":
        ("ea52fc942b28f7d099c56fa1ad415645d7831a66f079d9c5d6413469dfaff70b", 2291788, 2395),
    "wannier --qmax 60":
        ("8f9a428f2598dfc77921146c14bc87db3a4cb7722019d4781b13445ee7d40620", 2208858, 43129),
    "apollonian --correspondence":
        ("77cc222d03a0a8e7738a39b929ad7ac60300ca08e3118f5608851ce21e459365", 948, 5),
    "pyth --oracle-cmax 1000":
        ("80ba6998a0484b963985fa322075b9ca177e99a7c06afe2d3e63ecfbf8b97b38", 68, 1),
    "expand --depth 3 --chain-cap 2":
        ("cf41db8743d1bdda93625615c5c33d1bbceff16a088993487072908fe85da235", 54960, 343),
    "expand --depth 3 --chain-cap 2 --max-qc 30 --format csv":
        ("b28b2724eb962a219f000b7396d0351f1f5090edfb09dabcef86562b1988cc4e", 13264, 295),
    "render --depth 2 --chain-cap 1":
        ("7ba65b7b3ce3dd7a8c763f3fd1fdc655785062877c723977402d1ec9c68c697d", 46196, 49),
    "wannier --qmax 10":
        ("b89ff415fc5322263088a83fa52b88a45f4d5fa45369ce1fa87038a756a27c56", 8858, 185),
    "pyth --oracle-cmax 50":
        ("edec99eb3f5a829e6ec80b4e5d39e6cb9107da3a619cc5c7b0d11892ea040ebe", 62, 1),
}

# verify argv -> node count it must report.
VERIFY_COUNTS = {
    "verify --depth 4 --chain-cap 6": 2401,
    "verify --depth 3 --chain-cap 2": 343,
}

# The no-work invocation timed as set-up: it prints the root record.
SETUP_ARGV = ("node", "--word=")


class Invocation(NamedTuple):
    """One CLI call: its arguments, the items it completes and how to check it.

    check is "digest" (GOLDEN bytes), "verify" (the all-invariants line) or,
    for deep words, "node", "chain" or "scaling" (integer replay).
    """

    argv: tuple[str, ...]
    items: int
    check: str
    word: str = ""
    steps: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def label(self) -> str:
        """Short name for reports (deep words are shown by length)."""
        if self.word:
            return f"{self.argv[0]} <{self.word.count('.') + 1}-letter word>"
        return self.key


def draw_word(rng: random.Random, length: int) -> str:
    """A valid word: each letter uniform over the six babies plus the tail letter.

    The tail letter exists when q_R != q_L and points to the larger
    denominator; only the 2x2 action on (q_R, q_L) is needed to track it.
    """
    q_r, q_l = 1, 1
    letters = []
    for _ in range(length):
        options = list(BABY_TOKENS)
        if q_r > q_l:
            options.append("TR")
        elif q_l > q_r:
            options.append("TL")
        token = rng.choice(options)
        q_r, q_l = _STEP_2X2[token](q_r, q_l)
        letters.append(token)
    return ".".join(letters)


# The (q_R, q_L) action of each letter: the top-left 2x2 block of its 4x4
# matrix.  Tests compare this table with generators.canonical_matrices.
_STEP_2X2 = {
    "CL": lambda r, l: (r + 2 * l, l),
    "CR": lambda r, l: (r, 2 * r + l),
    "UL": lambda r, l: (r + l, r + 2 * l),
    "UR": lambda r, l: (2 * r + l, r + l),
    "DL": lambda r, l: (r + l, r + 2 * l),
    "DR": lambda r, l: (2 * r + l, r + l),
    "TL": lambda r, l: (l, 2 * l - r),
    "TR": lambda r, l: (2 * r - l, r),
}


def deep_words(seed: int, sizes: Sizes = FULL) -> list[str]:
    rng = random.Random(seed)
    return [draw_word(rng, n) for n in sizes.deep_lengths]


def replay_prefix(word: str, sizes: Sizes = FULL) -> str:
    """The word cut to its first `replay_max` letters, for `node` and `chain`.

    One replay of a 10^4-letter word takes ~5 s, too long a sample on a host
    whose speed changes every few seconds; `scaling` still gets the full word.
    """
    return ".".join(word.split(".")[:sizes.replay_max])


def invocations(workload: str, seed: int, sizes: Sizes = FULL) -> list[Invocation]:
    """The invocations of one pass of a workload, in the order they run."""
    s = sizes
    if workload == "expand":
        argvs = [("expand", "--depth", str(s.jsonl_depth), "--chain-cap", str(s.expand_cap)),
                 ("expand", "--depth", str(s.expand_depth), "--chain-cap", str(s.expand_cap),
                  "--max-qc", str(s.expand_max_qc), "--format", "csv")]
        return [_golden(a) for a in argvs]
    if workload == "verify":
        argv = ("verify", "--depth", str(s.verify_depth), "--chain-cap", str(s.verify_cap))
        return [Invocation(argv, VERIFY_COUNTS[" ".join(argv)], "verify")]
    if workload == "views":
        argvs = [("render", "--depth", str(s.render_depth), "--chain-cap", str(s.render_cap)),
                 ("wannier", "--qmax", str(s.wannier_qmax)),
                 ("apollonian", "--correspondence"),
                 ("pyth", "--oracle-cmax", str(s.oracle_cmax))]
        return [_golden(a) for a in argvs]
    if workload == "deep":
        out = []
        for word in deep_words(seed, s):
            n = word.count(".") + 1
            head = replay_prefix(word, s)
            m = head.count(".") + 1
            out.append(Invocation(("node", f"--word={head}"), m, "node", head))
            out.append(Invocation(("chain", "--steps", str(s.chain_steps), f"--word={head}"),
                                  m + s.chain_steps, "chain", head, s.chain_steps))
            out.append(Invocation(("scaling", "--cf-terms", str(s.cf_terms), f"--word={word}"),
                                  n, "scaling", word, s.cf_terms))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def _golden(argv: tuple[str, ...]) -> Invocation:
    return Invocation(argv, GOLDEN[" ".join(argv)][2], "digest")
