"""Byte-for-byte pins of small CLI outputs.

The digests were captured from the library before the integer-core
refactor, the two render pins with a palette or a canvas before the SVG
writer moved to integer pixel maths, and the last three (a 90-letter
chain word whose integers pass 2^53, a --max-qc expansion and a small
Wannier table) before the writers formatted lines directly.  The 43 129-line
Wannier table, the Apollonian correspondence report, the small
Pythagorean oracle row and the two large expansions (JSONL at depth 5, CSV
at depth 6 under --max-qc 100) are the benchmark's own digests, captured
before any optimisation; they pin the views on integer rows and the
expansion the benchmark times.  Three more pin the
bignum commands (`scaling` on a 500-letter word whose value is still a
finite float, a 20-step chain below a 1 000-letter word, and `node` with a
word in mixed spellings); they were captured before the word block was
folded on four ints, tokens were looked up in one dict and chain rows were
built from the cores.  The last two (`node` and `chain` on a 14 000-letter
word, integers of over 4 300 digits) have no earlier output to capture,
as those commands used to exit 2 on them; `test_cli.py` checks their
values against the library's cores.  The Apollonian word and the
Pythagorean tree at depth 2 were captured before the records lost their
`as_tuple()` spelling.  Any change that moves a byte of
these outputs fails here.  Arguments are split on spaces, so the palette
needs no quoting.
"""

import hashlib
import xml.etree.ElementTree as ET

import pytest

from butterfly_tree.cli import main

BABIES = ("CL", "CR", "UL", "UR", "DL", "DR")
# The chain letter every baby leaves valid: its tail side, which chain
# letters keep.
TAIL = {"CL": "TR", "CR": "TL", "UL": "TL", "UR": "TR", "DL": "TL", "DR": "TR"}


def lcg_word(length, seed):
    """A fixed valid word: letters drawn by a linear congruential generator,
    one draw in four the chain letter of the last baby."""
    x, last, letters = seed, None, []
    for _ in range(length):
        x = (x * 1103515245 + 12345) % 2 ** 31
        pick = (x >> 16) % 8
        if pick >= 6 and last:
            letters.append(TAIL[last])
        else:
            last = BABIES[pick % 6]
            letters.append(last)
    return ".".join(letters)


SCALING_ARGV = "scaling --cf-terms 8 --word=" + lcg_word(500, 1)
CHAIN_ARGV = "chain --steps 20 --word=" + lcg_word(1000, 2)
# Integers of more than 4 300 digits, Python's default int-to-string limit.
BIG_NODE_ARGV = "node --word=" + lcg_word(14_000, 3)
BIG_CHAIN_ARGV = "chain --steps 2 --word=" + lcg_word(14_000, 3)

# argv -> (SHA-256 of stdout, stdout length in bytes)
GOLDEN = {
    "node --word=":
        ("d9e4d866f2d6f8975f6eaf79b6f560ddd4c951c33ed12ab59c0b896b85b45733", 171),
    "expand --depth 3 --chain-cap 2":
        ("cf41db8743d1bdda93625615c5c33d1bbceff16a088993487072908fe85da235", 54960),
    "expand --depth 5 --chain-cap 2":
        ("aa5969e953da5c35591c8b7eb40ddcb3ecb16f0f547cde3de3e7f49a322dfe52", 2865798),
    "expand --depth 6 --chain-cap 2 --max-qc 100 --format csv":
        ("ab6a932330ad2d6cf1f2a9339cf08c6c8408172e8dc54dc00165859025ceefc4", 743937),
    "expand --depth 3 --chain-cap 2 --max-qc 30 --format csv":
        ("b28b2724eb962a219f000b7396d0351f1f5090edfb09dabcef86562b1988cc4e", 13264),
    "render --depth 2 --chain-cap 1":
        ("7ba65b7b3ce3dd7a8c763f3fd1fdc655785062877c723977402d1ec9c68c697d", 46196),
    "render --depth 3 --chain-cap 2 --chain-preview 0 --width 300 --height 200 --margin 10":
        ("53d54c5f876748d306c15f50d03ebebe4200306b1e70e933b09377c91ac32ff5", 226873),
    "render --depth 3 --chain-cap 3 --max-qc 60 --chain-preview 7 --palette "
    "#000001,#000002,#000003,#000004,#000005,#000006,#000007,#000008":
        ("5812bdc5d16395cdecb998465dc1a8291f46d0e750ff2b6f4ea2e52cd7f603bf", 398769),
    "chain --steps 3 --word=" + ".".join(["UL"] * 45):
        ("b087881004101533ef986a9dae1920d30c0cb88bf28873f85b7b320184126329", 1421),
    "expand --depth 4 --chain-cap 1 --max-qc 40":
        ("bfbe62dab3d859c1ba8db129de6ce6f27e65c03b1ff4f056bdd108f48aa3ab8b", 136234),
    "wannier --qmax 10":
        ("b89ff415fc5322263088a83fa52b88a45f4d5fa45369ce1fa87038a756a27c56", 8858),
    "wannier --qmax 60":
        ("8f9a428f2598dfc77921146c14bc87db3a4cb7722019d4781b13445ee7d40620", 2208858),
    "apollonian --correspondence":
        ("77cc222d03a0a8e7738a39b929ad7ac60300ca08e3118f5608851ce21e459365", 948),
    "pyth --oracle-cmax 50":
        ("edec99eb3f5a829e6ec80b4e5d39e6cb9107da3a619cc5c7b0d11892ea040ebe", 62),
    SCALING_ARGV:
        ("1a181911195806b565791be5f94476b9b8afe6eef13dccd41db7100ca5ffb77e", 3014),
    CHAIN_ARGV:
        ("3bb2caedcdd3062ddec2509208bc4adf08f5beb2051aa55471614def8298c80c", 120223),
    "node --word=ul,c_cl.Dr..C_R,tl":
        ("437d34f4164607bf334104f4b387646e7c5e8dad867e98d2874a51c8406ab17f", 194),
    BIG_NODE_ARGV:
        ("5992a726badf5f1929d65b5ceacdca846921dbc0ed988a782f9fe5cd81ad0c1e", 82135),
    BIG_CHAIN_ARGV:
        ("d77b39093838baaf60d46cba616dec6a644d7c7eec9f779c4985c3e25c7477a2", 164229),
    "apollonian --quad=-1,2,2,3 --word=S1.A2.S4":
        ("fb46564efc4abb3ed7955d210677f501d057c1b722c8c40969ec71871d4a3c53", 72),
    "pyth --depth 2":
        ("093e19816309bf2b8f21a598201efe066929a2f5f66141d2cd9292573593a826", 547),
}


def short_id(argv):
    """The argv as a test id, with a long word cut."""
    return argv if len(argv) < 200 else argv[:60] + "..."


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=short_id)
def test_cli_output_bytes(capsys, argv):
    code = main(argv.split())
    out = capsys.readouterr().out.encode("utf-8")
    assert code == 0
    assert (hashlib.sha256(out).hexdigest(), len(out)) == GOLDEN[argv]
    if argv.startswith("render"):
        ET.fromstring(out)  # well-formed XML
