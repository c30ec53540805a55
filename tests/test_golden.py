"""Byte-for-byte pins of small CLI outputs.

The digests were captured from the library before the integer-core
refactor, the two render pins with a palette or a canvas before the SVG
writer moved to integer pixel maths, and the last three (a 90-letter
chain word whose integers pass 2^53, a --max-qc expansion and a small
Wannier table) before the writers formatted lines directly.  The 43 129-line
Wannier table, the Apollonian correspondence report and the small
Pythagorean oracle row are the benchmark's own digests, captured before any
optimisation, and pin the views on integer rows.  Any change
that moves a byte of these outputs fails here.  Arguments are split on
spaces, so the palette needs no quoting.
"""

import hashlib

import pytest

from butterfly_tree.cli import main

# argv -> (SHA-256 of stdout, stdout length in bytes)
GOLDEN = {
    "node --word=":
        ("d9e4d866f2d6f8975f6eaf79b6f560ddd4c951c33ed12ab59c0b896b85b45733", 171),
    "expand --depth 3 --chain-cap 2":
        ("cf41db8743d1bdda93625615c5c33d1bbceff16a088993487072908fe85da235", 54960),
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
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_cli_output_bytes(capsys, argv):
    code = main(argv.split())
    out = capsys.readouterr().out.encode("utf-8")
    assert code == 0
    assert (hashlib.sha256(out).hexdigest(), len(out)) == GOLDEN[argv]
