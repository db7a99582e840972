"""Byte-identical CLI output: SHA-256 digests of stdout on a fixed golden set.

The digests pin canonical strings, JSON and CSV exactly, so a change to how
the probabilities are summed or formatted shows here even when every value
test still passes. Record new digests only for an intended output change.
"""

import hashlib
import shlex

import pytest

from layerscope.cli import main

GOLDEN = {
    "pt -f B -D 5": "9d76d7e955a3bd724605a0a0174bc42047f7229398d35607e635bc867aac87c7",
    "pt -f K -D 5 -d 2 --format json": "8b82c668b423232104697b294c8504fde41929114cf94180810cbe4f54b2d229",
    "pt -f B -D 5 -d 3 --format csv": "1db7df4f42e56fe266e29cd097d60a9235fec45d6e67edc92d59478ac53add67",
    "pin -f K -D 6": "8acecb71d7e64fc4e09c82103969bdfb94008179902595212c96d7f0f7f6147c",
    "pin -f B -D 9": "17ce5bec17241714fb1a242e36c3fcb68ccf5d9495ad5ab14187a1032300f9b7",
    "pin -f K -D 9 -d 2 --format json": "1318e6e6d99e09275094b781afe4aefa0f7ed964e1281be18d9f9a441f59f9e7",
    "pt -f K -D 7 --format csv": "c2981fcec5963ecc77c78f2fc0b643d55e6430a9b83b6061517d7369c1dac24c",
    "pt -f B -D 7": "4cf76bfe51c50b4347c0a08e71d2dbc593690e03bd7ea91b922b06c120a79c86",
    # recorded with the pseudo-remainder gcd alone, which took about two minutes
    "pt -f B -D 8": "b9e06180158cd4191cf55ccfa7bd0aba7861c12bade307799162ece35929b5cf",
    "pt -f B -D 8 -d 2 --format csv": "5414f9f1da724239d373fda1525ea273b47e0e871ea3f2d3b7f1cccb45393e4e",
    "pt -f K -D 8 -d 3 --format json": "261e9d06a3a378a41671364482b3f238041fa6b9240583ab7238ae6fbeddc3a9",
    "pt -f K -D 9": "6f7a6fee22f6eade36691f2479259de62378c3001b3462beb881c6ed840850d0",
    "markov -f K -d 3 -D 4 -p 1/10 --format json": "fb1abd1df5422660903a5cb4d5aae1972f6f641e5131cd96ac30f37c5749c4a5",
    "verify -f B -d 2 -D 5": "c6e9d21a896375004724113b1dc343b6f150356bf4bb055a9edb13d6fa8886ab",
    "verify -f K -d 3 -D 3": "024c91aa237fbba11f433e2a81df98343a23ac136d2993fc20f212f7b47150d3",
    "markov -f K -d 4 -D 5 -p 1/10 --monte-carlo 20000 --seed 5 --format json": "e9912f1a386e87cc460dce2cc16d4098d1a7129ebdd766ba5f6d1a67a3c6bc10",
    "markov -f K -d 3 -D 4 -p 0 --monte-carlo 5000 --seed 3": "3fe5ee4051b9f3d170be90b67a73897a6b6d23f4cf67d5bbbe06e803061f822f",
    # deflections among several links, and a degree above 256
    "markov -f K -d 3 -D 4 -p 1/2 --monte-carlo 2000 --seed 9 --format json": "b249b41ddaea22418d7a934133366de3e2c5dcaa87dc47fc111f75c02e1c0a30",
    "markov -f B -d 300 -D 1 -p 1/10 --monte-carlo 3000 --seed 7": "c21b41b9fc284ac21fc997f96e18ee534579fd205ad06258e42a115e2a16089e",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_stdout_digest(capsys, command):
    rc = main(shlex.split(command))
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
