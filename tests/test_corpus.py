"""A frozen corpus of CLI invocations: stdout sha256 and exit code.

The digests were taken from the code before the cyclotomic oracle moved
to integer reduction.  A change that claims "no behaviour change" must
leave every line here passing; a deliberate output change updates the
digest in the same commit and says why.
"""

import hashlib

import pytest

from hqcount import cli

CORPUS = [
    ("verify rewrite --auto 31 --format csv",
     "62ba91b3ddfa240de34b9f599debcf9a6af4a1d84a317a624080b68b2628318e", 0),
    ("hq --alpha 1/5,2/5 --beta 1,1 --general --field 11 --t all",
     "c111beb6353c41362a0559bb1d58574d57a8df5e86a1bfa8bd099185e8ededb3", 0),
    ("hq --alpha 1/5,2/5 --beta 1,1 --general --field 11 --t all "
     "--format json",
     "284496d0deea8406ff2e32d9a0825872b0df92237fa8abbf6bec92a91ba9db42", 0),
    ("verify hd --field 7,9,13",
     "711456e649052e9885736164e0b4c6b2f59bb2ba37d75a566d6413e992526aed", 0),
    ("hq --p 5 --q 1,1,1,1,1 --field 31 --t all --format csv",
     "bde5b41e4faac782bd5bf8ce507056846ec971572d00aae23bcd3899eb65536e", 0),
    ("verify main --auto 7",
     "dd0474150304bf606080d0e93242bcd011829b5831b5ca7224e75abe6fbe5e51", 0),
    ("count --p 2,2 --q 1,1,1,1 --field 7 --lam all --format csv",
     "1d6106af8f00df606ee73f5cfdc2b3d64625d317266a038f549662aaf90310d0", 0),
]


@pytest.mark.parametrize("argv,digest,code", CORPUS,
                         ids=[line for line, _, _ in CORPUS])
def test_frozen_invocation(capsys, monkeypatch, argv, digest, code):
    monkeypatch.delenv("HQ_CACHE_DIR", raising=False)
    got = cli.run(argv.split())
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), got) == (digest, code)
