"""A frozen corpus of CLI invocations: stdout sha256 and exit code.

The first seven digests were taken from the code before the cyclotomic
oracle moved to integer reduction; the next ten (at least one per verify
suite) from the code before every suite ran through `cli._cmd_verify`;
the three after them (two `hq --general`, one `verify hd`) from the code
before `h_general` summed sliced rotations; the `table prs` line from
the code that first rendered exponents 10 and up correctly.
A change that claims "no behaviour change" must leave every line here
passing; a deliberate output change updates the digest in the same
commit and says why.
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
    ("verify main --auto 9 --jobs 2",
     "25e5ac77a05bf00ebeb4d23c31e9b5e612546f3bf8ba5a29235f103513f2d7da", 0),
    ("verify singular --auto 9 --format json",
     "eb6fd18dee9be3845848897c5bcab75858bac7655e8b98df04e65cab7babb054", 0),
    ("verify stickelberger --format csv",
     "de1b10424038bd09603d75f90be6c6a5285b0aeecf21e242193f593237d72b08", 0),
    ("verify rewrite --auto 13 --format json",
     "3d488eb3180b8ffb080c608195868746c4345c16f5a5a5b656d0a1215e86ce3e", 0),
    ("verify ono --auto 13",
     "06b3684edca704f3ccf8f0ab5c71c3520138ae4c00c1a14747b6d374cac38151", 0),
    ("verify denominator --format csv",
     "d7db0004d53f51b9836bca7d73ad6184e76f1938fbad9408ccad6c71042a4cb8", 0),
    ("verify cells",
     "ed96916fd9d53485c8b052d919c023fa1ab7f750d9feafba2632048192ffc7fa", 0),
    ("verify alt --format csv",
     "3e9369edfb222362729223b0dd62dc09aa04b53b962f86dbe2c7c90ee4dbf7de", 0),
    ("count --p 3 --q 1,2 --auto 9 --lam all --format json",
     "01c5d4eb6a1b821a18523d775c3ef8e93da30bc43e3f8ecdac7713bfaacf6daf", 0),
    ("count --p 3 --q 1,1,1 --field 8 --lam all",
     "1ad1f577a3c4d6ebd7fe6cea0afbc797e5c119125bd562ec79411f448d69ba5e", 0),
    ("hq --alpha 1/5,2/5,3/5 --beta 1/3,2/3,1 --general --field 151 --t all "
     "--format csv",
     "fbe670264b7593359150a2825003cd83dc21e22fa74f1ec109b80b14b538893c", 0),
    ("hq --alpha 1/5,2/5,3/5 --beta 1/3,2/3,1 --general --field 31 --t all",
     "2fc52201f2067021e0780593331bd1b1a7ffdc44e262c931e7010088f45e81a9", 0),
    ("verify hd --field 13,25",
     "861232d43d3c106a44374400d15f4cbb85fef1f59b31d44eda62116a096a822b", 0),
    ("table prs --r 7 --s 6",
     "3504856c5daa94c9a641f8d54b2362969ad683a8f9522efb9f3d8524b1a58502", 0),
]


@pytest.mark.parametrize("argv,digest,code", CORPUS,
                         ids=[line for line, _, _ in CORPUS])
def test_frozen_invocation(capsys, monkeypatch, argv, digest, code):
    monkeypatch.delenv("HQ_CACHE_DIR", raising=False)
    got = cli.run(argv.split())
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), got) == (digest, code)


@pytest.mark.parametrize("suite", cli.VERIFY_SUITES)
def test_jobs_do_not_change_the_output(capsys, monkeypatch, suite):
    monkeypatch.delenv("HQ_CACHE_DIR", raising=False)
    small = {"main": ["--p", "3", "--q", "1,2", "--field", "7"],
             "singular": ["--auto", "9"], "hd": ["--field", "7,9"],
             "rewrite": ["--auto", "13"], "ono": ["--field", "5,7"],
             "denominator": ["--field", "7"], "alt": ["--field", "5"]}
    outs = []
    for jobs in ("1", "2"):
        argv = ["verify", suite, "--jobs", jobs] + small.get(suite, [])
        assert cli.run(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
