"""Golden pins for the trainer branches the medium runs of `test_golden` never
reach: easy-map shaping (no back-out bonus) and a full AND bank, where every
further induction is refused.

Both runs are `test_golden.RUN` with the logic agent, once on easy maps and
once on hard maps with `gate_cap=2`, where both banks fill and hundreds of
inductions are then refused. Change a pin only for an intended change of
behaviour, and say why in CHANGES.md.
"""

import pytest

from lnnrl.agent import TrainerConfig
from lnnrl.harness import ExperimentConfig, run_experiment
from test_golden import RUN, run_files, sha256

BRANCHES = {
    "easy": dict(difficulty="easy"),
    "hard-gate-cap-2": dict(difficulty="hard", trainer=TrainerConfig(gate_cap=2)),
}

GOLDEN = {
    "easy": {
        "config.txt": "c711b9db11e56577447773144182be981c022ba07f4d59506c6a0aeef848eefb",
        "metrics.csv": "8601192ec7e1c81b84754edfe3b84d1c228bbd83c6d4e6dec398f8b266196862",
        "rules_seed0.txt": "178c1c3afc0b2dbdd4af049b047dd92b2a4b5646ba384c11089cd09c598c2660",
        "rules_seed1.txt": "178c1c3afc0b2dbdd4af049b047dd92b2a4b5646ba384c11089cd09c598c2660",
        "trace_seed0.txt": "bfb56731b0174cc787cdb239c25109438bed513355d9c19dd9961d0240a51b67",
        "trace_seed1.txt": "bda9258d95f2b9b2d016fe9e90e2c3ae7adcd5f991d60a6f5e56fd523b19b612",
        "seed0/direction.lnn": "ae739be307f4cdc9c0c327761e953fe31b48e87dfb5f0a35f9f3712e4dd8ff5f",
        "seed0/money.lnn": "ba98ef55add3f57156609e25c72eaf0d09d97fa449f7e46ff53984eec6fec182",
        "seed1/direction.lnn": "9f9785c75ef70d83f1394c0ae8fdce119572d973e5026e781ad4b55541092ddb",
        "seed1/money.lnn": "1f6fb6241b1a72c7a553a0d411a44d9ca9467fd62aa156f7f60178d00a32039a",
    },
    "hard-gate-cap-2": {
        "config.txt": "a304d386d6accb06d9bdfaf529a303fcf55535d2ff9392a0d99fcc54fd133f12",
        "metrics.csv": "e0ef698927413cb7af41cc288215b4bf07c334c7af864551d409f1fc78dec3e7",
        "rules_seed0.txt": "178c1c3afc0b2dbdd4af049b047dd92b2a4b5646ba384c11089cd09c598c2660",
        "rules_seed1.txt": "178c1c3afc0b2dbdd4af049b047dd92b2a4b5646ba384c11089cd09c598c2660",
        "trace_seed0.txt": "9271f0a2b8a4c45d5ad04331feb23524da98e733a53e346ef965b140e898894d",
        "trace_seed1.txt": "22924e67d903fa43ee07970e8523ae539d23d8a5d791fff7bdaca26ebb89f0cc",
        "seed0/direction.lnn": "132f21e94fc7476fb03ee4c1c6ef5156192bf3e14ef6b8b23893c02d736c4813",
        "seed0/money.lnn": "4e5abc956d9d481e613e7398db19e3f02f6ac40599ae01bbc2eded30e4e582cc",
        "seed1/direction.lnn": "174d8f00ed7555065ff59a0d106fc880c727d030abe72e45aa411ea0e3d781fa",
        "seed1/money.lnn": "0080cd1fba1f0f22ec32b71bf480e8ded2ff5a96abf2bf4b6fff5d898009e748",
    },
}


@pytest.mark.parametrize("branch", sorted(GOLDEN))
def test_branch_artifacts_match_pins(branch, tmp_path):
    config = ExperimentConfig(agent="lnn", **{**RUN, **BRANCHES[branch]})
    run_experiment(config, tmp_path, trace=True)
    assert {name: sha256(data) for name, data in run_files(tmp_path, "lnn").items()} == GOLDEN[branch]
