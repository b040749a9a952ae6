"""A learned plateau holds to the end of a default-length run.

A logic agent's direction network used to let its OR bias drift below 1 late
in training. A firing go gate then scored exactly 1.0 at the upper clamp,
tied `take coin` in the coin room and won the tie by coming first, so from
about epoch 400 every test game ran to the step cap at reward 0. The OR of
false inputs also stopped reading false, so the rules no longer described
the policy. `LnnNetwork.project` now keeps the OR bias at least
`OR_BIAS_FLOOR`, one ulp above 1.

The test trains the default medium config (500 epochs, an eval every 10) on
3 seeds. The acceptance criteria read only the first crossing of 0.9; this
reads every eval after it.
"""

import pytest

from lnnrl.harness import ExperimentConfig, run_seed
from lnnrl.lnn import OR_BIAS_FLOOR

THRESHOLD = 0.9
N_SEEDS = 3


@pytest.mark.parametrize("seed_index", range(N_SEEDS))
def test_a_default_medium_run_stays_on_its_plateau(lexicon, seed_index):
    config = ExperimentConfig(difficulty="medium", n_seeds=N_SEEDS)
    result = run_seed(config, seed_index, lexicon)
    assert result.epochs[-1] == config.resolved_epochs()
    crossings = [i for i, reward in enumerate(result.rewards) if reward >= THRESHOLD]
    assert crossings, f"seed {seed_index} never reached {THRESHOLD}: {result.rewards}"
    fallen = [(epoch, reward)
              for epoch, reward in zip(result.epochs[crossings[0]:], result.rewards[crossings[0]:])
              if reward < THRESHOLD]
    assert not fallen, (f"seed {seed_index} fell below {THRESHOLD} after epoch "
                        f"{result.epochs[crossings[0]]}: (epoch, reward) {fallen}")
    for category, net in result.scorer.nets.items():
        assert net.buffer[0] >= OR_BIAS_FLOOR, category
