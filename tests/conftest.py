import numpy as np
import pytest

from surelock import ModelConfig, init_weights
from surelock.cli import random_prompt


@pytest.fixture(scope="session")
def toy_config():
    return ModelConfig(vocab_size=32, d_model=32, n_layers=2, n_heads=2, d_ff=64, max_seq=64)


@pytest.fixture(scope="session")
def toy_weights(toy_config):
    return init_weights(toy_config, 1234)


@pytest.fixture(scope="session")
def toy_prompt(toy_config):
    return random_prompt(toy_config, 16, 99)


@pytest.fixture(scope="session")
def small_model():
    cfg = ModelConfig(vocab_size=16, d_model=16, n_layers=2, n_heads=2, d_ff=32, max_seq=32)
    return cfg, init_weights(cfg, 31)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240901)
