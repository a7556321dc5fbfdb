import math
import os

import numpy as np
import pytest

from lmrate import Constellation, build_channel, build_constellation, discretize
from lmrate.channel import DiscreteProblem

# Single seed for every randomized harness; override with LMRATE_SEED.
SEED = int(os.environ.get("LMRATE_SEED", "20250819"))


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def make_problem(scheme="qpsk", eta=0.9, theta=np.pi / 18, snr_db=0.0, n_side=10,
                 h_hat=None):
    cons = build_constellation(scheme)
    chan = build_channel(1.0, eta, theta, snr_db, h_hat=h_hat)
    grid, prob = discretize(chan, cons, n_side)
    return cons, chan, grid, prob


def square_problem(k, n_side, snr_db=0.0, h_hat=None):
    """A k x k square alphabet of unit power, uniform prior, eta 0.9 and
    theta pi/18: the alphabets past qam256."""
    axis = np.arange(1.0 - k, k, 2.0)
    points = np.array([(a, b) for a in axis for b in axis])
    points /= math.sqrt((points * points).sum(axis=1).mean())
    cons = Constellation(points=points, probs=np.full(k * k, 1.0 / (k * k)))
    return discretize(build_channel(1.0, 0.9, np.pi / 18, snr_db, h_hat=h_hat), cons, n_side)[1]


def rotation(angle):
    """The 2 x 2 rotation by ``angle``: as h_hat, a decoder whose points take
    no product of levels on the grid axes."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def random_problem(rng, m, n):
    """Small valid instance with exact reversal symmetry in w and d."""
    assert m % 2 == 0 and n % 2 == 0
    d = rng.uniform(0.0, 3.0, (m, n))
    d = 0.5 * (d + d[::-1, ::-1])
    w = rng.uniform(0.1, 1.0, (m, n))
    w = 0.5 * (w + w[::-1, ::-1])
    w /= w.sum(axis=1, keepdims=True)
    p_x = np.full(m, 1.0 / m)
    p_y = p_x @ w
    t = float(np.sum(p_x[:, None] * w * d))
    return DiscreteProblem(d=d, p_x=p_x, p_y=p_y, w=w, t=t)


@pytest.fixture(scope="session")
def qpsk_n10():
    return make_problem()[3]


@pytest.fixture(scope="session")
def qpsk_n6():
    return make_problem(n_side=6)[3]


@pytest.fixture(scope="session")
def qpsk_4x9():
    # 4 inputs x 9 output nodes; the small dense instance for derivative checks
    return make_problem(n_side=3)[3]


@pytest.fixture(scope="session")
def qam16_n15():
    return make_problem("qam16", n_side=15)[3]
