import numpy as np
import pytest

from sapt.data import load_registered, make_dataset
from sapt.bnn import NetworkTopology


@pytest.fixture(scope="session")
def iris():
    """(entry, train, test) for the bundled iris file, split seed 0."""
    return load_registered("iris", seed=0)


@pytest.fixture(scope="session")
def tiny_dataset():
    """Two linearly separable 2-D blobs, 40 rows, deterministic."""
    rng = np.random.default_rng(7)
    a = rng.normal([-1.5, 0.0], 0.4, size=(20, 2))
    b = rng.normal([1.5, 0.0], 0.4, size=(20, 2))
    features = np.vstack([a, b])
    labels = np.repeat([0, 1], 20)
    return make_dataset(features, labels, class_count=2, name="blobs")


@pytest.fixture(scope="session")
def tiny_topology():
    return NetworkTopology(2, 3, 2)


@pytest.fixture(params=["nan-label", "inf-label", "huge-label", "directory",
                        "not-text"])
def malformed_csv(request, tmp_path):
    """A dataset path that load_csv rejects with DataFormatError."""
    path = tmp_path / "bad.csv"
    if request.param == "directory":
        path.mkdir()
    else:
        path.write_bytes({"nan-label": b"1,2,0\n3,4,nan\n",
                          "inf-label": b"1,2,0\n3,4,inf\n",
                          "huge-label": b"1,2,0\n3,4,1e300\n",
                          "not-text": b"\xff1,2,0\n"}[request.param])
    return path
