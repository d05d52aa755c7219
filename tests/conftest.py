import os

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir() -> str:
    return os.environ.get("GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001")


@pytest.fixture
def block_size():
    """``block_size(n)`` sets ``DataContext.target_min_block_size`` to
    ``n`` bytes for the rest of the test, so that the range partitioner
    makes more key ranges (P > 1) on small inputs."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    old = ctx.target_min_block_size
    yield lambda n: setattr(ctx, "target_min_block_size", n)
    ctx.target_min_block_size = old


@pytest.fixture
def spread_keys(monkeypatch):
    """The number of hot keys the range partitioner spreads, one entry
    per regroup at P > 1 during the test (``util._boundaries`` runs on
    the driver)."""
    from osmptparser_ray import util

    seen, boundaries = [], util._boundaries

    def counted(*args, **kwargs):
        bounds, hot = boundaries(*args, **kwargs)
        seen.append(0 if hot[0] is None else int((hot[0][0] >= 0).sum()))
        return bounds, hot

    monkeypatch.setattr(util, "_boundaries", counted)
    return seen
