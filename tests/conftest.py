"""Fixtures shared by several test modules."""

import pytest


@pytest.fixture
def evaluations(monkeypatch):
    """Running counts of the point evaluations behind sampled decisions:
    "image" counts matrices evaluated mod P at a point, "matrix" the exact
    evaluations of a whole matrix at a point, "scalar" the exact scalar
    evaluations (ScalarExpr._eval, which ScalarExpr.eval also reaches) and
    "denominator" the exact tests of a denominator whose image vanishes."""
    import dngeo.symbolic.linalg as linalg
    from dngeo.symbolic.modp import MatrixImage
    from dngeo.symbolic.scalar import ScalarExpr

    count = {"image": 0, "matrix": 0, "scalar": 0, "denominator": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            count[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(MatrixImage, "at", counted("image", MatrixImage.at))
    monkeypatch.setattr(linalg, "_exact_values", counted("matrix", linalg._exact_values))
    monkeypatch.setattr(linalg, "_pole", counted("denominator", linalg._pole))
    monkeypatch.setattr(ScalarExpr, "_eval", counted("scalar", ScalarExpr._eval))
    return count
